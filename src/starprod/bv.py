"""Odd bracket and second-order Laplacian on a field/antifield algebra.

A BVSpace declares fields with chosen parities; every field gets a partner
of opposite parity (its antifield, named <field>p unless overridden).  The
polynomial algebra over fields, antifields and hbar carries:

  * an odd bracket pairing each field with its antifield,
    normalized by (v, vp) = 1 and (vp, v) = -1;
  * an odd second-order operator

        laplacian(f) = sum over fields v of
                       (-1)^{|v|} d^L_{vp} d^L_v f

    with |v| the field parity.  The parity-dependent sign is forced by
    compatibility between bracket and laplacian (see check_bv_axioms);
    for an even field, laplacian(v vp) = +1.

The five axiom residuals checked here: graded antisymmetry, graded Jacobi
in derivation form, the graded Leibniz rule, bracket/laplacian
compatibility, and laplacian squared.  qme_residual measures
(S, S) - 2 i hbar laplacian(S) for an even S, and omega builds the odd
operator (S, .) - i hbar laplacian(.) which squares to zero whenever S
passes the qme test.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from typing import Mapping, Optional, Sequence

from .errors import InputError, ResourceLimitError, require_int
from .expr import _is_name, parse_poly
from .scalars import Scalar
from .superalg import (DEFAULT_HBAR_ORDER, MAX_COORDINATES, GradedPoly,
                       GradedSpace, _sum, pairing_bracket)

FieldSpec = Sequence[tuple[str, int]]


@dataclass(frozen=True)
class BVSpace:
    """Fields with parities, their antifields, and the ambient polynomial space."""

    fields: tuple[str, ...]
    parities: tuple[int, ...]
    antifields: tuple[str, ...]
    space: GradedSpace

    @staticmethod
    def build(fields: FieldSpec,
              antifields: Optional[Mapping[str, str]] = None,
              hbar_order: int = DEFAULT_HBAR_ORDER) -> "BVSpace":
        if not isinstance(fields, (list, tuple)):
            raise InputError("fields must be a list of (name, parity) pairs")
        if len(fields) > MAX_COORDINATES:
            raise ResourceLimitError(f"{len(fields)} fields exceed the cap of "
                                     f"{MAX_COORDINATES}")
        names = []
        parities = []
        for entry in fields:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InputError("each field must be a (name, parity) pair")
            name, parity = entry
            if not isinstance(name, str) or not name:
                raise InputError("field names must be nonempty strings")
            require_int(parity, f"field {name!r} parity", 0, 1)
            names.append(name)
            parities.append(parity)
        if not names:
            raise InputError("a BV space needs at least one field")
        if antifields is not None and not isinstance(antifields, Mapping):
            raise InputError("antifields must map field names to names")
        overrides = dict(antifields or {})
        partner = []
        for name in names:
            partner.append(overrides.pop(name, name + "p"))
        if overrides:
            unknown = ", ".join(sorted(overrides))
            raise InputError(f"antifield overrides for unknown fields: {unknown}")
        generator_names = tuple(names) + tuple(partner) + ("hbar",)
        generator_parities = tuple(parities) + tuple(1 - p for p in parities) + (0,)
        space = GradedSpace(generator_names, generator_parities, hbar_order)
        # a name the expression grammar reads otherwise, or not at all,
        # would leave its generator out of every polynomial
        for kind, group in (("field", names), ("antifield", partner)):
            for name in group:
                if not _is_name(name):
                    raise InputError(
                        f"{kind} name {name!r} cannot be written in an "
                        f"expression: use a letter or '_', then letters, "
                        f"digits or '_', and not 'I'")
        return BVSpace(tuple(names), tuple(parities), tuple(partner), space)

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.fields, self.antifields))

    def poly(self, text: str) -> GradedPoly:
        return parse_poly(text, self.space)

    def to_data(self) -> dict:
        return {
            "fields": [[n, p] for n, p in zip(self.fields, self.parities)],
            "antifields": {n: a for n, a in self.pairs if a != n + "p"},
            "hbar_order": self.space.hbar_order,
        }

    @staticmethod
    def from_data(data: Mapping) -> "BVSpace":
        if not isinstance(data, Mapping):
            raise InputError("BV space data must be a JSON object")
        return BVSpace.build(data.get("fields"), data.get("antifields"),
                             data.get("hbar_order", DEFAULT_HBAR_ORDER))


def _check_member(space: BVSpace, p: GradedPoly, what: str) -> None:
    if not isinstance(p, GradedPoly) or p.space != space.space:
        raise InputError(f"{what} must be a polynomial over the BV space")


def bv_bracket(space: BVSpace, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """Odd bracket pairing fields with antifields; (v, vp) = 1."""
    _check_member(space, f, "bracket argument")
    _check_member(space, g, "bracket argument")
    return pairing_bracket(f, g, space.pairs)


def bv_laplacian(space: BVSpace, f: GradedPoly) -> GradedPoly:
    """Second-order odd operator; see the module docstring for the sign."""
    _check_member(space, f, "laplacian argument")
    terms = []
    for (field, antifield), parity in zip(space.pairs, space.parities):
        term = f.deriv_left(field).deriv_left(antifield)
        terms.append(((-1) ** parity, term.den, term.rows))
    return _sum(space.space, terms)


def _parity_or_error(p: GradedPoly, what: str) -> int:
    parity = p.parity()
    if parity is None:
        raise InputError(f"{what} must be parity-homogeneous")
    return parity


@dataclass(frozen=True)
class AxiomReport:
    """Residuals of the five bracket/laplacian axioms; all zero means pass."""

    antisymmetry: GradedPoly
    jacobi: GradedPoly
    leibniz: GradedPoly
    compatibility: GradedPoly
    laplacian_square: GradedPoly

    def residuals(self) -> dict[str, GradedPoly]:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def all_zero(self) -> bool:
        return all(r.is_zero() for r in self.residuals().values())


def check_bv_axioms(space: BVSpace, f: GradedPoly, g: GradedPoly,
                    h: GradedPoly) -> AxiomReport:
    """Evaluate the axiom residuals on a homogeneous triple.

      antisymmetry      (f,g) + (-1)^{(|f|+1)(|g|+1)} (g,f)
      jacobi            (f,(g,h)) - ((f,g),h) - (-1)^{(|f|+1)(|g|+1)} (g,(f,h))
      leibniz           (f, g h) - (f,g) h - (-1)^{(|f|+1)|g|} g (f,h)
      compatibility     (f,g) - (-1)^{|f|} L(f g) + (-1)^{|f|} L(f) g + f L(g)
      laplacian_square  L(L(f))

    with L the laplacian.  Inhomogeneous inputs raise InputError.
    """
    for p in (f, g, h):
        _check_member(space, p, "axiom argument")
    pf = _parity_or_error(f, "first argument")
    pg = _parity_or_error(g, "second argument")
    _parity_or_error(h, "third argument")

    def br(a, b):
        return bv_bracket(space, a, b)

    def lap(a):
        return bv_laplacian(space, a)

    def signed_sum(*terms):
        return _sum(space.space, [(s, p.den, p.rows) for s, p in terms])

    fg, fh, lf = br(f, g), br(f, h), lap(f)
    swap = (-1) ** ((pf + 1) * (pg + 1))
    antisymmetry = signed_sum((1, fg), (swap, br(g, f)))
    jacobi = signed_sum((1, br(f, br(g, h))), (-1, br(fg, h)),
                        (-swap, br(g, fh)))
    leibniz = signed_sum((1, br(f, g * h)), (-1, fg * h),
                         ((-1) ** ((pf + 1) * pg + 1), g * fh))
    compatibility = signed_sum((1, fg), ((-1) ** (pf + 1), lap(f * g)),
                               ((-1) ** pf, lf * g), (1, f * lap(g)))
    return AxiomReport(antisymmetry, jacobi, leibniz, compatibility, lap(lf))


@dataclass(frozen=True)
class QmeResult:
    """Master-equation data for an even functional S."""

    classical: GradedPoly   # (S, S)
    residual: GradedPoly    # (S, S) - 2 i hbar laplacian(S)

    def solves(self) -> bool:
        return self.residual.is_zero()


def qme_residual(space: BVSpace, S: GradedPoly) -> QmeResult:
    """(S,S) - 2 i hbar laplacian(S); S must be even."""
    _check_member(space, S, "action")
    if _parity_or_error(S, "action") != 0:
        raise InputError("the action must be even")
    classical = bv_bracket(space, S, S)
    hbar = GradedPoly.generator(space.space, "hbar")
    residual = classical - hbar * bv_laplacian(space, S) * Scalar(0, 2)
    return QmeResult(classical, residual)


def omega(space: BVSpace, S: GradedPoly, observable: GradedPoly) -> GradedPoly:
    """The odd operator (S, .) - i hbar laplacian(.) of a master action.

    Requires qme_residual(space, S) to vanish; then omega squares to zero.
    On observables free of antifields the laplacian term drops and omega
    reduces to the bracket with S.
    """
    _check_member(space, observable, "observable")
    if not qme_residual(space, S).solves():
        raise InputError("omega needs an action with vanishing master residual")
    hbar = GradedPoly.generator(space.space, "hbar")
    return bv_bracket(space, S, observable) \
        - hbar * bv_laplacian(space, observable) * Scalar(0, 1)
