"""Polynomial multivector fields and their odd-bracket calculus.

A bivector field alpha with polynomial coefficients determines a bracket
{f,g} on polynomials; alpha is a Poisson structure when that bracket
satisfies the Jacobi identity.  Multivectors of any degree embed into the
(xi, eta) superspace through the symbol map

    symbol(psi, x0) = sum over ascending I of psi^I(x0 + xi) eta_I,

and the superspace antibracket pulls back to a bracket on multivectors
(schouten).  The same antibracket against symbol(alpha) gives the odd
differential delta; delta squares to zero exactly when alpha is Poisson.

Sign convention: the bracket computed here is the negative of the classical
multivector bracket normalized by [X, Y] = Lie bracket on vector fields.
The route through the antibracket forces this choice; see README.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Mapping, Optional, Sequence, Union

from .errors import InputError, InternalError, ResourceLimitError, require_int
from .scalars import Scalar, ScalarLike
from .superalg import (DEFAULT_HBAR_ORDER, MAX_COORDINATES, GradedPoly,
                       GradedSpace, _mac, coeff_space, pairing_bracket,
                       super_space, taylor_shift)

Index = tuple[int, ...]


class ComponentField:
    """Shared machinery for antisymmetric indexed fields (multivectors, forms).

    Stored sparsely: components maps strictly ascending index tuples
    (1-based) to polynomials in coeff_space(dim).  Degree 0 uses the key ().
    Subclasses only fix the geometric meaning; instances of different
    subclasses never compare equal.
    """

    __slots__ = ("dim", "degree", "components")

    def __init__(self, dim: int, degree: int,
                 components: Optional[Mapping[Sequence[int], Union[GradedPoly, ScalarLike]]] = None):
        require_int(dim, "dimension", 1)
        require_int(degree, "degree")
        if dim > MAX_COORDINATES:
            raise ResourceLimitError(f"dimension {dim} exceeds the cap of "
                                     f"{MAX_COORDINATES} coordinates")
        ring = coeff_space(dim)
        clean: dict[Index, GradedPoly] = {}
        if components:
            for raw_key, value in components.items():
                key = tuple(raw_key)
                if len(key) != degree:
                    raise InputError(f"component key {key} has length "
                                     f"{len(key)}, expected degree {degree}")
                for i in key:
                    require_int(i, f"each index of component {key}", 1, dim)
                if any(key[t] >= key[t + 1] for t in range(len(key) - 1)):
                    raise InputError(f"component key {key} must be strictly ascending")
                if not isinstance(value, GradedPoly):
                    value = GradedPoly.constant(ring, value)
                if value.space != ring:
                    raise InputError("component polynomial has the wrong "
                                     "coefficient ring")
                if not value.is_zero():
                    if key in clean:
                        raise InputError(f"duplicate component key {key}")
                    clean[key] = value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls, dim: int, degree: int):
        return cls(dim, degree)

    def ring(self) -> GradedSpace:
        return coeff_space(self.dim)

    def is_zero(self) -> bool:
        return not self.components

    def component(self, *indices: int) -> GradedPoly:
        """Fully antisymmetric lookup: any index order, repeats give zero."""
        if len(indices) != self.degree:
            raise InputError(f"expected {self.degree} indices, got {len(indices)}")
        if len(set(indices)) != len(indices):
            return GradedPoly.zero(self.ring())
        inversions = sum(1 for a, b in combinations(indices, 2) if a > b)
        poly = self.components.get(tuple(sorted(indices)))
        if poly is None:
            return GradedPoly.zero(self.ring())
        return -poly if inversions & 1 else poly

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.dim == other.dim and self.degree == other.degree
                and self.components == other.components)

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other):
        return self._merge(other, operator.add)

    def __sub__(self, other):
        return self._merge(other, operator.sub)

    def _merge(self, other, op):
        """The components of self op other, op adding or subtracting."""
        if type(other) is not type(self):
            return NotImplemented
        if self.dim != other.dim or self.degree != other.degree:
            raise InputError("dimension or degree mismatch")
        merged = dict(self.components)
        zero = GradedPoly.zero(self.ring())
        for key, poly in other.components.items():
            merged[key] = op(merged.get(key, zero), poly)
        return type(self)(self.dim, self.degree, merged)

    def __neg__(self):
        return type(self)(self.dim, self.degree,
                          {k: -p for k, p in self.components.items()})

    def __mul__(self, scalar: ScalarLike):
        return type(self)(self.dim, self.degree,
                          {k: p * scalar for k, p in self.components.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        from .expr import poly_to_expr
        body = ", ".join(f"{k}: {poly_to_expr(p)}"
                         for k, p in sorted(self.components.items()))
        return (f"<{type(self).__name__} dim={self.dim} "
                f"degree={self.degree} {{{body}}}>")

    # serialization

    def to_data(self) -> dict:
        from .expr import poly_to_expr
        return {
            "dim": self.dim,
            "degree": self.degree,
            "components": {",".join(map(str, k)): poly_to_expr(p)
                           for k, p in sorted(self.components.items())},
        }

    @classmethod
    def from_data(cls, data: Mapping):
        from .expr import parse_poly
        if not isinstance(data, Mapping):
            raise InputError("component field data must be a JSON object")
        try:
            # the empty field checks dim and degree before any parsing
            empty = cls(data["dim"], data["degree"])
        except KeyError as exc:
            raise InputError(f"component field data needs {exc.args[0]!r}") from None
        raw = data.get("components", {})
        if not isinstance(raw, Mapping):
            raise InputError("components must be an object")
        ring = empty.ring()
        components = {}
        for key_text, expr_text in raw.items():
            if not isinstance(expr_text, str):
                raise InputError(f"component {key_text!r} must be an expression string")
            if key_text == "":
                key: Index = ()
            else:
                try:
                    key = tuple(int(part) for part in key_text.split(","))
                except ValueError:
                    raise InputError(f"bad component key {key_text!r}") from None
            components[key] = parse_poly(expr_text, ring)
        return cls(empty.dim, empty.degree, components)


class Multivector(ComponentField):
    """Homogeneous multivector field (antisymmetric contravariant tensor)."""

    __slots__ = ()


def wedge(a: ComponentField, b: ComponentField) -> ComponentField:
    """Exterior product of two fields of the same kind."""
    if type(a) is not type(b):
        raise InputError("wedge factors must be of the same kind")
    if a.dim != b.dim:
        raise InputError("dimension mismatch")
    pairs: dict[Index, list] = {}
    for ka, pa in a.components.items():
        for kb, pb in b.components.items():
            if set(ka) & set(kb):
                continue
            crossings = sum(1 for i in ka for j in kb if i > j)
            pairs.setdefault(tuple(sorted(ka + kb)), []).append(
                (-1 if crossings & 1 else 1, pa, pb))
    ring = a.ring()
    return type(a)(a.dim, a.degree + b.degree,
                   {key: _mac(ring, terms) for key, terms in pairs.items()})


# symbol map -------------------------------------------------------------------

def symbol(psi: Multivector, basepoint: Sequence[ScalarLike],
           hbar_order: int = DEFAULT_HBAR_ORDER) -> GradedPoly:
    """Superspace symbol: sum of psi^I(x0 + xi) eta_I over ascending I."""
    d = psi.dim
    space = super_space(d, hbar_order)
    pairs = []
    for key, comp in psi.components.items():
        eta_key = [0] * len(space)
        for i in key:
            eta_key[d + i - 1] = 1
        pairs.append((1, taylor_shift(comp, basepoint, hbar_order),
                      GradedPoly(space, {tuple(eta_key): 1})))
    return _mac(space, pairs)


def unsymbol(F: GradedPoly, dim: int) -> Multivector:
    """Inverse of symbol at basepoint zero.

    Splits each monomial into its eta part (the index set) and xi part (the
    coefficient polynomial, read back as a polynomial in x).  The input must
    be hbar-free and have a single eta degree.
    """
    space = super_space(dim, F.space.hbar_order or DEFAULT_HBAR_ORDER)
    if F.space != space:
        raise InputError("unsymbol expects a polynomial in the standard superspace")
    ring = coeff_space(dim)
    comps: dict[Index, dict[tuple[int, ...], Scalar]] = {}
    degrees = set()
    for key, c in F.terms.items():
        if key[2 * dim] != 0:
            raise InternalError("unsymbol input unexpectedly involves hbar")
        xi_part = key[:dim]
        eta_part = key[dim:2 * dim]
        index = tuple(i + 1 for i, e in enumerate(eta_part) if e)
        degrees.add(len(index))
        comps.setdefault(index, {})[xi_part] = c
    if len(degrees) > 1:
        raise InternalError("unsymbol input mixes eta degrees")
    degree = degrees.pop() if degrees else 0
    return Multivector(dim, degree,
                       {k: GradedPoly(ring, t) for k, t in comps.items()})


# brackets ---------------------------------------------------------------------

def _superspace_pairs(space: GradedSpace) -> tuple[tuple[str, str], ...]:
    pairs = []
    i = 1
    while f"xi{i}" in space._index:
        if f"eta{i}" not in space._index:
            raise InputError("space does not pair xi with eta generators")
        pairs.append((f"xi{i}", f"eta{i}"))
        i += 1
    if not pairs:
        raise InputError("space has no xi/eta generator pairs")
    return tuple(pairs)


def antibracket(F: GradedPoly, G: GradedPoly) -> GradedPoly:
    """Odd superspace bracket pairing each xi_i with eta_i.

    Normalization: antibracket(xi1, eta1) = 1 and antibracket(eta1, xi1) = -1.
    """
    if F.space != G.space:
        raise InputError("antibracket operands live in different spaces")
    return pairing_bracket(F, G, _superspace_pairs(F.space))


def schouten(a: Multivector, b: Multivector) -> Multivector:
    """Bracket of multivector fields via the superspace route.

    Defined as unsymbol(antibracket(symbol(a, 0), symbol(b, 0))).  Degree is
    a.degree + b.degree - 1.  Satisfies graded antisymmetry, the graded
    Leibniz rule, and graded Jacobi for the shifted degrees; on a pair of
    vector fields it is the negative of the Lie bracket.
    """
    if a.dim != b.dim:
        raise InputError("multivector dimension mismatch")
    zero = [0] * a.dim
    H = antibracket(symbol(a, zero), symbol(b, zero))
    result = unsymbol(H, a.dim)
    expected = a.degree + b.degree - 1
    if result.is_zero():
        return Multivector.zero(a.dim, max(expected, 0))
    if result.degree != expected:
        raise InternalError("bracket degree bookkeeping failed")
    return result


def poisson_bracket(alpha: Multivector, f: GradedPoly, g: GradedPoly) -> GradedPoly:
    """{f, g} determined by the bivector alpha on plain polynomials."""
    _require_bivector(alpha)
    ring = alpha.ring()
    if f.space != ring or g.space != ring:
        raise InputError("bracket arguments must live in the coefficient ring "
                         f"of the bivector (x1..x{alpha.dim})")
    coords = {i for key in alpha.components for i in key}
    # the gradients keep the coordinates each polynomial uses, so that
    # _pairing skips every product with a zero derivative
    u, v = ({i: p.deriv_left(f"x{i}") for i in coords
             if any(key[i - 1] for key in p.terms)} for p in (f, g))
    return _pairing(alpha, u, v)


def _pairing(alpha: Multivector, u: Mapping[int, GradedPoly],
             v: Mapping[int, GradedPoly]) -> GradedPoly:
    """sum over components a^{ij} (u_i v_j - u_j v_i); u and v map
    coordinates to polynomials (gradients, one-form components), else zero.
    A product with a missing entry is skipped, and so is a component with
    none left."""
    ring = alpha.ring()
    terms = []
    for (i, j), a in alpha.components.items():
        skew = [(s, u[p], v[q]) for s, p, q in ((1, i, j), (-1, j, i))
                if p in u and q in v]
        if skew:
            terms.append((1, a, _mac(ring, skew)))
    return _mac(ring, terms)


def _require_bivector(alpha: Multivector) -> None:
    if not isinstance(alpha, Multivector) or alpha.degree != 2:
        raise InputError("expected a bivector (degree 2 multivector)")


def jacobi_defect(alpha: Multivector, i: int, j: int, k: int) -> GradedPoly:
    """{{x_i,x_j},x_k} + {{x_j,x_k},x_i} + {{x_k,x_i},x_j}; {x_a,x_b}=A^ab."""
    _require_bivector(alpha)
    ring = alpha.ring()
    x = {t: GradedPoly.generator(ring, f"x{t}") for t in (i, j, k)}
    out = GradedPoly.zero(ring)
    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
        out = out + poisson_bracket(alpha, alpha.component(a, b), x[c])
    return out


def jacobi_witness(alpha: Multivector) -> Optional[tuple[tuple[int, int, int], GradedPoly]]:
    """First coordinate triple (ascending) whose Jacobi defect is nonzero."""
    _require_bivector(alpha)
    for i, j, k in combinations(range(1, alpha.dim + 1), 3):
        defect = jacobi_defect(alpha, i, j, k)
        if not defect.is_zero():
            return (i, j, k), defect
    return None


def is_poisson(alpha: Multivector) -> bool:
    """Whether the bivector's bracket satisfies the Jacobi identity."""
    return jacobi_witness(alpha) is None


def poisson_differential(alpha: Multivector, F: GradedPoly,
                         basepoint: Sequence[ScalarLike]) -> GradedPoly:
    """delta(F) = antibracket(symbol(alpha, x0), F) on the superspace.

    Squares to zero for every F exactly when alpha is Poisson.  On the
    generators: delta(xi^k) inserts the bivector row A^{k.}(x0+xi) eta,
    delta(eta_k) inserts the derivative coefficient (1/2) d_k A^{ij} eta_i eta_j.
    """
    _require_bivector(alpha)
    order = F.space.hbar_order
    if order is None:
        raise InputError("poisson_differential expects a superspace polynomial")
    S = symbol(alpha, basepoint, order)
    if F.space != S.space:
        raise InputError("polynomial does not live in the superspace of the bivector")
    return antibracket(S, F)
