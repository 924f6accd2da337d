"""Bracket of one-forms induced by a bivector, by two independent routes.

The geometric route composes standard operations: a one-form w is anchored
to the vector field X_w = i_w alpha, the insertion of w into the bivector
(one_form_insertion), and

    [w1, w2] = L_{X_{w1}} w2 - L_{X_{w2}} w1 - d<alpha | w1 ^ w2>
             = i_{X_{w1}} dw2 - i_{X_{w2}} dw1 + d<alpha | w1 ^ w2>

by Cartan's formula L_X = d i_X + i_X d, as i_{X_{w1}} w2 is the pairing
and i_{X_{w2}} w1 its negative, so the route takes d of the pairing once.
On exact forms this gives [df, dg] = d{f, g} for ANY bivector; the Jacobi
identity for the bracket itself holds exactly when the bivector is Poisson.

The diagram route rebuilds the same bracket from single-insertion
contraction patterns, the degree-one analogue of the order-1 product term.
One bivector insertion carries a leftward leg (index i), a rightward leg
(index j), and the free output index k.  The legs may differentiate the
coefficient functions of w1/w2 or the bivector itself, or consume a
covector slot; the output index consumes a covector slot or differentiates
the bivector.  Each covector slot must be consumed exactly once and a
rightward leg landing on the insertion contributes -1.  Exactly five
patterns survive (bullet_diagrams lists them); their sum is bullet, and the
antisymmetrization of bullet reproduces the geometric bracket.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import InputError
from .poisson import (ComponentField, Multivector, _field_sum, _pairing,
                      _require_bivector)
from .superalg import GradedPoly, _mac, _sum


class DifferentialForm(ComponentField):
    """Homogeneous differential form (antisymmetric covariant tensor)."""

    __slots__ = ()


def exact_form(f: GradedPoly) -> DifferentialForm:
    """df as a one-form; f is a plain polynomial in x1..xd."""
    return exterior_derivative(DifferentialForm(len(f.space), 0, {(): f}))


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """d omega; raises nothing special at top degree (the result is zero)."""
    if not isinstance(omega, DifferentialForm):
        raise InputError("exterior_derivative expects a differential form")
    d, p = omega.dim, omega.degree
    out = {}
    for key in combinations(range(1, d + 1), p + 1):
        terms = []
        for pos, idx in enumerate(key):
            comp = omega.components.get(key[:pos] + key[pos + 1:])
            if comp is not None:
                term = comp.deriv_left(f"x{idx}")
                terms.append((-1 if pos & 1 else 1, term.den, term.rows))
        out[key] = _sum(omega.ring(), terms)
    return DifferentialForm(d, p + 1, out)


def vector_insertion(X: Multivector, omega: DifferentialForm) -> DifferentialForm:
    """Interior product i_X omega for a vector field X (first slot)."""
    if not isinstance(X, Multivector) or X.degree != 1:
        raise InputError("vector_insertion expects a vector field (degree 1)")
    if not isinstance(omega, DifferentialForm):
        raise InputError("vector_insertion expects a differential form")
    if X.dim != omega.dim:
        raise InputError("dimension mismatch")
    if omega.degree == 0:
        return DifferentialForm.zero(omega.dim, 0)
    return DifferentialForm(omega.dim, omega.degree - 1,
                            _first_slot_contraction(X, omega))


def one_form_insertion(w: DifferentialForm, psi: Multivector) -> Multivector:
    """Interior product i_w psi for a one-form w (first slot)."""
    if not isinstance(w, DifferentialForm) or w.degree != 1:
        raise InputError("one_form_insertion expects a one-form (degree 1)")
    if not isinstance(psi, Multivector):
        raise InputError("one_form_insertion expects a multivector")
    if w.dim != psi.dim:
        raise InputError("dimension mismatch")
    if psi.degree == 0:
        return Multivector.zero(psi.dim, 0)
    return Multivector(psi.dim, psi.degree - 1,
                       _first_slot_contraction(w, psi))


def _first_slot_contraction(single: ComponentField, multi: ComponentField) -> dict:
    # (i_s m)_{rest} = sum over positions t of (-1)^t s_{K[t]} m_K
    pairs: dict[tuple[int, ...], list] = {}
    for key, comp in multi.components.items():
        for t, idx in enumerate(key):
            weight = single.components.get((idx,))
            if weight is not None:
                pairs.setdefault(key[:t] + key[t + 1:], []).append(
                    (-1 if t & 1 else 1, weight, comp))
    ring = multi.ring()
    return {rest: _mac(ring, terms) for rest, terms in pairs.items()}


def lie_derivative(X: Multivector, omega: DifferentialForm) -> DifferentialForm:
    """L_X omega = i_X(d omega) + d(i_X omega)."""
    first = vector_insertion(X, exterior_derivative(omega))
    if omega.degree == 0:
        # the insertion term is identically zero and would land one
        # degree up, so it cannot be added to the transport term
        return first
    return first + exterior_derivative(vector_insertion(X, omega))


def anchor(alpha: Multivector, w: DifferentialForm) -> Multivector:
    """The vector field X_w = i_w alpha, X^j = sum_i w_i A^{ij}."""
    _check_bracket_args(alpha, w, w)
    return one_form_insertion(w, alpha)


def _check_bracket_args(alpha: Multivector, w1: DifferentialForm,
                        w2: DifferentialForm) -> None:
    _require_bivector(alpha)
    for w in (w1, w2):
        if not isinstance(w, DifferentialForm) or w.degree != 1:
            raise InputError("bracket arguments must be one-forms")
        if w.dim != alpha.dim:
            raise InputError("dimension mismatch")


def koszul_bracket(alpha: Multivector, w1: DifferentialForm,
                   w2: DifferentialForm, route: str = "geometric") -> DifferentialForm:
    """Bracket of one-forms.  route is "geometric" or "diagram".

    Both routes agree identically; they are kept separate so each can check
    the other.  The bracket satisfies [df, dg] = d{f, g} for every bivector
    and the Jacobi identity exactly for Poisson ones.
    """
    _check_bracket_args(alpha, w1, w2)
    if route == "geometric":
        u, v = ({i: p for (i,), p in w.components.items()} for w in (w1, w2))
        pairing = DifferentialForm(alpha.dim, 0, {(): _pairing(alpha, u, v)})
        x1, x2 = anchor(alpha, w1), anchor(alpha, w2)
        return _field_sum([(1, vector_insertion(x1, exterior_derivative(w2))),
                           (-1, vector_insertion(x2, exterior_derivative(w1))),
                           (1, exterior_derivative(pairing))])
    if route == "diagram":
        skew = bullet(alpha, w1, w2) - bullet(alpha, w2, w1)
        return skew * Fraction(1, 2)
    raise InputError(f"unknown route {route!r}; use 'geometric' or 'diagram'")


# diagram route ------------------------------------------------------------------

def bullet_diagrams(alpha: Multivector, w1: DifferentialForm,
                    w2: DifferentialForm) -> list[tuple[str, DifferentialForm]]:
    """The five single-insertion contraction patterns, labeled.

    Pattern sums, with A the full antisymmetric coefficient matrix and T.w
    the divergence contraction sum_{ij} d_i A^{ij} w_j:

      transport-of-second    A^{ij} w1_i d_j(w2_k)
      transport-of-first     A^{ij} d_i(w1_k) w2_j
      vertex-derivative      d_k(A^{ij}) w1_i w2_j
      tadpole-on-second      (T.w2) w1_k
      tadpole-on-first       (T.w1) w2_k      (rightward leg on the
                                               insertion: sign -1 absorbed)
    """
    _check_bracket_args(alpha, w1, w2)
    d = alpha.dim
    ring = alpha.ring()
    zero = GradedPoly.zero(ring)

    def comp(w: DifferentialForm, i: int) -> GradedPoly:
        return w.components.get((i,), zero)

    # each stored component A^{ij} in both orientations, A^{ji} = -A^{ij},
    # the sign carried apart from the polynomial; d_j w_k and d_k A^{ij} are
    # asked for per orientation, and each polynomial's table scans them once
    oriented = []
    for (i, j), a in alpha.components.items():
        oriented += [(1, i, j, a), (-1, j, i, a)]
    t_of = {target: _mac(ring, [(s, a.deriv_left(f"x{i}"), comp(w, j))
                                for s, i, j, a in oriented])
            for target, w in (("first", w1), ("second", w2))}
    a_w1 = [(s, j, a * comp(w1, i)) for s, i, j, a in oriented]
    transport_second = {(k,): _mac(ring, [
        (s, aw, comp(w2, k).deriv_left(f"x{j}")) for s, j, aw in a_w1])
        for k in range(1, d + 1)}
    transport_first = {(k,): _mac(ring, [
        (s, a * comp(w1, k).deriv_left(f"x{i}"), comp(w2, j))
        for s, i, j, a in oriented]) for k in range(1, d + 1)}
    vertex_derivative = {(k,): _mac(ring, [
        (s, a.deriv_left(f"x{k}") * comp(w1, i), comp(w2, j))
        for s, i, j, a in oriented]) for k in range(1, d + 1)}
    tadpole_second = {(k,): t_of["second"] * comp(w1, k) for k in range(1, d + 1)}
    tadpole_first = {(k,): t_of["first"] * comp(w2, k) for k in range(1, d + 1)}
    return [
        ("transport-of-second", DifferentialForm(d, 1, transport_second)),
        ("transport-of-first", DifferentialForm(d, 1, transport_first)),
        ("vertex-derivative", DifferentialForm(d, 1, vertex_derivative)),
        ("tadpole-on-second", DifferentialForm(d, 1, tadpole_second)),
        ("tadpole-on-first", DifferentialForm(d, 1, tadpole_first)),
    ]


def bullet(alpha: Multivector, w1: DifferentialForm,
           w2: DifferentialForm) -> DifferentialForm:
    """Sum of the single-insertion patterns, normalized to weight one.

    Each pattern carries the calibrated insertion weight (i/2) hbar; bullet
    divides that common factor back out, so the components stay plain
    polynomials.  bullet itself is not antisymmetric: the two tadpole
    patterns form a symmetric excess, removed by the antisymmetrization in
    koszul_bracket(..., route="diagram").
    """
    return _field_sum([(1, contribution)
                       for _, contribution in bullet_diagrams(alpha, w1, w2)])
