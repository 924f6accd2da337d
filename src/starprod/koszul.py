"""Bracket of one-forms induced by a bivector, by two independent routes.

The geometric route composes standard operations: a one-form w is anchored
to the vector field X_w = <w, alpha>, and

    [w1, w2] = L_{X_{w1}} w2 - L_{X_{w2}} w1 - d<alpha | w1 ^ w2>

with the Lie derivative expanded through the insertion operators
(L_X = d i_X + i_X d).  On exact forms this gives [df, dg] = d{f, g} for
ANY bivector; the Jacobi identity for the bracket itself holds exactly when
the bivector is Poisson.

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
from .poisson import ComponentField, Multivector, _require_bivector
from .superalg import GradedPoly


class DifferentialForm(ComponentField):
    """Homogeneous differential form (antisymmetric covariant tensor)."""

    __slots__ = ()


def exact_form(f: GradedPoly) -> DifferentialForm:
    """df as a one-form; f is a plain polynomial in x1..xd."""
    d = len(f.space)
    out = {}
    for i in range(1, d + 1):
        df = f.deriv_left(f"x{i}")
        if not df.is_zero():
            out[(i,)] = df
    return DifferentialForm(d, 1, out)


def exterior_derivative(omega: DifferentialForm) -> DifferentialForm:
    """d omega; raises nothing special at top degree (the result is zero)."""
    if not isinstance(omega, DifferentialForm):
        raise InputError("exterior_derivative expects a differential form")
    d, p = omega.dim, omega.degree
    out = {}
    for key in combinations(range(1, d + 1), p + 1):
        total = GradedPoly.zero(omega.ring())
        for pos, idx in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            comp = omega.components.get(rest)
            if comp is None:
                continue
            term = comp.deriv_left(f"x{idx}")
            total = total - term if pos & 1 else total + term
        out[key] = total
    return DifferentialForm(d, p + 1, {k: v for k, v in out.items()
                                       if not v.is_zero()})


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
    ring = multi.ring()
    out: dict[tuple[int, ...], GradedPoly] = {}
    for key, comp in multi.components.items():
        for t, idx in enumerate(key):
            weight = single.components.get((idx,))
            if weight is None:
                continue
            rest = key[:t] + key[t + 1:]
            term = weight * comp
            if t & 1:
                term = -term
            out[rest] = out.get(rest, GradedPoly.zero(ring)) + term
    return out


def lie_derivative(X: Multivector, omega: DifferentialForm) -> DifferentialForm:
    """L_X omega = i_X(d omega) + d(i_X omega)."""
    first = vector_insertion(X, exterior_derivative(omega))
    if omega.degree == 0:
        # the insertion term is identically zero and would land one
        # degree up, so it cannot be added to the transport term
        return first
    return first + exterior_derivative(vector_insertion(X, omega))


def anchor(alpha: Multivector, w: DifferentialForm) -> Multivector:
    """The vector field X_w with components X^j = sum_i w_i A^{ij}."""
    _check_bracket_args(alpha, w, w)
    ring = alpha.ring()
    out: dict[tuple[int, ...], GradedPoly] = {}
    for (i, j), a in alpha.components.items():
        wi = w.components.get((i,))
        wj = w.components.get((j,))
        if wi is not None:
            out[(j,)] = out.get((j,), GradedPoly.zero(ring)) + wi * a
        if wj is not None:
            out[(i,)] = out.get((i,), GradedPoly.zero(ring)) - wj * a
    return Multivector(alpha.dim, 1, out)


def _bivector_pairing(alpha: Multivector, w1: DifferentialForm,
                      w2: DifferentialForm) -> GradedPoly:
    # <alpha | w1 ^ w2> = sum over components a^{ij} (w1_i w2_j - w1_j w2_i)
    ring = alpha.ring()
    zero = GradedPoly.zero(ring)
    total = zero
    for (i, j), a in alpha.components.items():
        w1i = w1.components.get((i,), zero)
        w1j = w1.components.get((j,), zero)
        w2i = w2.components.get((i,), zero)
        w2j = w2.components.get((j,), zero)
        total = total + a * (w1i * w2j - w1j * w2i)
    return total


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
        pairing = DifferentialForm(alpha.dim, 0,
                                   {(): _bivector_pairing(alpha, w1, w2)})
        return lie_derivative(anchor(alpha, w1), w2) \
            - lie_derivative(anchor(alpha, w2), w1) \
            - exterior_derivative(pairing)
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

    # each stored component A^{ij} in both orientations, A^{ji} = -A^{ij}
    oriented = []
    for (i, j), a in alpha.components.items():
        oriented += [(i, j, a), (j, i, -a)]
    transport_second: dict = {}
    transport_first: dict = {}
    vertex_derivative: dict = {}
    t_of = {}
    for target, w in (("first", w1), ("second", w2)):
        total = zero
        for i, j, a in oriented:
            total = total + a.deriv_left(f"x{i}") * comp(w, j)
        t_of[target] = total
    for k in range(1, d + 1):
        acc_ts = acc_tf = acc_vd = zero
        for i, j, a in oriented:
            acc_ts = acc_ts + a * comp(w1, i) * comp(w2, k).deriv_left(f"x{j}")
            acc_tf = acc_tf + a * comp(w1, k).deriv_left(f"x{i}") * comp(w2, j)
            acc_vd = acc_vd + a.deriv_left(f"x{k}") * comp(w1, i) * comp(w2, j)
        transport_second[(k,)] = acc_ts
        transport_first[(k,)] = acc_tf
        vertex_derivative[(k,)] = acc_vd
    tadpole_second = {(k,): t_of["second"] * comp(w1, k) for k in range(1, d + 1)}
    tadpole_first = {(k,): t_of["first"] * comp(w2, k) for k in range(1, d + 1)}

    def form(components: dict) -> DifferentialForm:
        return DifferentialForm(d, 1, {k: v for k, v in components.items()
                                       if not v.is_zero()})

    return [
        ("transport-of-second", form(transport_second)),
        ("transport-of-first", form(transport_first)),
        ("vertex-derivative", form(vertex_derivative)),
        ("tadpole-on-second", form(tadpole_second)),
        ("tadpole-on-first", form(tadpole_first)),
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
    total = DifferentialForm.zero(alpha.dim, 1)
    for _, contribution in bullet_diagrams(alpha, w1, w2):
        total = total + contribution
    return total
