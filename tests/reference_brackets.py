"""Independent reference implementations of the multivector bracket and
the anchor of a one-form.

This deliberately avoids the library's odd-coordinate machinery: it
evaluates the classical component formula directly, with explicit
antisymmetrization over output indices and factorial normalization.
The library normalizes its bracket to the negative of the vector-field
convention, so the final result is negated to match.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from starprod import DifferentialForm, GradedPoly, Multivector, coeff_space


def _perm_sign(seq):
    """Sign of the permutation taking sorted(seq) to seq."""
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def _half_bracket(a, b, key, ring):
    """Sum over splits: a^{sigma[:p-1], l} d_l b^{sigma[p-1:]}."""
    p = a.degree
    if p == 0:
        return GradedPoly.zero(ring)
    dim = a.dim
    total = GradedPoly.zero(ring)
    for sigma in permutations(key):
        sign = _perm_sign(sigma)
        left, right = sigma[:p - 1], sigma[p - 1:]
        for l in range(1, dim + 1):
            ca = a.component(*(left + (l,)))
            if ca.is_zero():
                continue
            cb = b.component(*right)
            if cb.is_zero():
                continue
            term = ca * cb.deriv_left(f"x{l}")
            if sign < 0:
                term = -term
            total = total + term
    scale = Fraction(1, factorial(p - 1) * factorial(b.degree))
    return total * scale


def schouten_direct(a, b):
    """Textbook component-formula bracket, negated.

    [a,b]^K = A(K) [ a^{K_1..K_{p-1} l} d_l b^{K_p..} ] resolved with
    factorial weights, minus the mirrored term with the usual
    (-1)^{(p-1)(q-1)} crossing sign, then globally negated to match the
    library's sign convention.
    """
    p, q = a.degree, b.degree
    dim = a.dim
    if dim != b.dim:
        raise ValueError("dimension mismatch")
    out_degree = max(p + q - 1, 0)
    if p == 0 and q == 0:
        return Multivector.zero(dim, 0)
    ring = coeff_space(dim)
    comps = {}
    crossing = -1 if ((p - 1) * (q - 1)) % 2 else 1
    for key in combinations(range(1, dim + 1), out_degree):
        value = _half_bracket(a, b, key, ring)
        mirrored = _half_bracket(b, a, key, ring)
        if crossing > 0:
            value = value - mirrored
        else:
            value = value + mirrored
        if not value.is_zero():
            comps[key] = value
    result = Multivector(dim, out_degree, comps)
    return -result


def anchor(alpha, w):
    """X^j = sum_i w_i A^{ij}: the component loop koszul.anchor ran before it
    became the insertion of w into alpha."""
    if not isinstance(alpha, Multivector) or alpha.degree != 2 \
            or not isinstance(w, DifferentialForm) or w.degree != 1:
        raise ValueError("anchor takes a bivector and a one-form")
    ring = alpha.ring()
    comps = {}
    for (i, j), a in alpha.components.items():
        wi = w.components.get((i,))
        wj = w.components.get((j,))
        if wi is not None:
            comps[(j,)] = comps.get((j,), GradedPoly.zero(ring)) + wi * a
        if wj is not None:
            comps[(i,)] = comps.get((i,), GradedPoly.zero(ring)) - wj * a
    return Multivector(alpha.dim, 1, comps)
