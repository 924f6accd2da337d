"""Laws that tie the layers together: the Jacobiator in the associator, and
the Schouten square in the Koszul bracket's anchor.

Law A: with Alt the signed sum over the six orders of (f, g, h) and A_s
the hbar^s coefficient of associator_poly, Alt A_1 = 0 and Alt A_2 = -J,
J(f, g, h) = {{f, g}, h} + {{g, h}, f} + {{h, f}, g}, for every bivector,
Poisson or not (the order-2 weight (i/2)^2 times 4 is -1).  It ties the
associator's tri-cells to poisson_bracket and jacobi_defect.

Law B: with pi# the anchor and [X, Y]^k = X^i d_i Y^k - Y^i d_i X^k,
pi#[w1, w2] - [pi# w1, pi# w2] = 1/2 i_{w2} i_{w1} schouten(pi, pi), so
the anchor is a morphism exactly when pi is Poisson.  It ties
koszul_bracket to schouten, whose sign on vector fields is pinned beside
it, on the anchors: schouten(X, Y) = -[X, Y].
"""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    GradedPoly,
    Multivector,
    Scalar,
    anchor,
    associator_poly,
    coeff_space,
    fixture,
    jacobi_defect,
    jacobi_witness,
    koszul_bracket,
    one_form_insertion,
    poisson_bracket,
    schouten,
)
from support import random_one_form, random_poly


@st.composite
def gaussian_bivectors(draw):
    """dim-3 bivectors of components with one or two terms of degree at
    most 2, each coefficient with a real and an imaginary part drawn."""
    ring = coeff_space(3)
    parts = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    comps = {}
    for key in combinations(range(1, 4), 2):
        comp = GradedPoly.zero(ring)
        for _ in range(draw(st.integers(1, 2))):
            term = GradedPoly.constant(ring, Scalar(draw(parts), draw(parts)))
            for i in draw(st.lists(st.integers(1, 3), max_size=2)):
                term = term * GradedPoly.generator(ring, f"x{i}")
            comp = comp + term
        comps[key] = comp
    return Multivector(3, 2, comps)


def _sign(perm):
    return (-1) ** sum(a > b for a, b in combinations(perm, 2))


def _alternated_associator(alpha, factors):
    """[Alt A_0, Alt A_1, Alt A_2] of associator_poly at order 2."""
    out = [GradedPoly.zero(alpha.ring())] * 3
    for perm in permutations(range(3)):
        coeffs = associator_poly(alpha, *(factors[i] for i in perm), order=2)
        out = [acc + coeffs[s] if _sign(perm) > 0 else acc - coeffs[s]
               for s, acc in enumerate(out)]
    return out


def _jacobiator(alpha, f, g, h):
    def bracket(a, b):
        return poisson_bracket(alpha, a, b)
    return (bracket(bracket(f, g), h) + bracket(bracket(g, h), f)
            + bracket(bracket(h, f), g))


def _assert_law_a(alpha, rng, triples):
    ring = alpha.ring()
    for _ in range(triples):
        factors = [random_poly(rng, ring, max_degree=2, max_terms=2)
                   for _ in range(3)]
        _, alt1, alt2 = _alternated_associator(alpha, factors)
        assert alt1.is_zero()
        assert alt2 == -_jacobiator(alpha, *factors)


@pytest.mark.parametrize("name", ["so3", "nonpoisson4d"])
def test_alternated_associator_is_minus_the_jacobiator_on_fixtures(name):
    _assert_law_a(fixture(name), random.Random(name), 4)


@given(alpha=gaussian_bivectors(), seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_alternated_associator_is_minus_the_jacobiator(alpha, seed):
    _assert_law_a(alpha, random.Random(seed), 2)


@pytest.mark.parametrize("name", ["so3", "nonpoisson4d"])
def test_alternated_associator_of_coordinates_is_the_jacobi_defect(name):
    """Alt A_2(x_i, x_j, x_k) = -jacobi_defect(alpha, i, j, k) over the
    triples jacobi_witness visits, up to the first with a defect."""
    alpha = fixture(name)
    ring = alpha.ring()
    triples = list(combinations(range(1, alpha.dim + 1), 3))
    witness = jacobi_witness(alpha)
    if witness is not None:
        triples = triples[:triples.index(witness[0]) + 1]
    for triple in triples:
        xs = [GradedPoly.generator(ring, f"x{i}") for i in triple]
        alt2 = _alternated_associator(alpha, xs)[2]
        assert alt2 == -jacobi_defect(alpha, *triple)
    if witness is not None:
        assert alt2 == -witness[1] != 0


def _lie(x, y):
    """[X, Y]^k = X^i d_i Y^k - Y^i d_i X^k of two vector fields."""
    comps = {}
    for k in range(1, x.dim + 1):
        comp = GradedPoly.zero(x.ring())
        for i in range(1, x.dim + 1):
            comp = comp + x.component(i) * y.component(k).deriv_left(f"x{i}")
            comp = comp - y.component(i) * x.component(k).deriv_left(f"x{i}")
        comps[k,] = comp
    return Multivector(x.dim, 1, comps)


def _assert_law_b(alpha, rng, pairs):
    ring, square = alpha.ring(), schouten(alpha, alpha)
    for _ in range(pairs):
        w1, w2 = (random_one_form(rng, alpha.dim, ring) for _ in range(2))
        x1, x2 = anchor(alpha, w1), anchor(alpha, w2)
        defect = anchor(alpha, koszul_bracket(alpha, w1, w2)) - _lie(x1, x2)
        assert defect == one_form_insertion(
            w2, one_form_insertion(w1, square)) * Fraction(1, 2)
        assert schouten(x1, x2) == -_lie(x1, x2)


@pytest.mark.parametrize("name", ["so3", "nonpoisson4d"])
def test_anchor_defect_is_half_the_schouten_square_on_fixtures(name):
    _assert_law_b(fixture(name), random.Random(name), 4)


@given(alpha=gaussian_bivectors(), seed=st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_anchor_defect_is_half_the_schouten_square(alpha, seed):
    _assert_law_b(alpha, random.Random(seed), 2)
