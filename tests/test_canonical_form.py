"""Every polynomial result is in the one canonical stored form.

A GradedPoly stores Gaussian-integer numerator rows over one positive
denominator, with no (0, 0) row and gcd(den, every part) = 1, so that `==`
can compare den and rows directly.  Each operation that builds a result
from rows is drawn here: its result must be canonical, its `terms` view
must equal the coefficient-wise `Scalar` loop of `reference_polys`, and
two routes to one polynomial must compare equal.  Denominators come from a
small set, so sums cancel and numerators share factors with den often.
"""

import math
from fractions import Fraction
from itertools import chain

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_polys
from starprod import GradedPoly, Scalar, coeff_space, super_space, unsymbol

SPACES = [super_space(2), super_space(3, 2)]

rationals = st.builds(Fraction, st.integers(min_value=-12, max_value=12),
                      st.sampled_from([1, 2, 3, 4, 6, 12]))
scalars = st.one_of(st.builds(Scalar, rationals),
                    st.builds(Scalar, rationals, rationals))


def keys(space):
    """Exponent tuples: odd generators 0 or 1, hbar up to the order."""
    return st.tuples(*[st.integers(0, 1 if parity else (
        space.hbar_order if name == "hbar" else 2))
        for name, parity in zip(space.names, space.parities)])


def polys(space, max_terms=4):
    return st.dictionaries(keys(space), scalars, max_size=max_terms).map(
        lambda terms: GradedPoly(space, terms))


def assert_canonical(p: GradedPoly) -> None:
    assert type(p.den) is int and p.den > 0
    assert all(type(x) is int for x in chain.from_iterable(p.rows.values()))
    assert (0, 0) not in p.rows.values()
    assert math.gcd(p.den, *chain.from_iterable(p.rows.values())) == 1


def check(got: GradedPoly, want: GradedPoly) -> None:
    """got is canonical, its terms view is want's loop output, and ==."""
    assert_canonical(got)
    assert dict(got.terms) == dict(want.terms)
    assert got == want


@given(data=st.sampled_from(SPACES).flatmap(lambda s: st.tuples(
    polys(s), polys(s), polys(s), scalars, st.integers(0, 3))))
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_are_canonical(data):
    a, b, c, z, n = data
    check(a + b, reference_polys.plus(a, b))
    check(a - b, reference_polys.plus(a, b, -1))
    check(a - a, GradedPoly.zero(a.space))
    check(-a, reference_polys.scaled(a, -1))
    check(a * z, reference_polys.scaled(a, z))
    check(z * a, reference_polys.scaled(a, z))
    check(a * 6, reference_polys.scaled(a, 6))
    check(a * Fraction(2, 3), reference_polys.scaled(a, Fraction(2, 3)))
    check(a * b, reference_polys.times(a, b))
    check(a ** n, reference_polys.power(a, n))
    # two routes to one polynomial compare equal
    assert (a + b) * c == a * c + b * c
    assert (a - b) * c == a * c - b * c
    assert a * z + b * z == (a + b) * z
    assert a * 2 - a == a
    assert a ** 2 == a * a


def test_one_term_powers_are_canonical():
    # a one-term base is raised without the product kernel: (1 + i)^2 = 2i
    # shares a factor 2 with the squared denominator, which is divided out;
    # an odd generator or hbar past the order makes a power past 1 zero
    space = super_space(2)
    coefficients = (Scalar(Fraction(1, 2), Fraction(1, 2)),
                    Scalar(Fraction(3, 2), Fraction(-3, 2)),
                    Scalar(Fraction(-5, 4)), Scalar(0, Fraction(1, 6)))
    for c in coefficients:
        for key in ((0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, 2, 0, 0, 1),
                    (1, 0, 1, 0, 0)):
            a = GradedPoly(space, {key: c})
            for n in range(5):
                check(a ** n, reference_polys.power(a, n))


@given(data=st.sampled_from(SPACES).flatmap(lambda s: st.tuples(
    polys(s, max_terms=6), st.integers(0, 3))))
@settings(max_examples=40, deadline=None)
def test_derivatives_and_hbar_views_are_canonical(data):
    p, k = data
    for name in p.space.names:
        check(p.deriv_left(name), reference_polys.deriv_left(p, name))
        check(p.deriv_right(name), reference_polys.deriv_right(p, name))
    check(p.hbar_coefficient(k), reference_polys.hbar_coefficient(p, k))


def even(p: GradedPoly) -> GradedPoly:
    """The terms of p with an even number of odd generators."""
    odd = p.space.odd_indices
    return GradedPoly(p.space, {key: c for key, c in p.terms.items()
                                if not sum(key[i] for i in odd) & 1})


@given(source=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              scalars, max_size=4),
       images=st.tuples(polys(SPACES[0], max_terms=3),
                        polys(SPACES[0], max_terms=3)))
@settings(max_examples=40, deadline=None)
def test_ring_maps_are_canonical(source, images):
    p = GradedPoly(coeff_space(2), source)
    target = SPACES[0]
    images = {"x1": even(images[0]), "x2": even(images[1])}
    got = p.map_into(target, images)
    check(got, reference_polys.map_into(p, target, images))
    # linear in the source: the map of a sum is the sum of the maps
    assert (p + p).map_into(target, images) == got * 2


@given(terms=st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             scalars, max_size=5),
       eta=st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]))
@settings(max_examples=40, deadline=None)
def test_unsymbol_components_are_canonical(terms, eta):
    space = super_space(2)
    F = GradedPoly(space, {xi + eta + (0,): c for xi, c in terms.items()})
    field = unsymbol(F, 2)
    want = reference_polys.unsymbol_terms(F, 2)
    assert set(field.components) == set(want)
    for index, comp in field.components.items():
        assert_canonical(comp)
        assert dict(comp.terms) == want[index]
