"""The operator form of the product against the engines it replaced.

tests/reference_engine.py walks every labelled wiring of the insertions; the
library sums over insertion multisets and lets Leibniz collect the legs that
land on insertions.  The raw, unweighted sums E_n must agree exactly.

It also keeps the per-pair composition of series products: one operator for
each pair of coefficients (u_k, v_l).  The library builds one operator for
all pairs; star_series, associator_poly and associator must agree exactly.

And it keeps the landing table built afresh on every call, which the
library now filters out of one box per leg vector, and the application of
an operator in reduced Scalars and GradedPoly products, which the library
now contracts in Gaussian-integer numerators: both must give the same
numbers and refuse the same products.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (Multivector, ResourceLimitError, associator,
                      associator_poly, coeff_space, fixture, parse_poly,
                      star_poly, star_series, wick)
from starprod.scalars import ONE, Scalar
from starprod.superalg import MAX_POWER_TERMS, GradedPoly, _Point
from starprod.wick import (_Admits, _apply, _box, _landings,
                           _moyal_operator, _operator)
from reference_engine import (_associator, _engine_terms, _Rooms,
                              _series_product,
                              _landings as reference_landings, apply)
from support import random_basepoint, random_multivector, random_poly

BUDGET = 10 ** 7


def raw_sums(alpha, f, g, order):
    # with w = 1, order n carries 1/n!
    op = _operator(alpha, {0: f}, {0: g}, order, BUDGET)
    return [term * math.factorial(n)
            for n, term in enumerate(_apply(op, w=ONE))]


def reference_sums(alpha, f, g, order):
    sums = _engine_terms(alpha, f, g, order, BUDGET)
    return [sums[n] for n in range(order + 1)]


def test_random_bivectors_through_order_3():
    rng = random.Random(5)
    for _ in range(40):
        dim = rng.randint(2, 3)
        ring = coeff_space(dim)
        alpha = random_multivector(rng, dim, 2, ring, max_coeff_degree=2)
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        assert raw_sums(alpha, f, g, 3) == reference_sums(alpha, f, g, 3)


@pytest.mark.parametrize("name", ["so3", "nonpoisson4d", "canonical2d"])
def test_fixtures_at_order_4(name):
    rng = random.Random(name)
    alpha = fixture(name)
    ring = alpha.ring()
    for _ in range(3):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        assert raw_sums(alpha, f, g, 4) == reference_sums(alpha, f, g, 4)


def assert_series_products_match(rng, alpha, order):
    ring = alpha.ring()
    u = {k: random_poly(rng, ring, max_degree=2, max_terms=3)
         for k in rng.sample(range(order + 2), 2)}
    v = {0: random_poly(rng, ring, max_degree=2, max_terms=3),
         rng.randint(1, 2): random_poly(rng, ring, max_degree=2, max_terms=3)}
    assert star_series(alpha, u, v, order=order) == \
        dict(enumerate(_series_product(alpha, u, v, order)))
    f, g, h = (random_poly(rng, ring, max_degree=2, max_terms=2)
               for _ in range(3))
    assert associator_poly(alpha, f, g, h, order=order) == \
        dict(enumerate(_associator(alpha, f, g, h, order)))
    point = random_basepoint(rng, alpha.dim)
    assert associator(alpha, f, g, h, point, order=order).coefficients == \
        tuple(_associator(alpha, f, g, h, order,
                          point=[Scalar.of(x) for x in point]))


@pytest.mark.parametrize("name", ["so3", "nonpoisson4d", "canonical2d"])
def test_series_products_match_the_per_pair_composition(name):
    rng = random.Random(name)
    for order in range(5):
        assert_series_products_match(rng, fixture(name), order)


def test_series_products_match_on_random_bivectors():
    rng = random.Random(8)
    for _ in range(6):
        dim = rng.randint(2, 3)
        alpha = random_multivector(rng, dim, 2, coeff_space(dim),
                                   max_coeff_degree=2)
        for order in range(4):
            assert_series_products_match(rng, alpha, order)


def test_an_associator_builds_four_operators(monkeypatch):
    built = []

    def counted(*args):
        built.append(args[3])
        return operator_of(*args)

    operator_of = wick._operator
    wick._default_calibration()  # its probe products are built once, first
    monkeypatch.setattr(wick, "_operator", counted)
    ring = coeff_space(3)
    f, g, h = (parse_poly(p, ring)
               for p in ("x1^2*x2 + x3", "x2*x3^2 + x1", "x1*x3 + x2"))
    associator(fixture("so3"), f, g, h, [1, 2, 3], order=3)
    # f * g and g * h, then (f * g) * h and f * (g * h)
    assert built == [3, 3, 3, 3]


@st.composite
def landing_cases(draw):
    """A leg vector of dimension 1-5 with at most 6 legs, the support of a
    factor and the sign a leg pays for landing on an insertion."""
    dim = draw(st.integers(min_value=1, max_value=5))
    legs = [0] * dim
    for d in draw(st.lists(st.integers(min_value=0, max_value=dim - 1),
                           max_size=6)):
        legs[d] += 1
    support = draw(st.lists(st.tuples(*[st.integers(min_value=0, max_value=3)]
                                      * dim), max_size=4))
    return tuple(legs), support, draw(st.sampled_from([1, -1]))


@given(case=landing_cases())
@settings(max_examples=200, deadline=None)
def test_landings_match_the_per_call_loop(case):
    legs, support, sign = case
    factor = GradedPoly(coeff_space(len(legs)), dict.fromkeys(support, 1))
    # the library keeps the D that a monomial dominates, the reference
    # those with room left
    admits = _Admits([factor])
    got = _landings(legs, {D for D, *_ in _box(legs, sign) if admits[D]},
                    sign)
    assert [entry[:3] for entry in got] == reference_landings(
        legs, _Rooms([factor]), sign)
    assert all(a[2] >= b[2] for a, b in zip(got, got[1:]))
    assert all(rest == tuple(k - s for k, s in zip(legs, sub))
               for sub, _, _, rest in got)


def over(q):
    """Nonzero Gaussian rationals over the denominator q."""
    parts = st.integers(-4, 4)
    return st.builds(lambda a, b: Scalar(Fraction(a, q), Fraction(b, q)),
                     parts.filter(bool), parts)


def polys(ring, degree, size, q):
    keys = st.tuples(*[st.integers(0, degree)] * len(ring))
    return st.dictionaries(keys, over(q), min_size=1, max_size=size).map(
        lambda terms: GradedPoly(ring, terms))


@st.composite
def applications(draw):
    """An operator for two series, an order and a basepoint: the insertion
    operator of a dim-2 or dim-3 bivector with Gaussian coefficients, or
    the exponential formula's operator of a constant one.  Each component,
    each series coefficient and each coordinate has its own denominator,
    so every sum the kernel forms is over an lcm of unequal ones."""
    dim = draw(st.sampled_from([2, 3]))
    ring = coeff_space(dim)
    constant = draw(st.booleans())
    keys = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    comps = {key: draw(polys(ring, 0 if constant else 1, 2, q))
             for key, q in zip(keys, (2, 3, 5))
             if key == (1, 2) or draw(st.booleans())}
    powers = st.lists(st.sampled_from(range(4)), min_size=1, max_size=3,
                      unique=True)
    u, v = ({k: draw(polys(ring, 2, 3, q + k)) for k in draw(powers)}
            for q in (1, 4))
    build = _moyal_operator if constant else _operator
    op = build(Multivector(dim, 2, comps), u, v, draw(st.integers(0, 3)),
               BUDGET)
    point = [Scalar(Fraction(draw(st.integers(-5, 5)), q),
                    Fraction(draw(st.integers(-3, 3)), q + 1))
             for q in draw(st.permutations([1, 2, 3, 5]))[:dim]]
    return op, point


@given(case=applications())
@settings(max_examples=50, deadline=None)
def test_applications_match_the_scalar_loop(case):
    """Symbolic and at a point, with the calibrated weight and with w = 1,
    the numerator kernel gives exactly what the Scalar loop gives."""
    op, point = case
    for w in (None, ONE):
        assert _apply(op, w=w) == apply(op, w=w)
        assert _apply(op, _Point(point), w) == apply(op, point, w)


def test_a_capped_product_is_refused_as_the_scalar_loop_refuses_it():
    """At order 0, d_I u * d_J v is f * g itself: 80 x 80 terms, of degrees
    4 and 5 in 8 generators, so the bound is min(6400, C(17, 8)) = 6400 terms,
    and the library and the Scalar loop refuse it with the same message."""
    ring = coeff_space(8)
    rng = random.Random(8)
    monomials = sorted({tuple(rng.randint(0, 1) for _ in range(8))
                        for _ in range(400)}, key=sum)
    f, g = (GradedPoly(ring, {key: rng.randint(1, 9) for key in part})
            for part in (monomials[:80], monomials[80:160]))
    assert len(f.terms) * len(g.terms) > MAX_POWER_TERMS
    alpha = Multivector(8, 2, {(1, 2): GradedPoly.one(ring)})
    with pytest.raises(ResourceLimitError) as ours:
        star_poly(alpha, f, g, order=0)
    with pytest.raises(ResourceLimitError) as theirs:
        apply(_operator(alpha, {0: f}, {0: g}, 0, BUDGET))
    assert str(ours.value) == str(theirs.value) == \
        "a product with up to 6400 terms exceeds the cap of 5000 terms"
