"""The operator form of the product against the engines it replaced.

tests/reference_engine.py walks every labelled wiring of the insertions; the
library sums over insertion multisets and lets Leibniz collect the legs that
land on insertions.  The raw, unweighted sums E_n must agree exactly.

It also keeps the per-pair composition of series products: one operator for
each pair of coefficients (u_k, v_l).  The library builds one operator for
all pairs; star_series, associator_poly and associator must agree exactly.

And it keeps the landing table built afresh on every call, which the
library now filters out of one box per leg vector.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (associator, associator_poly, coeff_space, fixture,
                      parse_poly, star_series, wick)
from starprod.scalars import ONE, Scalar
from starprod.superalg import GradedPoly
from starprod.wick import _apply, _landings, _operator, _Rooms
from reference_engine import (_associator, _engine_terms, _series_product,
                              _landings as reference_landings)
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
    room = _Rooms([GradedPoly(coeff_space(len(legs)),
                              dict.fromkeys(support, 1))])
    got = _landings(legs, room, sign)
    assert [entry[:3] for entry in got] == reference_landings(legs, room,
                                                              sign)
    assert all(a[2] >= b[2] for a, b in zip(got, got[1:]))
    assert all(rest == tuple(k - s for k, s in zip(legs, sub))
               for sub, _, _, rest in got)
