"""The operator form of the product against the labelled enumerator it replaced.

tests/reference_engine.py walks every labelled wiring of the insertions; the
library sums over insertion multisets and lets Leibniz collect the legs that
land on insertions.  The raw, unweighted sums E_n must agree exactly.
"""

import random

import pytest

from starprod import coeff_space, fixture
from starprod.wick import _apply, _operator
from reference_engine import _engine_terms
from support import random_multivector, random_poly

BUDGET = 10 ** 7


def raw_sums(alpha, f, g, order):
    return _apply(_operator(alpha, f, g, order, BUDGET), f, g)


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
