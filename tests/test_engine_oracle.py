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
numbers and refuse the same products.  The cells the library keeps must be
the polynomials a labelled walk's (M, K) counts contract to, and its
bitmask dominance test must agree with the field-by-field one.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starprod import (Multivector, ResourceLimitError, associator,
                      associator_poly, coeff_space, fixture, parse_poly,
                      star_poly, star_series, wick)
from starprod.scalars import ONE, Scalar
from starprod.superalg import MAX_POWER_TERMS, GradedPoly, _Point
from starprod.wick import (MAX_ORDER, _Admits, _apply, _box, _landings,
                           _moyal_operator, _operator)
from reference_engine import (_associator, _Dominates, _engine_terms, _Rooms,
                              _series_product, _landings as reference_landings,
                              apply, cell_counts, cell_poly, contract,
                              labelled_classes)
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


@pytest.mark.parametrize("name", ["so3", "nonpoisson4d", "random"])
def test_kept_cells_are_the_contracted_counts_of_a_labelled_walk(name):
    """After stars and an associator at each of orders 1-4, every covered
    (I, J) of the bivector's record holds, in lowest terms, the sum count *
    d_K P_M of the (M, K) counts that a walk of every labelled sequence of
    insertions finds for it, or no cell where that sum is zero.  "random"
    is two random dim-3 bivectors with three degree-2 components."""
    rng = random.Random(name)
    alphas = [] if name == "random" else [fixture(name)]
    while len(alphas) < 2 and name == "random":
        alpha = random_multivector(rng, 3, 2, coeff_space(3),
                                   max_coeff_degree=2)
        if len(alpha.components) == 3:
            alphas.append(alpha)
    wick._default_calibration()  # its probe's record is built once, first
    for alpha in alphas:
        ring = alpha.ring()
        wick._TABLE.clear()
        for order in range(1, 5):
            for _ in range(3):
                f, g = (random_poly(rng, ring, max_degree=4, max_terms=5)
                        for _ in "fg")
                star_poly(alpha, f, g, order=order)
            associator_poly(alpha, *[random_poly(rng, ring) for _ in "fgh"],
                            order=order)
        (pieces,) = wick._TABLE.values()
        assert sorted(pieces.cells) == [1, 2, 3, 4]
        kept = 0
        for n, rows in pieces.cells.items():
            classes = labelled_classes(alpha, n)
            for I, (covered, cells) in rows.items():
                for J in covered:
                    want = contract(alpha, cell_counts(alpha, classes, I, J))
                    _, cell = cells.get(J, (0, None))
                    if cell is None:
                        assert want.is_zero()
                        continue
                    kept += 1
                    assert cell == (want.den, want.rows, want.total_degree())
                    assert cell_poly(ring, cell) == want
        assert kept >= 10


@st.composite
def dominance_cases(draw):
    """A support of up to 5 monomials in 1-4 directions, some exponents
    past 2 * MAX_ORDER, split over one or two polynomials or none, and
    count vectors that reach past every exponent."""
    dim = draw(st.integers(min_value=1, max_value=4))
    exps = st.integers(min_value=0, max_value=3 * MAX_ORDER)
    support = draw(st.lists(st.tuples(*[exps] * dim), max_size=5,
                            unique=True))
    cut = draw(st.integers(min_value=0, max_value=len(support)))
    parts = [support[:cut], support[cut:]] if draw(st.booleans()) \
        else [support]
    polys = [GradedPoly(coeff_space(dim), dict.fromkeys(part, 1))
             for part in parts if part or draw(st.booleans())]
    counts = draw(st.lists(st.tuples(*[st.integers(
        min_value=0, max_value=3 * MAX_ORDER + 2)] * dim), max_size=10))
    return dim, support, polys, counts


@given(case=dominance_cases())
@example(case=(2, [], [], [(0, 0), (1, 0)]))
@example(case=(2, [(3, 0)], [GradedPoly(coeff_space(2), {(3, 0): 1})],
               [(0, 0), (3, 0), (4, 0), (0, 1)]))
@settings(max_examples=300, deadline=None)
def test_admits_agrees_with_the_field_by_field_test(case):
    """The bitmask test admits a count vector exactly when a monomial of
    the support dominates it: for an empty support (no polynomial, or zero
    ones), the zero count vector, exponents past 2 * MAX_ORDER and count
    vectors past every exponent; and it keeps at most one mask for each
    exponent that occurs in each direction."""
    dim, support, polys, counts = case
    admits, reference = _Admits(polys), _Dominates(polys)
    tops = [max(column, default=0) for column in zip(*support)] or [0] * dim
    past = [tuple(top + 1 if k == d else 0 for k, top in enumerate(tops))
            for d in range(dim)]
    for K in counts + past + [(0,) * dim, tuple(tops)]:
        assert admits[K] == reference[K], K
    assert admits[(0,) * dim] == bool(support)
    assert not any(admits[K] for K in past)
    assert all(len(exps) == len(masks) <= len(support)
               for exps, masks in admits.steps)


def test_admits_keeps_one_mask_per_exponent_that_occurs():
    """A factor of degree 10^6 in one direction keeps a mask for each of
    its two positive exponents there, not a table as long as the exponent,
    and one for the other direction's one positive exponent."""
    ring = coeff_space(2)
    admits = _Admits([GradedPoly(ring, {(10 ** 6, 0): 1, (1, 1): 1})])
    assert [exps for exps, _ in admits.steps] == [(1, 10 ** 6), (1,)]
    assert admits[(10 ** 6, 0)] and admits[(1, 1)] and admits[(2, 0)]
    assert not admits[(10 ** 6 + 1, 0)] and not admits[(2, 1)]
