"""Deformed product engine: calibration, goldens, budgets."""

import math
import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from starprod import (
    CalibrationError,
    GradedPoly,
    HbarSeries,
    InputError,
    Multivector,
    ResourceLimitError,
    Scalar,
    associator,
    associator_poly,
    calibrate,
    coeff_space,
    fixture,
    moyal,
    moyal_poly,
    parse_poly,
    poisson_bracket,
    poly_to_expr,
    star,
    star_poly,
    star_series,
)
from starprod import superalg, tricells, wick
from starprod.wick import DEFAULT_MAX_WORK, _order_weight
from support import (
    random_basepoint,
    random_constant_bivector,
    random_multivector,
    random_poly,
)


def test_calibration_from_canonical_fixture():
    weight = calibrate(fixture("canonical2d"),
                       parse_poly("x1", coeff_space(2)),
                       parse_poly("x2", coeff_space(2)))
    assert weight == Scalar(0, Fraction(1, 2))
    # the products scale order n by weight^n / n!
    assert _order_weight(1) == weight
    assert _order_weight(2) == Scalar(Fraction(-1, 8))


@pytest.mark.parametrize("name", ["canonical2d", "so3", "nonpoisson4d"])
def test_calibration_does_not_depend_on_the_probe_order(name):
    """Swapping the probes negates both the raw antisymmetric term and the
    bracket, so the weight is i/2 either way."""
    alpha = fixture(name)
    ring = coeff_space(alpha.dim)
    rng = random.Random(17)
    probes = 0
    while probes < 4:
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        if poisson_bracket(alpha, f, g).is_zero():
            continue
        assert calibrate(alpha, f, g) == calibrate(alpha, g, f) \
            == Scalar(0, Fraction(1, 2))
        probes += 1


@given(seed=st.integers(0, 2 ** 32), dim=st.integers(2, 4))
@settings(max_examples=25, deadline=None)
def test_calibration_on_random_bivectors_does_not_depend_on_the_probe_order(
        seed, dim):
    rng = random.Random(seed)
    ring = coeff_space(dim)
    alpha = random_multivector(rng, dim, 2, ring)
    f, g = random_poly(rng, ring), random_poly(rng, ring)
    assume(not poisson_bracket(alpha, f, g).is_zero())
    assert calibrate(alpha, f, g) == calibrate(alpha, g, f) \
        == Scalar(0, Fraction(1, 2))


def test_calibration_rejects_degenerate_probes():
    zero = Multivector.zero(2, 2)
    ring = coeff_space(2)
    with pytest.raises(CalibrationError):
        calibrate(zero, parse_poly("x1", ring), parse_poly("x2", ring))


def test_first_order_structure():
    rng = random.Random(31)
    half_i = Scalar(0, Fraction(1, 2))
    for name in ("canonical2d", "so3", "nonpoisson4d"):
        alpha = fixture(name)
        ring = coeff_space(alpha.dim)
        for _ in range(10):
            f = random_poly(rng, ring)
            g = random_poly(rng, ring)
            point = random_basepoint(rng, alpha.dim)
            values = {f"x{i}": v for i, v in enumerate(point, start=1)}
            fg = star(alpha, f, g, point, order=1)
            gf = star(alpha, g, f, point, order=1)
            assert fg.coefficient(0) == (f * g).evaluate(values)
            bracket = poisson_bracket(alpha, f, g).evaluate(values)
            anti = (fg.coefficient(1) - gf.coefficient(1)) / Scalar(2)
            assert anti == half_i * bracket
            # what remains at first order is symmetric in the arguments
            assert fg.coefficient(1) - half_i * bracket == \
                gf.coefficient(1) + half_i * bracket


def test_star_golden_value():
    c2 = fixture("canonical2d")
    ring = coeff_space(2)
    out = star(c2, parse_poly("x1", ring), parse_poly("x2", ring),
               [0, 0], order=2)
    assert out.as_strings() == {"0": "0", "1": "1/2i", "2": "0"}


def test_moyal_golden_value():
    c2 = fixture("canonical2d")
    ring = coeff_space(2)
    f = parse_poly("x1^2", ring)
    g = parse_poly("x2^2", ring)
    out = moyal(c2, f, g, [1, 1], order=3)
    assert out.as_strings() == {"0": "1", "1": "2i", "2": "-1/2", "3": "0"}
    assert star(c2, f, g, [1, 1], order=3).as_strings() == out.as_strings()


def test_star_equals_moyal_for_constant_inputs():
    rng = random.Random(47)
    for _ in range(5):
        dim = rng.randint(2, 3)
        alpha = random_constant_bivector(rng, dim)
        ring = coeff_space(dim)
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        assert star_poly(alpha, f, g, order=3) == \
            moyal_poly(alpha, f, g, order=3)


def test_moyal_requires_constant_components():
    so3 = fixture("so3")
    ring = coeff_space(3)
    with pytest.raises(InputError):
        moyal_poly(so3, parse_poly("x1", ring), parse_poly("x2", ring))


def test_associator_vanishes_for_constant_inputs():
    rng = random.Random(53)
    for _ in range(3):
        dim = rng.randint(2, 3)
        alpha = random_constant_bivector(rng, dim)
        ring = coeff_space(dim)
        f, g, h = (random_poly(rng, ring, max_degree=2) for _ in range(3))
        defect = associator_poly(alpha, f, g, h, order=3)
        assert all(p.is_zero() for p in defect.values())


def test_associator_golden_for_linear_components():
    so3 = fixture("so3")
    ring = coeff_space(3)
    x1 = parse_poly("x1", ring)
    x2 = parse_poly("x2", ring)
    out = associator(so3, x1, x2, x1, [1, 1, 1], order=3)
    assert out.as_strings() == {"0": "0", "1": "0", "2": "1/2", "3": "0"}


def test_series_round_trip_accessors():
    c2 = fixture("canonical2d")
    ring = coeff_space(2)
    out = star(c2, parse_poly("x1", ring), parse_poly("x2", ring),
               [Fraction(1, 2), Fraction(1, 3)], order=2)
    assert isinstance(out, HbarSeries)
    assert out.order == 2
    assert out.coefficient(0) == Scalar(Fraction(1, 6))
    # indices beyond the truncation order read as zero
    assert out.coefficient(5) == Scalar()


def test_star_series_is_bilinear_in_coefficients():
    so3 = fixture("so3")
    ring = coeff_space(3)
    f = parse_poly("x1", ring)
    g = parse_poly("x2", ring)
    u = {0: f, 1: parse_poly("x3", ring)}
    v = {0: g}
    out = star_series(so3, u, v, order=2)
    direct = star_poly(so3, f, g, order=2)
    shifted = star_poly(so3, parse_poly("x3", ring), g, order=1)
    for k in range(3):
        expected = direct[k]
        if k >= 1:
            expected = expected + shifted[k - 1]
        assert out[k] == expected
    with pytest.raises(InputError):
        star_series(so3, {-1: f}, v, order=2)
    # keys are checked before they are sorted, so a str key is no TypeError
    plane = coeff_space(2)
    x1 = parse_poly("x1", plane)
    with pytest.raises(InputError):
        star_series(fixture("canonical2d"), {0: x1, "a": x1}, {0: x1}, order=1)
    with pytest.raises(InputError):
        star_series(fixture("canonical2d"), {0: x1}, {0: x1, "a": x1}, order=1)


@pytest.mark.parametrize("u, v, order, max_work, error", [
    # no case has a coefficient pair in range, so only the checks refuse it
    ({}, {0: "x1"}, -1, 10, InputError),
    ({}, {0: "x1"}, 9, 10, ResourceLimitError),
    ({5: "x1"}, {0: "x1"}, 2, -5, InputError),
    ({0: "x1", 3: "plane"}, {0: "x1"}, 2, 10 ** 6, InputError),
], ids=["negative-order", "order-over-cap", "negative-budget",
        "coefficient-out-of-ring"])
def test_star_series_checks_every_input_before_filtering(u, v, order,
                                                         max_work, error):
    so3 = fixture("so3")
    polys = {"x1": parse_poly("x1", coeff_space(3)),
             "plane": parse_poly("x1", coeff_space(2))}
    with pytest.raises(error):
        star_series(so3, {k: polys[p] for k, p in u.items()},
                    {k: polys[p] for k, p in v.items()}, order=order,
                    max_work=max_work)


def test_star_series_gives_each_pair_its_own_budget():
    """Each coefficient pair's product has its own max_work, as star_poly
    of that pair does: the smallest budget with which the series product
    succeeds is the largest of the pairs' smallest star_poly budgets, and
    one unit less is refused."""
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    h = parse_poly("x1*x3 + x2", ring)
    so3, order = fixture("so3"), 4
    u, v = {0: f, 1: g}, {0: g, 2: h}
    budgets = [_smallest_budget(
        lambda w, a=uk, b=vl, n=order - k - l: star_poly(so3, a, b, n, w))
        for k, uk in u.items() for l, vl in v.items() if k + l <= order]
    most = max(budgets)
    assert len(budgets) == 4 and most < sum(budgets)
    want = star_series(so3, u, v, order)
    assert star_series(so3, u, v, order, most) == want
    with pytest.raises(ResourceLimitError):
        star_series(so3, u, v, order, most - 1)


def test_proportionality_finds_the_scalar_or_none():
    """_proportionality(a, b), b nonzero, is c where a == c * b, zero for a
    zero a, and None for an a that is no multiple of b, whether or not it
    has b's first key."""
    ring = coeff_space(2)
    b = parse_poly("x1 + 2*x2", ring)
    c = Scalar(3, -1)
    assert wick._proportionality(b * c, b) == c
    assert wick._proportionality(GradedPoly.zero(ring), b) == Scalar()
    assert wick._proportionality(parse_poly("x1 + x2", ring), b) is None
    assert wick._proportionality(parse_poly("x1*x2", ring), b) is None


@pytest.mark.parametrize("order", [True, False])
def test_order_is_not_a_bool(order):
    so3 = fixture("so3")
    f = parse_poly("x1", coeff_space(3))
    for product in (lambda: star_poly(so3, f, f, order=order),
                    lambda: star(so3, f, f, [0, 0, 0], order=order),
                    lambda: star_series(so3, {0: f}, {0: f}, order=order),
                    lambda: associator_poly(so3, f, f, f, order=order),
                    lambda: moyal_poly(fixture("canonical2d"),
                                       parse_poly("x1", coeff_space(2)),
                                       parse_poly("x2", coeff_space(2)),
                                       order=order)):
        with pytest.raises(InputError):
            product()


# star gives every graph the uniform weight (i/2)^n/n!, where Kontsevich's
# product weighs graphs by configuration-space integrals.  On so3 the graphs
# whose legs land on bivector copies then break two of his product's laws
# at hbar^2.  The values are exact goldens of the uniform weight.

def test_unit_law_fails_at_hbar_squared_on_so3():
    # uniform weight (i/2)^n/n!: 1 * g and g * 1 keep x2/2 at hbar^2
    so3 = fixture("so3")
    ring = coeff_space(3)
    one, g = parse_poly("1", ring), parse_poly("x1 + x2*x3^2", ring)
    for left, right in ((one, g), (g, one)):
        series = star_poly(so3, left, right, order=4)
        assert [poly_to_expr(series[k]) for k in range(5)] == \
            ["x1 + x2*x3^2", "0", "1/2*x2", "0", "0"]


@pytest.mark.parametrize("f, g, at_hbar_squared", [
    ("x1*x2", "x3^2", "2*x1*x2"),
    ("x1", "x2*x3^2", "x1*x2"),
])
def test_skew_law_fails_at_hbar_squared_on_so3(f, g, at_hbar_squared):
    # uniform weight (i/2)^n/n!: f * g(hbar) - g * f(-hbar) is zero at odd
    # orders and at hbar^4, and keeps these values at hbar^2
    so3 = fixture("so3")
    ring = coeff_space(3)
    f, g = parse_poly(f, ring), parse_poly(g, ring)
    fg = star_poly(so3, f, g, order=4)
    gf = star_poly(so3, g, f, order=4)
    assert [poly_to_expr(fg[k] - gf[k] * (-1) ** k) for k in range(5)] == \
        ["0", "0", at_hbar_squared, "0", "0"]


def test_order_and_work_budgets():
    so3 = fixture("so3")
    ring = coeff_space(3)
    f = parse_poly("x1", ring)
    g = parse_poly("x2", ring)
    with pytest.raises(ResourceLimitError):
        star_poly(so3, f, g, order=7)
    with pytest.raises(ResourceLimitError):
        star_poly(so3, f, g, order=3, max_work=10)
    ring2 = coeff_space(2)
    with pytest.raises(ResourceLimitError):
        moyal_poly(fixture("canonical2d"), parse_poly("x1", ring2),
                   parse_poly("x2", ring2), order=3, max_work=1)


@pytest.mark.parametrize("max_work", [-1, True, 1.5, "10"])
@pytest.mark.parametrize("order", [0, 3])
def test_max_work_must_be_a_nonnegative_int(max_work, order):
    ring = coeff_space(3)
    f = parse_poly("x1", ring)
    g = parse_poly("x2", ring)
    with pytest.raises(InputError):
        star_poly(fixture("so3"), f, g, order=order, max_work=max_work)
    ring2 = coeff_space(2)
    with pytest.raises(InputError):
        moyal(fixture("canonical2d"), parse_poly("x1", ring2),
              parse_poly("x2", ring2), [0, 0], order=order, max_work=max_work)


# the smallest budget that computes star_poly(so3, x1^2*x2 + x3,
# x2*x3^2 + x1) at each order: a regression in the pruning changes these
# counts exactly, without depending on timings
BASELINE_WORK = {3: 423, 4: 864, 5: 1317, 6: 1836}


@pytest.mark.parametrize("order, work", sorted(BASELINE_WORK.items()))
def test_baseline_work_counts(order, work):
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    star_poly(fixture("so3"), f, g, order=order, max_work=work)
    with pytest.raises(ResourceLimitError):
        star_poly(fixture("so3"), f, g, order=order, max_work=work - 1)
    assert work < DEFAULT_MAX_WORK


# the same for associator_poly(so3, x1^2*x2 + x3, x2*x3^2 + x1,
# x1*x3 + x2): one budget for the whole associator, which charges each
# factor's downset of count vectors, its reads of the cells its tri-cells are
# built from, as a product charges them (f * g's with f * (g * h)'s outer
# ones of the same order, in one read), and every term of each tri-cell it
# reads, one product of an outer cell with a sum of inner Leibniz terms
ASSOCIATOR_WORK = {2: 563, 3: 2166, 4: 5424}


@pytest.mark.parametrize("order, work", sorted(ASSOCIATOR_WORK.items()))
def test_associator_work_counts(order, work):
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    h = parse_poly("x1*x3 + x2", ring)
    associator_poly(fixture("so3"), f, g, h, order=order, max_work=work)
    with pytest.raises(ResourceLimitError):
        associator_poly(fixture("so3"), f, g, h, order=order,
                        max_work=work - 1)


def test_the_associator_reduces_at_most_once_per_hbar_power(monkeypatch):
    """Each hbar power's pieces go over their lcm and are reduced once, and
    a power with no term is not reduced.  With the bivector's pieces
    already built, these are all the gcd passes (superalg._canonical) of
    the Baseline associator at order 4, which reads its kept tri-cells:
    one for each of hbar^2..hbar^4, none for hbar^0 and hbar^1."""
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    h = parse_poly("x1*x3 + x2", ring)
    so3 = fixture("so3")
    want = associator_poly(so3, f, g, h, order=4)  # builds the pieces
    calls = []

    def counting(*args):
        calls.append(args)
        return canonical(*args)

    canonical = superalg._canonical
    monkeypatch.setattr(superalg, "_canonical", counting)
    monkeypatch.setattr(wick, "_canonical", counting)
    assert associator_poly(so3, f, g, h, order=4) == want
    assert len(calls) == 3


@st.composite
def product_cases(draw):
    """A fixture or a random bivector with degree-2 coefficients, three
    factors, a basepoint and an order."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    name = draw(st.sampled_from(["so3", "nonpoisson4d", "canonical2d",
                                 "random"]))
    if name == "random":
        ring = coeff_space(3)
        alpha = random_multivector(rng, 3, 2, ring, max_coeff_degree=2)
    else:
        alpha = fixture(name)
        ring = alpha.ring()
    f, g, h = (random_poly(rng, ring, max_degree=2) for _ in range(3))
    order = draw(st.integers(min_value=0, max_value=3))
    return alpha, f, g, h, random_basepoint(rng, alpha.dim), order


@given(case=product_cases())
@settings(max_examples=25, deadline=None)
def test_lower_orders_are_a_prefix(case):
    alpha, f, g, h, _, order = case
    full = star_poly(alpha, f, g, order=3)
    assert star_poly(alpha, f, g, order=order) == \
        {k: full[k] for k in range(order + 1)}
    full = associator_poly(alpha, f, g, h, order=3)
    assert associator_poly(alpha, f, g, h, order=order) == \
        {k: full[k] for k in range(order + 1)}


@given(case=product_cases())
@settings(max_examples=25, deadline=None)
def test_products_at_a_point_evaluate_the_polynomials(case):
    alpha, f, g, h, point, order = case
    values = {f"x{i}": v for i, v in enumerate(point, start=1)}
    series = star_poly(alpha, f, g, order=order)
    assert star(alpha, f, g, point, order=order).coefficients == \
        tuple(series[k].evaluate(values) for k in range(order + 1))
    series = associator_poly(alpha, f, g, h, order=order)
    assert associator(alpha, f, g, h, point, order=order).coefficients == \
        tuple(series[k].evaluate(values) for k in range(order + 1))


@given(case=product_cases())
@settings(max_examples=10, deadline=None)
def test_the_pieces_table_does_not_change_results(case):
    """Each product from an empty table and box cache, then again from ones
    warmed by other factors, gives the same result."""
    alpha, f, g, h, point, order = case
    products = (lambda: star_poly(alpha, f, g, order=order),
                lambda: star(alpha, f, g, point, order=order).coefficients,
                lambda: associator_poly(alpha, f, g, h, order=order))
    cold = []
    for product in products:
        wick._TABLE.clear()
        wick._box.cache_clear()
        cold.append(product())
    star_poly(alpha, h, f + g, order=3)
    assert [product() for product in products] == cold


def test_equal_bivectors_share_their_pieces():
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)

    def polys(alpha, u, v):
        """The P_M of alpha's record, after an operator for u and v."""
        wick._operator(alpha, u, v, 4, DEFAULT_MAX_WORK)
        return wick._TABLE[next(reversed(wick._TABLE))].polys

    wick._TABLE.clear()
    first = dict(polys(fixture("so3"), f, g))
    data = fixture("so3").to_data()
    again = polys(Multivector.from_data(data), g, f)
    assert len(first) > 1
    assert all(again[mult] is p for mult, p in first.items())
    data["components"]["2,3"] = "2*x1"
    changed = polys(Multivector.from_data(data), f, g)
    assert not any(changed.get(mult) is p for mult, p in first.items())


@pytest.mark.parametrize("warm", [False, True])
def test_work_counts_do_not_depend_on_the_table(warm):
    """The pinned budgets hold from an empty table and box cache and from
    full ones, so a job is refused at the same point either way."""
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    h = parse_poly("x1*x3 + x2", ring)
    so3 = fixture("so3")
    runs = [(lambda w, n=n: star_poly(so3, f, g, order=n, max_work=w), work)
            for n, work in BASELINE_WORK.items()]
    runs += [(lambda w, n=n: associator_poly(so3, f, g, h, order=n,
                                             max_work=w), work)
             for n, work in ASSOCIATOR_WORK.items()]
    for run, work in runs:
        for budget in (work, work - 1):
            wick._TABLE.clear()
            wick._box.cache_clear()
            if warm:
                run(DEFAULT_MAX_WORK)
            if budget < work:
                with pytest.raises(ResourceLimitError):
                    run(budget)
            else:
                run(budget)


def _smallest_budget(build):
    """The smallest max_work with which build(max_work) succeeds."""
    low, high = 0, 64
    while True:
        try:
            build(high)
            break
        except ResourceLimitError:
            low, high = high + 1, 2 * high
    while low < high:
        mid = (low + high) // 2
        try:
            build(mid)
            high = mid
        except ResourceLimitError:
            low = mid + 1
    return low


def _cell_cases():
    """Bivectors, four factors and an order: two random dim-3 bivectors
    with degree-2 coefficients at each of orders 1-4, and so3 and
    nonpoisson4d at order 4.  Each factor is the sum of two random parts
    of 2-3 terms of degree 1-3."""
    rng = random.Random(22)
    alphas = [(random_multivector(rng, 3, 2, coeff_space(3),
                                  max_coeff_degree=2), n)
              for n in range(1, 5) for _ in range(2)]

    def factor(dim):
        terms = {}
        for _ in range(rng.randint(2, 3)):
            beta = [0] * dim
            for _ in range(rng.randint(1, 3)):
                beta[rng.randrange(dim)] += 1
            terms[tuple(beta)] = Fraction(rng.choice([-3, -1, 1, 2]),
                                          rng.randint(1, 3))
        return GradedPoly(coeff_space(dim), terms)

    for alpha, order in alphas + [(fixture("so3"), 4),
                                  (fixture("nonpoisson4d"), 4)]:
        yield alpha, *[factor(alpha.dim) + factor(alpha.dim)
                       for _ in range(4)], order


@pytest.mark.parametrize("case", list(_cell_cases()))
def test_read_cells_give_the_walk_and_its_budget(case, monkeypatch):
    """An operator from an empty table and box cache, one from a table
    warmed by other factors, one whose cells are all kept, one from a
    table that covers some of its rows, one from a table that covers its
    rows against other Js and one from a record that holds every order's
    reach at the same t but no cells give equal orders and are refused
    below the same budget; the two partly covered ones walk only the rows
    that miss an admitted J, against only the Js that those rows miss, and
    the last charges each order's multisets and classes in one sum,
    without enumerating them again."""
    alpha, u, v, x, y, order = case

    def build(max_work):
        return wick._operator(alpha, u, v, order, max_work)[1]

    def cold():
        wick._TABLE.clear()
        wick._box.cache_clear()

    def warmed():
        cold()
        wick._operator(alpha, x, y, order, DEFAULT_MAX_WORK)
        wick._operator(alpha, y, u, order, DEFAULT_MAX_WORK)

    def kept():
        cold()
        build(DEFAULT_MAX_WORK)

    def partly():  # keeps the rows of x, which need not be all of u's
        cold()
        wick._operator(alpha, x, v, order, DEFAULT_MAX_WORK)

    def crossed():  # keeps u's rows against the Js of x, not all of v's
        cold()
        wick._operator(alpha, u, x, order, DEFAULT_MAX_WORK)

    def reached():  # every order's reach at the same t, and no cell
        kept()
        (pieces,) = wick._TABLE.values()
        pieces.cells, pieces.cell_size = {}, 0

    budget = _smallest_budget(build)
    cold()
    want = build(budget)
    for state in (cold, warmed, kept, partly, crossed, reached):
        state()
        assert build(budget) == want
        state()
        with pytest.raises(ResourceLimitError):
            build(budget - 1)
    enumerated, multisets = [], wick._multisets
    monkeypatch.setattr(wick, "_multisets", lambda *args: (
        enumerated.append(args), multisets(*args))[1])
    reached()
    enumerated.clear()
    assert build(budget) == want and not enumerated
    reached()
    enumerated.clear()
    with pytest.raises(ResourceLimitError):
        build(budget - 1)
    assert not enumerated
    filters, landings = [], wick._landings
    monkeypatch.setattr(wick, "_landings", lambda legs, admitted, sign: (
        filters.append((sum(legs), sign, admitted)),
        landings(legs, admitted, sign))[1])
    for state in (partly, crossed):
        state()
        (pieces,) = wick._TABLE.values()
        rows = {n: {I: covered for I, (covered, _) in got.items()}
                for n, got in pieces.cells.items()}
        filters.clear()
        assert build(DEFAULT_MAX_WORK) == want
        # legs of order n number n on each side; the left filter holds the
        # rows that miss an admitted J, the right filter the Js they miss
        lefts = {n: admitted for n, sign, admitted in filters if sign > 0}
        miss = {n: admitted for n, sign, admitted in filters if sign < 0}
        assert all(not rows.get(n, {}).get(I, set()) >= miss[n]
                   for n, todo in lefts.items() for I in todo)
        assert all(any(J not in rows.get(n, {}).get(I, ()) for I in lefts[n])
                   for n, js in miss.items() for J in js)


def test_equal_supports_read_the_kept_cells(monkeypatch):
    """A product whose factors have the supports of an earlier one walks
    nothing: it looks up no landings, keeps no new cell and gives the
    walk's results."""
    ring = coeff_space(3)
    so3 = fixture("so3")
    f, g = parse_poly("x1^2*x2 + x3", ring), parse_poly("x2*x3^2 + x1", ring)
    F, G = (parse_poly("-3*x1^2*x2 + 2/5*x3", ring),
            parse_poly("7*x2*x3^2 - I*x1", ring))
    wick._TABLE.clear()
    want = star_poly(so3, F, G, order=4)
    wick._TABLE.clear()
    star_poly(so3, f, g, order=4)
    (pieces,) = wick._TABLE.values()
    size, walked, landings = pieces.cell_size, [], wick._landings
    monkeypatch.setattr(wick, "_landings", lambda *args: (
        walked.append(args[0]), landings(*args))[1])
    assert star_poly(so3, F, G, order=4) == want
    assert star(so3, F, G, [1, 2, 3], order=4).coefficients == tuple(
        want[k].evaluate({"x1": 1, "x2": 2, "x3": 3}) for k in range(5))
    assert not walked and pieces.cell_size == size
    star_poly(so3, f * g, g, order=4)  # a new support walks again
    assert walked and pieces.cell_size > size


def test_a_wide_factor_is_tested_only_where_legs_land(monkeypatch):
    """A factor's count vectors are tested only over the boxes of classes
    already charged: a budget of 1 refuses before any is tested, and with
    16 coordinates and the one component (1, 2), every count vector tested
    is zero off directions 1 and 2, though the factor has 816 terms of
    degree 99 in all 16."""
    ring = coeff_space(16)
    xs = [GradedPoly.generator(ring, f"x{i}") for i in range(1, 17)]
    f = math.prod(xs[1:], start=xs[0]) ** 6 * sum(xs[1:], start=xs[0]) ** 3
    assert len(f.rows) == 816
    alpha = Multivector(16, 2, {(1, 2): GradedPoly.one(ring)})
    tested = []
    missing = wick._Admits.__missing__
    monkeypatch.setattr(wick._Admits, "__missing__", lambda self, counts: (
        tested.append(counts), missing(self, counts))[1])
    wick._TABLE.clear()
    with pytest.raises(ResourceLimitError):
        wick._operator(alpha, f, f, 6, 1)
    assert not tested
    wick._operator(alpha, f, f, 6, DEFAULT_MAX_WORK)
    assert tested and not any(any(counts[2:]) for counts in tested)


def _entries(pieces):
    """P_M terms, P_M tests, classes, landable count vectors; for the cells
    each covered (I, J) and each row of a kept cell's polynomial; and for
    the tri-cells each kept (P, Q, L), each row of its polynomial and the
    monomials of the factors of each support kept."""
    triples = [entry for rows in pieces.tri.values() for by_q in rows.values()
               for kept in by_q.values() for entry in kept.values()]
    return (sum(len(p.terms) for p in pieces.polys.values())
            + sum(len(test) + len(classes)
                  for test, classes in pieces.multisets.values())
            + sum(len(lefts) + len(rights)
                  for lefts, rights, *_ in pieces.landable.values())
            + sum(len(covered) + sum(len(cell[1]) for _, cell in kept.values()
                                     if cell)
                  for rows in pieces.cells.values()
                  for covered, kept in rows.values())
            + sum(1 + len(rows) for _, rows, _ in triples)
            + sum(sum(map(len, keys)) for keys, _ in pieces.supports))


def test_the_pieces_table_stays_within_its_bounds(monkeypatch):
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    wick._TABLE.clear()
    # more bivectors than the table keeps: the oldest are evicted
    alphas = [Multivector(3, 2, {(1, 2): parse_poly(f"x3 + {c}", ring),
                                 (2, 3): parse_poly("x1", ring)})
              for c in range(wick._TABLE_BIVECTORS + 3)]
    for alpha in alphas:
        star_poly(alpha, f, g, order=3)
        assert len(wick._TABLE) <= wick._TABLE_BIVECTORS
    star_poly(alphas[-1], f, g, order=3)  # no new record for a kept one
    assert len(wick._TABLE) == wick._TABLE_BIVECTORS
    sizes = [_entries(pieces) for pieces in wick._TABLE.values()]
    assert sizes == [pieces.size for pieces in wick._TABLE.values()]
    # a record whose cells pass its share of the bound keeps none: the walk
    # keeps its cells, and the trim after it drops them all
    record = wick._TABLE[list(wick._TABLE)[-1]]
    assert record.cells
    share = record.cell_size
    monkeypatch.setattr(wick, "_TABLE_ENTRIES", wick._TABLE_BIVECTORS * share)
    order, covered = wick._Pieces.order, []
    monkeypatch.setattr(wick._Pieces, "order", lambda self, *args: (
        order(self, *args), covered.append(self.cell_size))[0])
    star_poly(alphas[-1], f * g, g, order=2)  # a walk adds covered pairs
    assert max(covered) > share
    assert not record.cells and record.cell_size == 0
    assert record.size == _entries(record)
    # a smaller entry bound evicts the least recently used first
    bound = sum(sizes[-2:])
    monkeypatch.setattr(wick, "_TABLE_ENTRIES", bound)
    star_poly(alphas[-1], f, g, order=3)
    assert sum(map(_entries, wick._TABLE.values())) <= bound
    kept = {key: list(pieces.polys.values())
            for key, pieces in wick._TABLE.items()}
    assert len(kept) == 2
    # a bivector over the bound on its own is not kept, and the records
    # already kept survive it, as do the refused product's
    star_poly(fixture("so3"), f, g, order=5)
    with pytest.raises(ResourceLimitError):
        star_poly(fixture("so3"), f, g, order=6, max_work=1500)
    assert list(wick._TABLE) == list(kept)
    for key, polys in kept.items():
        assert all(a is b for a, b in zip(wick._TABLE[key].polys.values(),
                                          polys))


def test_tri_cells_count_against_the_share(monkeypatch):
    """An associator keeps its tri-cells and its factors' supports beside
    the cells, counted in the record's entries, and a record that passes
    its share drops them with the cells."""
    ring = coeff_space(3)
    f, g, h = (parse_poly(p, ring)
               for p in ("x1^2*x2 + x3", "x2*x3^2 + x1", "x1*x3 + x2"))
    wick._TABLE.clear()
    associator_poly(fixture("so3"), f, g, h, order=3)
    associator_poly(fixture("so3"), g, h, f, order=2)
    (record,) = wick._TABLE.values()
    assert record.tri and len(record.supports) == 2
    assert record.size == _entries(record)
    share = record.cell_size
    monkeypatch.setattr(wick, "_TABLE_ENTRIES", wick._TABLE_BIVECTORS * share)
    associator_poly(fixture("so3"), f, g, h * h, order=3)
    assert not (record.cells or record.tri or record.supports)
    assert record.cell_size == 0 and record.size == _entries(record)


def test_a_record_keeps_the_nonzero_tri_cells_and_one_charge():
    """After the Baseline associator at order 4 from an empty table, the
    record keeps each nonzero tri-cell as its polynomial alone, and under
    the factors' supports the whole charge of the build: the budget less
    the factors' downsets, 22 count vectors for these factors."""
    ring = coeff_space(3)
    f, g, h = (parse_poly(p, ring)
               for p in ("x1^2*x2 + x3", "x2*x3^2 + x1", "x1*x3 + x2"))
    wick._TABLE.clear()
    associator_poly(fixture("so3"), f, g, h, order=4)
    (record,) = [pieces for pieces in wick._TABLE.values() if pieces.dim == 3]
    cells = [cell for rows in record.tri.values() for by_q in rows.values()
             for kept in by_q.values() for cell in kept.values()]
    assert len(cells) == 144
    assert all(len(cell) == 3 and cell[1] for cell in cells)
    (charge,) = record.supports.values()
    assert charge == 5402 and charge + 22 == ASSOCIATOR_WORK[4]


def test_a_record_keeps_its_most_recent_supports():
    """Past tricells.SUPPORTS factor supports a record forgets the least
    recently used, out of its entries too; an associator on forgotten
    supports builds again, finds its tri-cells kept, and gives the same
    values for the same smallest budget."""
    ring = coeff_space(3)
    so3 = fixture("so3")
    g, h = parse_poly("x2*x3 + x1", ring), parse_poly("x3^2 + x2", ring)
    wick._TABLE.clear()

    def run(k, budget=DEFAULT_MAX_WORK):
        return associator_poly(so3, parse_poly(f"x1^{k} + x3", ring), g, h,
                               order=2, max_work=budget)

    first = run(1)
    work = _smallest_budget(lambda budget: run(1, budget))
    for k in range(2, tricells.SUPPORTS + 2):
        run(k)
    record = wick._TABLE[next(reversed(wick._TABLE))]
    assert len(record.supports) == tricells.SUPPORTS
    assert record.size == _entries(record)
    assert run(1) == first and _smallest_budget(
        lambda budget: run(1, budget)) == work


def test_new_supports_over_kept_tri_cells_charge_as_from_empty():
    """An associator on factor supports not seen before, whose tri-cells
    an earlier associator on other supports of the same count vectors
    kept, forms their terms again but keeps no new tri-cell, and gives the
    same values for the same smallest budget as from an empty table."""
    ring = coeff_space(3)
    so3 = fixture("so3")
    g, h = parse_poly("x2*x3 + x1", ring), parse_poly("x3^2 + x2", ring)
    # both factors admit the count vectors 0, e1, 2 e1 and e3
    f = parse_poly("x1^2 + x3", ring)
    other = parse_poly("x1^2 + x1 + x3", ring)

    def run(p, budget=DEFAULT_MAX_WORK):
        return associator_poly(so3, p, g, h, order=3, max_work=budget)

    def cold(budget):
        wick._TABLE.clear()
        return run(other, budget)

    want, work = cold(DEFAULT_MAX_WORK), _smallest_budget(cold)
    for budget in (work, work - 1):
        wick._TABLE.clear()
        run(f)
        record = wick._TABLE[next(reversed(wick._TABLE))]
        size = record.cell_size
        if budget < work:
            with pytest.raises(ResourceLimitError):
                run(other, budget)
        else:
            assert run(other, budget) == want
            assert record.cell_size == size + len(other.rows) + 4


def test_products_from_several_threads_agree(monkeypatch):
    """Threads share the table, so each product builds its pieces under the
    table's lock; products run at once give the results they give one at a
    time."""
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    alphas = [fixture("so3"),
              Multivector(3, 2, {(1, 2): parse_poly("x3 + 1", ring),
                                 (2, 3): parse_poly("x1", ring)})]
    want = [star_poly(alpha, f, g, order=4) for alpha in alphas]
    build, held = wick._Pieces.product, []

    def product(pieces, mult):
        held.append(wick._TABLE_LOCK.locked())
        return build(pieces, mult)

    monkeypatch.setattr(wick._Pieces, "product", product)
    wick._TABLE.clear()
    wick._box.cache_clear()
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda i: star_poly(alphas[i % 2], f, g, order=4),
                            range(8)))
    assert got == want * 4
    assert held and all(held)


def test_the_box_cache_stays_within_its_bound():
    wick._box.cache_clear()
    vectors = []
    for dirs in combinations_with_replacement(range(16), 3):
        legs = [0] * 16
        for d in dirs:
            legs[d] += 1
        vectors.append(tuple(legs))
    sweep = [(legs, sign) for sign in (1, -1) for legs in vectors]
    assert len(sweep) > wick._BOXES
    for legs, sign in sweep:
        wick._box(legs, sign)
        assert wick._box.cache_info().currsize <= wick._BOXES
    assert wick._box.cache_info().currsize == wick._BOXES
    # the most recent boxes are the ones kept
    hits = wick._box.cache_info().hits
    wick._box(*sweep[-1])
    assert wick._box.cache_info().hits == hits + 1
    wick._box.cache_clear()


def test_bivectors_of_one_dimension_share_their_boxes(monkeypatch):
    """A box depends on the leg vector and the sign alone: two different
    dim-3 bivectors get the same box objects, and only their pieces differ."""
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    alphas = [fixture("so3"),
              Multivector(3, 2, {(1, 2): parse_poly("x3 + 1", ring),
                                 (2, 3): parse_poly("x1^2", ring)})]
    box, seen = wick._box, []

    def recorded(legs, sign):
        got = seen[-1][(legs, sign)] = box(legs, sign)
        return got

    monkeypatch.setattr(wick, "_box", recorded)
    wick._TABLE.clear()
    for alpha in alphas:
        seen.append({})  # the boxes this bivector's product looks up
        star_poly(alpha, f, g, order=4)
    shared = seen[0].keys() & seen[1].keys()
    assert len(shared) > 1
    assert all(seen[0][key] is seen[1][key] for key in shared)
    assert len(wick._TABLE) == 2


def _det(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _inverse(m):
    det = _det(m)
    return [[(m[(j + 1) % 3][(i + 1) % 3] * m[(j + 2) % 3][(i + 2) % 3]
              - m[(j + 1) % 3][(i + 2) % 3] * m[(j + 2) % 3][(i + 1) % 3])
             / det for j in range(3)] for i in range(3)]


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       order=st.integers(min_value=1, max_value=3))
@settings(max_examples=10, deadline=None)
def test_star_is_equivariant_under_a_reflection(seed, order):
    """x = A y with det A = -1: pulling so3, f and g back along it pulls
    back every order of f * g."""
    rng = random.Random(seed)
    m = [[0] * 3] * 3
    while not _det(m):
        m = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
              for _ in range(3)] for _ in range(3)]
    m[0] = [-x / _det(m) for x in m[0]]
    inv = _inverse(m)
    assert _det(m) == -1
    ring = coeff_space(3)
    xs = [parse_poly(f"x{i}", ring) for i in range(1, 4)]
    pull = {f"x{i + 1}": sum((xs[j] * m[i][j] for j in range(3)),
                             GradedPoly.zero(ring)) for i in range(3)}
    so3 = fixture("so3")
    back = {(k, l): sum((so3.component(i, j).substitute_even(pull)
                         * (inv[k - 1][i - 1] * inv[l - 1][j - 1])
                         for i in range(1, 4) for j in range(1, 4)),
                        GradedPoly.zero(ring))
            for k, l in ((1, 2), (1, 3), (2, 3))}
    f = random_poly(rng, ring, max_degree=2)
    g = random_poly(rng, ring, max_degree=2)
    moved = star_poly(Multivector(3, 2, back), f.substitute_even(pull),
                      g.substitute_even(pull), order=order)
    fixed = star_poly(so3, f, g, order=order)
    assert moved == {k: p.substitute_even(pull) for k, p in fixed.items()}


def test_basepoint_validation():
    c2 = fixture("canonical2d")
    ring = coeff_space(2)
    f = parse_poly("x1", ring)
    with pytest.raises(InputError):
        star(c2, f, f, [0], order=1)
    # the basepoint is checked before the order cap
    with pytest.raises(InputError):
        star(c2, f, f, [0], order=7)


def test_ring_mismatch_rejected():
    c2 = fixture("canonical2d")
    wrong = parse_poly("x1", coeff_space(3))
    with pytest.raises(InputError):
        star_poly(c2, wrong, wrong, order=1)
