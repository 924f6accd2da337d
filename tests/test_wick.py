"""Deformed product engine: calibration, goldens, budgets."""

import random
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from starprod import wick
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
# x1*x3 + x2): max_work is one budget per product, and the associator makes
# four, so the count is that of its largest product
ASSOCIATOR_WORK = {2: 187, 3: 742, 4: 2078}


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
    """Each product from an empty table, then again from a table warmed by
    other factors, gives the same result."""
    alpha, f, g, h, point, order = case
    products = (lambda: star_poly(alpha, f, g, order=order),
                lambda: star(alpha, f, g, point, order=order).coefficients,
                lambda: associator_poly(alpha, f, g, h, order=order))
    cold = []
    for product in products:
        wick._TABLE.clear()
        cold.append(product())
    star_poly(alpha, h, f + g, order=3)
    assert [product() for product in products] == cold


def test_equal_bivectors_share_their_pieces():
    ring = coeff_space(3)
    f = parse_poly("x1^2*x2 + x3", ring)
    g = parse_poly("x2*x3^2 + x1", ring)
    wick._TABLE.clear()
    first = dict(wick._operator(fixture("so3"), {0: f}, {0: g}, 4,
                                DEFAULT_MAX_WORK)[0])
    data = fixture("so3").to_data()
    again = wick._operator(Multivector.from_data(data), {0: g}, {0: f}, 4,
                           DEFAULT_MAX_WORK)[0]
    assert len(first) > 1
    assert all(again[mult] is p for mult, p in first.items())
    data["components"]["2,3"] = "2*x1"
    changed = wick._operator(Multivector.from_data(data), {0: f}, {0: g}, 4,
                             DEFAULT_MAX_WORK)[0]
    assert not any(changed.get(mult) is p for mult, p in first.items())


@pytest.mark.parametrize("warm", [False, True])
def test_work_counts_do_not_depend_on_the_table(warm):
    """The pinned budgets hold from an empty table and from a full one, so
    a job is refused at the same point either way."""
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
            if warm:
                run(DEFAULT_MAX_WORK)
            if budget < work:
                with pytest.raises(ResourceLimitError):
                    run(budget)
            else:
                run(budget)


def _entries(pieces):
    return (sum(len(p.terms) for p in pieces.polys.values())
            + sum(len(room) + len(classes)
                  for room, classes in pieces.multisets.values()))


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
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda i: star_poly(alphas[i % 2], f, g, order=4),
                            range(8)))
    assert got == want * 4
    assert held and all(held)


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
