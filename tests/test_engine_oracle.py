"""The operator form of the product against the engines it replaced.

tests/reference_engine.py walks every labelled wiring of the insertions; the
library sums over insertion multisets and lets Leibniz collect the legs that
land on insertions.  The raw, unweighted sums E_n must agree exactly.

It also keeps the per-pair composition of series products: one operator for
each pair of coefficients (u_k, v_l), and the associator as four such
products.  The library sums the pairs' star_poly products, and builds one
tri-differential operator for the associator; star_series, associator_poly
and associator must agree exactly.

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
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from starprod import (Multivector, ResourceLimitError, associator,
                      associator_poly, coeff_space, fixture, parse_poly,
                      star_poly, star_series, tricells, wick)
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
    op = _operator(alpha, f, g, order, BUDGET)
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


def gaussian_so3():
    """so3 with its (1, 3) component times 1 + i, so that the products of
    two imaginary parts in the cells and tri-cells are checked too."""
    comps = dict(fixture("so3").components)
    comps[1, 3] = comps[1, 3] * Scalar(1, 1)
    return Multivector(3, 2, comps)


@pytest.mark.parametrize("name",
                         ["so3", "nonpoisson4d", "canonical2d", "gaussian_so3"])
def test_series_products_match_the_per_pair_composition(name):
    """Through order 4, and order 5 where the bivector is not constant."""
    rng = random.Random(name)
    alpha = gaussian_so3() if name == "gaussian_so3" else fixture(name)
    for order in range(5 if name == "canonical2d" else 6):
        assert_series_products_match(rng, alpha, order)


def test_series_products_match_on_random_bivectors():
    rng = random.Random(8)
    for _ in range(6):
        dim = rng.randint(2, 3)
        alpha = random_multivector(rng, dim, 2, coeff_space(dim),
                                   max_coeff_degree=2)
        for order in range(4):
            assert_series_products_match(rng, alpha, order)


def divergence(alpha):
    """The components of the vector field sum_i d_i A^(ij)."""
    ring = alpha.ring()
    out = [GradedPoly.zero(ring) for _ in range(alpha.dim)]
    for (i, j), p in alpha.components.items():
        out[j - 1] = out[j - 1] + p.deriv_left(f"x{i}")
        out[i - 1] = out[i - 1] - p.deriv_left(f"x{j}")
    return out


def test_random_bivectors_of_nonzero_divergence():
    """The fixtures are divergence-free, so their associator vanishes at
    hbar^1.  With a divergence v, order 1 holds the derivation f v(g) - v(f)
    g beside the bracket, and the hbar^1 associator is -(f g v(h) + v(f) g
    h): the tri-cells reached only through legs that land on their own
    insertion must match the composition too."""
    rng = random.Random(28)
    drawn = []
    while len(drawn) < 6:
        alpha = random_multivector(rng, 3, 2, coeff_space(3),
                                   max_coeff_degree=2)
        if not all(v.is_zero() for v in divergence(alpha)):
            drawn.append(alpha)
    vanishing = []
    for alpha in drawn:
        for order in range(4):
            assert_series_products_match(rng, alpha, order)
        f, g, h = (random_poly(rng, alpha.ring(), max_degree=2, max_terms=3)
                   for _ in range(3))
        vanishing.append(associator_poly(alpha, f, g, h, order=1)[1].is_zero())
    assert vanishing.count(False) >= 4
    for name in ("so3", "nonpoisson4d"):
        assert all(v.is_zero() for v in divergence(fixture(name)))


def test_an_associator_over_its_share_is_the_same_cold_warm_and_trimmed():
    """A dim-8 associator whose tri-cells pass the record's share of the
    table, so the trim drops them after every call: from an empty table, a
    trimmed one and one warmed by other products it gives the reference
    composition's values."""
    ring = coeff_space(8)
    alpha = Multivector(8, 2, {
        (1, 2): parse_poly("x3 + x5", ring), (3, 4): parse_poly("x1*x6", ring),
        (5, 6): parse_poly("x7", ring), (7, 8): parse_poly("x2 + 1", ring),
        (2, 7): parse_poly("x8", ring)})
    f, g, h = (parse_poly(p, ring) for p in (
        "x1^2*x2*x3 + x4*x5^2 + x6*x7*x8", "x1*x4*x7^2 + x2*x3 + x5*x8",
        "x2*x6 + x3^2*x7*x1 + x4"))
    point = [1, 2, 3, 1, Fraction(1, 2), 1, 1, 2]
    want = tuple(_associator(alpha, f, g, h, 4,
                             point=[Scalar.of(x) for x in point]))
    wick._TABLE.clear()
    sizes = []
    build = tricells.build

    def kept(pieces, top, *args):
        built = build(pieces, top, *args)
        if top == 4:
            sizes.append(pieces.cell_size)
        return built

    got = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tricells, "build", kept)
        for warm in (False, False, True):
            if warm:
                star_poly(alpha, f, h, order=3)
                associator_poly(alpha, g, h, f, order=2)
            got.append(associator(alpha, f, g, h, point, order=4).coefficients)
    assert got == [want] * 3
    assert len(sizes) == 3
    assert min(sizes) > wick._TABLE_ENTRIES // wick._TABLE_BIVECTORS
    (record,) = [p for p in wick._TABLE.values() if p.dim == 8]
    assert not (record.cells or record.tri or record.supports)


def test_a_warm_associator_builds_no_operator(monkeypatch):
    """Warm, the Baseline associator reads its kept tri-cells: it builds
    no operator, walks no order and builds no tri-cell.  At order 4 it
    reads 0, 0, 19, 50 and 75 of them at hbar^0..hbar^4, where the four
    products it replaced read 298 cells and formed two 21-term inner
    products."""
    ring = coeff_space(3)
    f, g, h = (parse_poly(p, ring)
               for p in ("x1^2*x2 + x3", "x2*x3^2 + x1", "x1*x3 + x2"))
    want = associator(fixture("so3"), f, g, h, [1, 2, 3], order=4)
    built, read = [], []
    for name in ("_operator", "_moyal_operator"):
        monkeypatch.setattr(wick, name, lambda *args: built.append(args))
    monkeypatch.setattr(wick._Pieces, "order",
                        lambda *args: built.append(args))
    monkeypatch.setattr(tricells, "build", lambda *args: built.append(args))
    triples = tricells.read
    monkeypatch.setattr(tricells, "read", lambda *args: (
        read.append(triples(*args)), read[-1])[1])
    assert associator(fixture("so3"), f, g, h, [1, 2, 3], order=4) == want
    assert not built
    assert [len(cells) for cells in read[0]] == [0, 0, 19, 50, 75]


def test_cold_build_work_is_bounded_per_admitted_triple():
    """The lines a cold build of tri-cells runs, its own loops and not the
    walks of the cells it reads, stay within 100 per admitted (s, P, Q, L)
    with |P| + |Q| + |L| <= 2s, on so3 at orders 2-5, three random dim-3
    bivectors and nonpoisson4d."""
    code = tricells.build.__code__

    def lines_and_triples(alpha, f, g, h, order):
        wick._TABLE.clear()
        count, built = [0], []
        build = tricells.build

        def traced(frame, event, arg):
            if frame.f_code is not code:
                return None

            def local(frame, event, arg):
                count[0] += event == "line"
                return local
            return local

        def kept(pieces, top, adm, spend):
            built.append((top, adm))
            return build(pieces, top, adm, spend)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tricells, "build", kept)
            sys.settrace(traced)
            try:
                associator_poly(alpha, f, g, h, order=order)
            finally:
                sys.settrace(None)
        ((top, (fs, gs, hs)),) = built
        return count[0], sum(1 for s in range(1, top + 1) for P in fs
                             for Q in gs for L in hs
                             if sum(P) + sum(Q) + sum(L) <= 2 * s)

    rng = random.Random(4)
    ring = coeff_space(3)
    cases = [(fixture("so3"), *(parse_poly(p, ring) for p in (
        "x1^2*x2 + x3", "x2*x3^2 + x1", "x1*x3 + x2")), order)
        for order in range(2, 6)]
    for _ in range(3):
        alpha = random_multivector(rng, 3, 2, ring, max_coeff_degree=2)
        cases.append((alpha, *(random_poly(rng, ring, max_degree=3,
                                           max_terms=3) for _ in "fgh"), 3))
    ring = coeff_space(4)
    cases.append((fixture("nonpoisson4d"), *(random_poly(
        rng, ring, max_degree=3, max_terms=3) for _ in "fgh"), 4))
    for alpha, f, g, h, order in cases:
        lines, triples = lines_and_triples(alpha, f, g, h, order)
        assert 0 < lines <= 100 * triples
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
    admits = _Admits(factor)
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
    """An operator for two factors, an order and a basepoint: the insertion
    operator of a dim-2 or dim-3 bivector with Gaussian coefficients, or
    the exponential formula's operator of a constant one.  Each component,
    each factor and each coordinate has its own denominator, so every sum
    the kernel forms is over an lcm of unequal ones."""
    dim = draw(st.sampled_from([2, 3]))
    ring = coeff_space(dim)
    constant = draw(st.booleans())
    keys = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    comps = {key: draw(polys(ring, 0 if constant else 1, 2, q))
             for key, q in zip(keys, (2, 3, 5))
             if key == (1, 2) or draw(st.booleans())}
    f, g = (draw(polys(ring, 2, 3, q)) for q in (4, 7))
    build = _moyal_operator if constant else _operator
    op = build(Multivector(dim, 2, comps), f, g, draw(st.integers(0, 3)),
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
        apply(_operator(alpha, f, g, 0, BUDGET))
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
    past 2 * MAX_ORDER, as one polynomial (zero for an empty support), and
    count vectors that reach past every exponent."""
    dim = draw(st.integers(min_value=1, max_value=4))
    exps = st.integers(min_value=0, max_value=3 * MAX_ORDER)
    support = draw(st.lists(st.tuples(*[exps] * dim), max_size=5,
                            unique=True))
    poly = GradedPoly(coeff_space(dim), dict.fromkeys(support, 1))
    counts = draw(st.lists(st.tuples(*[st.integers(
        min_value=0, max_value=3 * MAX_ORDER + 2)] * dim), max_size=10))
    return dim, support, poly, counts


@given(case=dominance_cases())
@example(case=(2, [], GradedPoly.zero(coeff_space(2)), [(0, 0), (1, 0)]))
@example(case=(2, [(3, 0)], GradedPoly(coeff_space(2), {(3, 0): 1}),
               [(0, 0), (3, 0), (4, 0), (0, 1)]))
@settings(max_examples=300, deadline=None)
def test_admits_agrees_with_the_field_by_field_test(case):
    """The bitmask test admits a count vector exactly when a monomial of
    the support dominates it: for an empty support (the zero polynomial),
    the zero count vector, exponents past 2 * MAX_ORDER and count
    vectors past every exponent; and it keeps at most one mask for each
    exponent that occurs in each direction."""
    dim, support, poly, counts = case
    admits, reference = _Admits(poly), _Dominates([poly])
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
    admits = _Admits(GradedPoly(ring, {(10 ** 6, 0): 1, (1, 1): 1}))
    assert [exps for exps, _ in admits.steps] == [(1, 10 ** 6), (1,)]
    assert admits[(10 ** 6, 0)] and admits[(1, 1)] and admits[(2, 0)]
    assert not admits[(10 ** 6 + 1, 0)] and not admits[(2, 1)]
