"""Graded polynomial arithmetic over mixed even/odd generators.

The multiplication oracle here re-derives products by brute word
reordering: expand each monomial into a letter sequence, concatenate,
and bubble-sort while counting transpositions of odd letters. That is
slower but independent of the exponent-vector bookkeeping in the
library, so agreement is meaningful.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    DEFAULT_HBAR_ORDER,
    GradedPoly,
    GradedSpace,
    InputError,
    ResourceLimitError,
    Scalar,
    coeff_space,
    deriv_even,
    deriv_odd_left,
    deriv_odd_right,
    mul,
    pairing_bracket,
    parse_poly,
    poly_to_expr,
    super_space,
    taylor_shift,
)
from starprod import superalg
from starprod.superalg import (MAX_POWER_BITS, MAX_POWER_DEGREE,
                               MAX_POWER_TERMS, _deriv)
import reference_polys
from support import random_poly, random_scalar


def brute_multiply(space, p, q):
    """Word-model product: sort concatenated letters, count odd swaps."""
    hbar_idx = space.names.index("hbar") if "hbar" in space.names else None
    out = {}
    for ka, ca in p.terms.items():
        for kb, cb in q.terms.items():
            word = []
            for idx, e in enumerate(ka):
                word.extend([idx] * e)
            for idx, e in enumerate(kb):
                word.extend([idx] * e)
            # bubble sort counting transpositions of two odd letters
            sign = 1
            letters = list(word)
            for i in range(len(letters)):
                for j in range(len(letters) - 1 - i):
                    if letters[j] > letters[j + 1]:
                        if (space.parities[letters[j]] == 1
                                and space.parities[letters[j + 1]] == 1):
                            sign = -sign
                        letters[j], letters[j + 1] = letters[j + 1], letters[j]
            key = [0] * len(space.names)
            dead = False
            for idx in letters:
                key[idx] += 1
                if space.parities[idx] == 1 and key[idx] > 1:
                    dead = True
            if dead:
                continue
            if (hbar_idx is not None and space.hbar_order is not None
                    and key[hbar_idx] > space.hbar_order):
                continue
            key = tuple(key)
            coeff = ca * cb
            if sign < 0:
                coeff = -coeff
            out[key] = out.get(key, Scalar()) + coeff
    return GradedPoly(space, {k: c for k, c in out.items() if c != Scalar()})


def spaces_for_products():
    return st.sampled_from([
        super_space(1),
        super_space(2),
        super_space(3),
        coeff_space(2),
        GradedSpace(("a", "b", "c", "d"), (1, 1, 1, 1)),
        GradedSpace(("u", "th1", "th2", "hbar"), (0, 1, 1, 0), hbar_order=2),
    ])


@st.composite
def poly_pairs(draw):
    space = draw(spaces_for_products())
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    names = list(space.names)
    def build():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            key = [0] * len(names)
            for _ in range(rng.randint(0, 3)):
                idx = rng.randrange(len(names))
                if space.parities[idx] == 1 and key[idx] >= 1:
                    continue
                key[idx] += 1
            terms[tuple(key)] = Scalar(Fraction(rng.randint(-3, 3)),
                                       Fraction(rng.randint(-1, 1)))
        return GradedPoly(space, terms)
    return space, build(), build()


@given(data=poly_pairs())
@settings(max_examples=150, deadline=None)
def test_product_matches_word_model(data):
    space, p, q = data
    assert p * q == brute_multiply(space, p, q)


@given(data=poly_pairs())
@settings(max_examples=60, deadline=None)
def test_product_associative(data):
    space, p, q = data
    r = GradedPoly.generator(space, space.names[0]) + GradedPoly.one(space)
    assert (p * q) * r == p * (q * r)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=9)
scalar_likes = st.one_of(
    st.integers(min_value=-9, max_value=9), rationals,
    st.builds(Scalar, rationals),
    st.builds(Scalar, rationals, rationals.filter(bool)))


@given(data=poly_pairs(), c=scalar_likes)
@settings(max_examples=60, deadline=None)
def test_scalars_act_on_polynomials_from_either_side(data, c):
    """A Scalar operand leaves a polynomial to GradedPoly's reflected
    methods, as int and Fraction operands do."""
    _, p, _ = data
    assert c + p == p + c
    assert c * p == p * c
    assert c - p == -(p - c)
    with pytest.raises(TypeError):
        c / p


@given(data=poly_pairs(), seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100, deadline=None)
def test_kernels_match_the_per_generator_loops(data, seed):
    """evaluate, deriv_left/deriv_right and the multi-index even derivative
    against the loops in reference_polys."""
    space, p, q = data
    rng = random.Random(seed)
    even = [k for k, par in enumerate(space.parities) if not par]
    point = {space.names[k]: random_scalar(rng) for k in even}
    odd_free = GradedPoly(space, {key: c for key, c in p.terms.items()
                                  if not any(key[k] for k in space.odd_indices)})
    assert odd_free.evaluate(point) == \
        reference_polys.evaluate(odd_free, point)
    if odd_free != p:  # an odd generator is never assigned
        with pytest.raises(InputError):
            p.evaluate(point)
        with pytest.raises(InputError):
            reference_polys.evaluate(p, point)
    for poly in (p, q):
        for name in space.names:
            assert poly.deriv_left(name) == \
                reference_polys.deriv_left(poly, name)
            assert poly.deriv_right(name) == \
                reference_polys.deriv_right(poly, name)
    counts = tuple(0 if par else rng.randint(0, 3) for par in space.parities)
    iterated = p
    for name, m in zip(space.names, counts):
        for _ in range(m):
            iterated = reference_polys.deriv_left(iterated, name)
    assert _deriv(p, counts) == iterated


def test_space_validation():
    with pytest.raises(InputError):
        GradedSpace(("x", "x"), (0, 0))
    with pytest.raises(InputError):
        GradedSpace(("x",), (0, 1))
    # a formal deformation parameter must be even and carry an order
    with pytest.raises(InputError):
        GradedSpace(("hbar",), (1,), hbar_order=2)
    with pytest.raises(InputError):
        GradedSpace(("x", "hbar"), (0, 0))
    with pytest.raises(InputError):
        super_space(2, -1)
    with pytest.raises(InputError):
        GradedSpace(("hbar",), (0,), hbar_order=True)


def test_super_space_layout():
    s = super_space(2)
    assert s.names == ("xi1", "xi2", "eta1", "eta2", "hbar")
    assert s.parities == (0, 0, 1, 1, 0)
    assert s.hbar_order == DEFAULT_HBAR_ORDER
    assert coeff_space(2).names == ("x1", "x2")


def test_odd_square_is_zero():
    s = super_space(1)
    eta = GradedPoly.generator(s, "eta1")
    assert (eta * eta).is_zero()
    with pytest.raises(InputError):
        GradedPoly(s, {(0, 2, 0): 1})


def test_odd_generators_anticommute():
    s = GradedSpace(("a", "b"), (1, 1))
    a = GradedPoly.generator(s, "a")
    b = GradedPoly.generator(s, "b")
    assert a * b == -(b * a)
    assert (a * b) * (a * b) == GradedPoly.zero(s)


def test_hbar_truncation_in_products():
    s = GradedSpace(("hbar",), (0,), hbar_order=2)
    h = GradedPoly.generator(s, "hbar")
    assert (h * h * h).is_zero()
    assert not (h * h).is_zero()


def test_parity_classification():
    s = super_space(2)
    even = parse_poly("xi1^2 + eta1*eta2", s)
    odd = parse_poly("eta1 + xi2*eta2", s)
    mixed = even + odd
    assert even.parity() == 0
    assert odd.parity() == 1
    assert mixed.parity() is None
    assert GradedPoly.zero(s).parity() == 0


def test_left_and_right_odd_derivatives_differ_by_sign_rules():
    s = super_space(2)
    p = parse_poly("eta1*eta2", s)
    assert deriv_odd_left(p, 1) == parse_poly("eta2", s)
    assert deriv_odd_left(p, 2) == parse_poly("-eta1", s)
    assert deriv_odd_right(p, 2) == parse_poly("eta1", s)
    assert deriv_odd_right(p, 1) == parse_poly("-eta2", s)


@given(data=poly_pairs())
@settings(max_examples=60, deadline=None)
def test_left_derivative_leibniz(data):
    space, p, q = data
    odd_names = [n for n, par in zip(space.names, space.parities) if par == 1]
    if not odd_names:
        return
    name = odd_names[0]
    lhs = (p * q).deriv_left(name)
    # graded Leibniz: d(pq) = dp q + (-1)^{|p|} p dq on homogeneous parts
    rhs = GradedPoly.zero(space)
    for par in (0, 1):
        ph = GradedPoly(space, {k: c for k, c in p.terms.items()
                                if p.term_parity(k) == par})
        sign = -1 if par else 1
        dq = q.deriv_left(name)
        rhs = rhs + ph.deriv_left(name) * q + (ph * dq if sign > 0 else -(ph * dq))
    assert lhs == rhs


def test_even_derivative_is_plain_partial():
    s = super_space(2)
    p = parse_poly("xi1^3*eta1 + 2*xi1*xi2", s)
    assert deriv_even(p, 1) == parse_poly("3*xi1^2*eta1 + 2*xi2", s)


def test_mul_helper_matches_operator():
    s = super_space(1)
    p = parse_poly("xi1 + eta1", s)
    q = parse_poly("eta1", s)
    assert mul(p, q) == p * q


def test_taylor_shift_recenters_polynomials():
    ring = coeff_space(2)
    p = parse_poly("x1^2*x2", ring)
    shifted = taylor_shift(p, [Fraction(1), Fraction(-2)])
    s = shifted.space
    # substituting xi = 0 recovers the value at the basepoint
    at_zero = shifted.evaluate({"xi1": 0, "xi2": 0, "hbar": 0})
    assert at_zero == p.evaluate({"x1": 1, "x2": -2})
    # and the shifted polynomial expands correctly
    expected = parse_poly("(xi1^2 + 2*xi1 + 1)*(xi2 - 2)", s)
    assert shifted == expected


def test_evaluate_rejects_odd_assignments_and_gaps():
    s = super_space(1)
    p = parse_poly("xi1*eta1", s)
    with pytest.raises(InputError):
        p.evaluate({"xi1": 1, "eta1": 1, "hbar": 0})
    with pytest.raises(InputError):
        p.evaluate({"xi1": 1})


def test_hbar_coefficient_extraction():
    s = super_space(1)
    p = parse_poly("xi1 + 3*hbar*xi1 + hbar^2*eta1", s)
    assert p.hbar_coefficient(1) == parse_poly("3*xi1", s)
    assert p.hbar_coefficient(3).is_zero()
    assert [k for k in range(4) if not p.hbar_coefficient(k).is_zero()] \
        == [0, 1, 2]


def test_pairing_bracket_on_canonical_pairs():
    s = super_space(2)
    pairs = (("xi1", "eta1"), ("xi2", "eta2"))
    xi1 = parse_poly("xi1", s)
    eta1 = parse_poly("eta1", s)
    assert pairing_bracket(xi1, eta1, pairs) == GradedPoly.one(s)
    assert pairing_bracket(eta1, xi1, pairs) == -GradedPoly.one(s)
    assert pairing_bracket(xi1, parse_poly("eta2", s), pairs).is_zero()


def test_map_into_respects_parity_and_signs():
    src = GradedSpace(("a", "b"), (1, 1))
    dst = GradedSpace(("b", "a"), (1, 1))
    p = GradedPoly.generator(src, "a") * GradedPoly.generator(src, "b")
    moved = p.map_into(dst, {"a": GradedPoly.generator(dst, "a"),
                             "b": GradedPoly.generator(dst, "b")})
    # a*b in the source is -b*a once written in the target's order
    assert moved.terms == {(1, 1): Scalar(-1)}
    with pytest.raises(InputError):
        even = GradedSpace(("t",), (0,))
        p.map_into(even, {"a": GradedPoly.generator(even, "t"),
                          "b": GradedPoly.generator(even, "t")})


def test_substitute_even_replaces_only_the_named_generators():
    s = super_space(2)
    p = parse_poly("xi1^2*eta1 + hbar*xi1*eta2 - eta1*eta2*xi2", s)
    shifted = p.substitute_even({"xi1": parse_poly("xi2 + 1", s)})
    assert shifted == parse_poly(
        "(xi2 + 1)^2*eta1 + hbar*(xi2 + 1)*eta2 - eta1*eta2*xi2", s)
    assert p.substitute_even({"xi1": 2, "xi2": 0}) == \
        parse_poly("4*eta1 + 2*hbar*eta2", s)
    with pytest.raises(InputError):
        p.substitute_even({"eta1": parse_poly("xi1", s)})


def test_power_caps_refuse_before_multiplying():
    ring = coeff_space(2)
    x1 = GradedPoly.generator(ring, "x1")
    assert (x1 ** MAX_POWER_DEGREE).total_degree() == MAX_POWER_DEGREE
    wide = GradedPoly.constant(ring, 2 ** 999)  # 1,000 bits
    assert wide ** (MAX_POWER_BITS // 1000) == \
        GradedPoly.constant(ring, 2 ** (999 * MAX_POWER_BITS // 1000))
    # ten terms in x1 alone: C(19, 9) = 92,378 by the term count, but at
    # most the 91 monomials of degree <= 90, and the smaller estimate holds
    ladder = sum((x1 ** k for k in range(10)), GradedPoly.zero(ring))
    assert len((ladder ** 10).terms) == 91
    dense = parse_poly("x1 + x2 + 1", ring)
    assert len((dense ** 20).terms) == 231  # C(22, 2)
    with pytest.raises(ResourceLimitError, match=f"cap of {MAX_POWER_TERMS}"):
        dense ** 99  # C(101, 2) = 5,050 terms
    for base, n in ((x1, MAX_POWER_DEGREE + 1),
                    (x1 * x1 + 1, MAX_POWER_DEGREE // 2 + 1),
                    (GradedPoly.constant(ring, 2), MAX_POWER_DEGREE + 1),
                    (wide, MAX_POWER_BITS // 1000 + 1)):
        with pytest.raises(ResourceLimitError):
            base ** n


def test_largest_admitted_power_matches_the_reference_loop():
    # C(100, 2) = 4,950 terms pass the term cap; C(101, 2) = 5,050 do not
    base = parse_poly("1/13*x1 - 2/11*x2 + 3/7*x3", coeff_space(3))
    assert base ** 98 == reference_polys.power(base, 98)
    with pytest.raises(ResourceLimitError, match=f"cap of {MAX_POWER_TERMS}"):
        base ** 99


def test_product_cap_refuses_before_multiplying(monkeypatch):
    ring = coeff_space(3)
    dense = parse_poly("x1 + x2 + x3 + 1", ring) ** 20  # 1,771 terms
    # 1,771 x 4 term pairs, but at most the C(24, 3) = 2,024 monomials of
    # degree <= 21 in three generators
    assert len((dense * parse_poly("x1 + x2 + x3 + 2", ring)).terms) == 2024
    with pytest.raises(ResourceLimitError, match="12341 terms"):
        dense * (dense + 1)  # C(43, 3) = 12,341 monomials of degree <= 40
    # a power keeps its own estimate: with the cap at 20, the 15-term
    # fourth power below is accepted although its last step, 10 x 3 term
    # pairs of degree 20, is a product over the cap
    monkeypatch.setattr(superalg, "MAX_POWER_TERMS", 20)
    base = parse_poly("x1^5 + x2^5 + x3^5", ring)
    assert len((base ** 4).terms) == 15
    with pytest.raises(ResourceLimitError, match="cap of 20 terms"):
        base ** 3 * base
