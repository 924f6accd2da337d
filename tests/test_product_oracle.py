"""The multiply-accumulate kernel against the per-pair loops it replaced.

`tests/reference_polys.py` keeps the loops: one `Scalar` product per term
pair, each sum added one `Scalar` at a time.  The sympy oracle covers only
even generators, so these draws live where the kernel's odd masks, crossing
signs and hbar truncation matter: super_space(2), super_space(3, 2) and a
BV space with an odd field.  Coefficients mix denominators and Gaussian
parts, operands may have one term, odd generators collide, and a sum of
products may cancel completely.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from reference_polys import pairing, pairing_bracket, power, times
from starprod import (BVSpace, GradedPoly, Multivector, Scalar, antibracket,
                      bv_bracket, coeff_space, poisson_bracket, super_space)
from starprod.superalg import _mac

BV = BVSpace.build([("v", 0), ("c", 1)], hbar_order=2)
SPACES = [super_space(2), super_space(3, 2), BV.space]

rationals = st.builds(Fraction, st.integers(min_value=-40, max_value=40),
                      st.sampled_from([1, 2, 3, 4, 7, 9, 11, 13, 10 ** 12 + 39]))
coefficients = st.one_of(
    st.builds(Scalar, rationals),
    st.builds(Scalar, rationals, rationals))


def keys(space):
    """Exponent tuples: odd generators 0 or 1, hbar up to the order."""
    ranges = []
    for name, parity in zip(space.names, space.parities):
        top = 1 if parity else (space.hbar_order if name == "hbar" else 3)
        ranges.append(st.integers(min_value=0, max_value=top))
    return st.tuples(*ranges)


def polys(space, max_terms=5):
    return st.one_of(
        st.dictionaries(keys(space), coefficients, max_size=max_terms),
        st.dictionaries(keys(space), coefficients, min_size=1, max_size=1),
    ).map(lambda terms: GradedPoly(space, terms))


def in_each_space(draw):
    return st.sampled_from(SPACES).flatmap(draw)


@given(pair=in_each_space(lambda s: st.tuples(polys(s), polys(s))))
@settings(max_examples=150, deadline=None)
def test_products_match_the_reference_loop(pair):
    a, b = pair
    assert a * b == times(a, b)
    assert b * a == times(b, a)


@given(data=in_each_space(lambda s: st.tuples(
    polys(s, max_terms=3), st.integers(min_value=0, max_value=4))))
@settings(max_examples=80, deadline=None)
def test_powers_match_the_reference_loop(data):
    p, n = data
    assert p ** n == power(p, n)


@given(data=in_each_space(lambda s: st.tuples(
    st.just(s),
    st.lists(st.tuples(st.sampled_from([1, -1]), polys(s), polys(s)),
             max_size=4),
    st.booleans())))
@settings(max_examples=150, deadline=None)
def test_sums_of_products_match_the_reference_loop(data):
    space, pairs, mirrored = data
    if mirrored:
        # each product also enters with the opposite sign: all cancels
        pairs = pairs + [(-s, a, b) for s, a, b in pairs]
    want = GradedPoly.zero(space)
    for s, a, b in pairs:
        want = want + times(a, b) * s
    got = _mac(space, pairs)
    assert got == want
    assert got.is_zero() or not mirrored


@given(data=st.sampled_from(SPACES[:2]).flatmap(
    lambda s: st.tuples(polys(s), polys(s))))
@settings(max_examples=100, deadline=None)
def test_antibracket_matches_the_reference_loop(data):
    f, g = data
    pairs = [(f"xi{i}", f"eta{i}") for i in (1, 2, 3)
             if f"eta{i}" in f.space.names]
    assert antibracket(f, g) == pairing_bracket(f, g, pairs)
    assert antibracket(f, f) == pairing_bracket(f, f, pairs)


@given(f=polys(BV.space), g=polys(BV.space))
@settings(max_examples=100, deadline=None)
def test_bv_bracket_matches_the_reference_loop(f, g):
    assert bv_bracket(BV, f, g) == pairing_bracket(f, g, BV.pairs)


RING = coeff_space(3)
ring_polys = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=3)] * 3), coefficients,
    max_size=4).map(lambda terms: GradedPoly(RING, terms))


@given(components=st.dictionaries(st.sampled_from([(1, 2), (1, 3), (2, 3)]),
                                  ring_polys, max_size=3),
       f=ring_polys, g=ring_polys)
@settings(max_examples=100, deadline=None)
def test_poisson_bracket_matches_the_reference_loop(components, f, g):
    alpha = Multivector(3, 2, components)
    grad = {p_name: {i: p.deriv_left(f"x{i}") for i in (1, 2, 3)}
            for p_name, p in (("f", f), ("g", g))}
    assert poisson_bracket(alpha, f, g) == pairing(alpha, grad["f"], grad["g"])
    assert poisson_bracket(alpha, f, f).is_zero()
