"""Packed monomial keys against the exponent tuples they replaced.

`GradedPoly.rows` keys each monomial by one int (`monomials._Layout`), while
`terms` and every report show exponent tuples.  `tests/reference_polys.py`
keeps the tuple-keyed kernel, and here both kernels multiply the same
numerator rows, in super_space(2) and super_space(3), coeff_space(1) to
coeff_space(4) and a BV space, with real and with Gaussian coefficients:
the packed kernel's rows, unpacked, must be the tuple kernel's, in the same
order.  Packing must round-trip, add exponents when keys add, and sort in
printed order: degree ascending, then exponents descending.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_polys import tuple_products
from starprod import BVSpace, GradedPoly, Scalar, coeff_space, super_space
from starprod.monomials import MAX_DEGREE
from starprod.superalg import _products

BV = BVSpace.build([("v", 0), ("w", 0), ("c", 1)], hbar_order=2)
SPACES = [super_space(2), super_space(3), super_space(3, 1), coeff_space(1),
          coeff_space(2), coeff_space(3), coeff_space(4), BV.space]

rationals = st.builds(Fraction, st.integers(min_value=-30, max_value=30),
                      st.sampled_from([1, 2, 3, 7, 10 ** 12 + 39]))
real = st.builds(Scalar, rationals)
gaussian = st.builds(Scalar, rationals, rationals)


def keys(space):
    """Exponent tuples: odd generators 0 or 1, hbar up to the order."""
    ranges = []
    for name, parity in zip(space.names, space.parities):
        top = 1 if parity else (space.hbar_order if name == "hbar" else 3)
        ranges.append(st.integers(min_value=0, max_value=top))
    return st.tuples(*ranges)


def polys(space, coefficients):
    return st.dictionaries(keys(space), coefficients, max_size=6).map(
        lambda terms: GradedPoly(space, terms))


def unpacked(space, rows: dict) -> dict:
    return {space._layout.unpack(key): row for key, row in rows.items()}


@st.composite
def sums_of_products(draw):
    """A space and up to three (scale, a, b), all real or all Gaussian."""
    space = draw(st.sampled_from(SPACES))
    coefficients = draw(st.sampled_from([real, gaussian]))
    factors = polys(space, coefficients)
    pairs = draw(st.lists(st.tuples(st.sampled_from([1, -1, 3]), factors,
                                    factors), min_size=1, max_size=3))
    return space, pairs


@given(case=sums_of_products())
@settings(max_examples=150, deadline=None)
def test_the_packed_kernel_matches_the_tuple_kernel(case):
    space, pairs = case
    got = _products(space, [(s, a.rows, b.rows) for s, a, b in pairs])
    want = tuple_products(space, [
        (s, unpacked(space, a.rows), unpacked(space, b.rows))
        for s, a, b in pairs])
    assert list(unpacked(space, got).items()) == list(want.items())


def exponent_lists(space):
    """Distinct exponent tuples, small or up to the largest that keeps
    their degree within MAX_DEGREE."""
    exponent = st.one_of(st.integers(min_value=0, max_value=3),
                         st.integers(min_value=0,
                                     max_value=MAX_DEGREE // len(space)))
    return st.lists(st.tuples(*[exponent] * len(space)), min_size=1,
                    max_size=8, unique=True)


@given(data=st.sampled_from(SPACES).flatmap(
    lambda s: st.tuples(st.just(s), exponent_lists(s))))
@settings(max_examples=150, deadline=None)
def test_packing_round_trips_adds_and_sorts_in_printed_order(data):
    space, exponents = data
    layout = space._layout
    packed = [layout.pack(e) for e in exponents]
    assert [layout.unpack(key) for key in packed] == exponents
    assert [key >> layout.top for key in packed] == list(map(sum, exponents))
    halves = [tuple(x // 2 for x in e) for e in exponents]
    assert [layout.pack(h) + layout.pack(tuple(x - y for x, y in zip(e, h)))
            for e, h in zip(exponents, halves)] == packed
    assert sorted(packed, key=layout.rest.__xor__) == [
        layout.pack(e) for e in sorted(
            exponents, key=lambda k: (sum(k), tuple(-e for e in k)))]


@given(terms=st.sampled_from(SPACES).flatmap(
    lambda s: st.tuples(st.just(s), st.dictionaries(keys(s), gaussian,
                                                   max_size=6))))
@settings(max_examples=100, deadline=None)
def test_terms_show_exponent_tuples(terms):
    space, given_terms = terms
    p = GradedPoly(space, given_terms)
    assert list(p.terms) == list(unpacked(space, p.rows))
    assert all(p.terms[key] == given_terms[key] and key in p.terms
               for key in p.terms)
    # a key no monomial can have is missing, not an error of its own
    for key in ((0,) * (len(space) + 1), (-1,) + (0,) * (len(space) - 1),
                (0.5,) * len(space), "x"):
        assert key not in p.terms
        assert p.terms.get(key) is None


def test_terms_is_read_only_and_looked_up_like_a_dict():
    """terms is a fresh read-only mapping on each read: it refuses item
    assignment and deletion, an unhashable list key raises TypeError, and a
    tuple that compares equal to an exponent tuple, floats too, finds it."""
    space = coeff_space(2)
    p = GradedPoly(space, {(1, 0): Scalar(Fraction(1, 2)), (0, 2): 3})
    terms = p.terms
    with pytest.raises(TypeError):
        terms[(1, 0)] = Scalar(1)
    with pytest.raises(TypeError):
        del terms[(1, 0)]
    assert dict(p.terms) == {(1, 0): Scalar(Fraction(1, 2)), (0, 2): Scalar(3)}
    with pytest.raises(TypeError):
        p.terms[[1, 0]]
    assert p.terms[(1.0, 0.0)] == Scalar(Fraction(1, 2))
    assert (0, 2.0) in p.terms and (1, 1) not in p.terms
