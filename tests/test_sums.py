"""One signed sum for every sum of polynomials.

superalg._sum adds terms (sign, den, rows) over the lcm of their
denominators in one dict and reduces once.  GradedPoly's + and -, each run
of + and - in an expression, the BV residuals and Laplacian, d, the Jacobi
defect and the component fields' sums all go through it.  It is checked
against `plus` of reference_polys, one Scalar sum per shared key, folded
one term at a time; and a long expression sum is held to one pass over its
rows.
"""

import math
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_polys import plus
from starprod import GradedPoly, Scalar, coeff_space, parse_poly, super_space
from starprod import expr
from starprod.superalg import _sum

SPACES = [super_space(2), coeff_space(2)]

# denominators whose lcm takes its primes from several terms: 1/6, 1/10 and
# 1/15 meet over 30 with no prime in all three
rationals = st.builds(Fraction, st.integers(min_value=-9, max_value=9),
                      st.sampled_from([1, 2, 3, 5, 6, 10, 15]))
scalars = st.one_of(st.builds(Scalar, rationals),
                    st.builds(Scalar, rationals, rationals))
signs = st.sampled_from([1, -1])


def keys(space):
    """Exponent tuples: odd generators 0 or 1, hbar up to the order."""
    return st.tuples(*[st.integers(0, 1 if parity else (
        space.hbar_order if name == "hbar" else 2))
        for name, parity in zip(space.names, space.parities)])


@st.composite
def signed_terms(draw):
    """A space and 1 to 5 (sign, polynomial) terms; a term may repeat an
    earlier polynomial, so sums cancel in part or completely, and a
    polynomial may be zero."""
    space = draw(st.sampled_from(SPACES))
    terms = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if terms and draw(st.booleans()):
            p = draw(st.sampled_from(terms))[1]
        else:
            p = GradedPoly(space, draw(st.dictionaries(keys(space), scalars,
                                                       max_size=3)))
        terms.append((draw(signs), p))
    return space, terms


def assert_canonical(p: GradedPoly) -> None:
    assert p.den > 0 and (0, 0) not in p.rows.values()
    assert math.gcd(p.den, *chain.from_iterable(p.rows.values())) == 1


def signed_sum(space, terms):
    return _sum(space, [(s, p.den, p.rows) for s, p in terms])


@given(case=signed_terms())
@settings(max_examples=150, deadline=None)
def test_the_signed_sum_matches_the_reference_loop(case):
    space, terms = case
    want = GradedPoly.zero(space)
    for s, p in terms:
        want = plus(want, p, s)
    got = signed_sum(space, terms)
    assert_canonical(got)
    assert dict(got.terms) == dict(want.terms)
    assert got == want


def test_terms_that_meet_no_key_are_summed_in_lowest_terms():
    # over the lcm 30 the parts are 5, 3 and -2: no prime of 30 divides
    # them all, so the union needs no gcd pass
    ring = coeff_space(3)
    f, g, h = (parse_poly(text, ring) for text in ("1/6*x1", "1/10*x2", "1/15*x3"))
    got = signed_sum(ring, [(1, f), (1, g), (-1, h)])
    assert_canonical(got)
    assert got.den == 30
    assert sorted(got.rows.values()) == [(-2, 0), (3, 0), (5, 0)]
    assert got == parse_poly("1/6*x1 + 1/10*x2 - 1/15*x3", ring)
    # one term with the sign -1 is its negation
    assert signed_sum(ring, [(-1, f)]) == -f
    # a merged key is reduced: 5/6 - 1/2 is 1/3, over 3
    got = signed_sum(ring, [(1, parse_poly("5/6*x1", ring)),
                            (-1, parse_poly("1/2*x1", ring))])
    assert got.den == 3 and got == parse_poly("1/3*x1", ring)


def test_complete_cancellation_and_empty_operands_are_zero_over_one():
    ring = coeff_space(2)
    p = parse_poly("1/6*x1 - 3/10*x2 + 1/15*I", ring)
    zero = GradedPoly.zero(ring)
    for terms in ([(1, p), (-1, p)], [], [(1, zero)], [(-1, zero), (1, zero)],
                  [(1, p), (1, zero), (-1, p), (-1, zero)]):
        got = signed_sum(ring, terms)
        assert got.is_zero() and got.den == 1
    assert signed_sum(ring, [(1, zero), (-1, p), (1, zero)]) == -p


@pytest.mark.parametrize("k", [1000, 4000])
def test_a_long_expression_sum_handles_each_row_once(monkeypatch, k):
    """The rows passed to the sum while a k-term expression is parsed: k,
    one pass over the run of k one-row terms.  A fold that copies the
    running sum at each step handles about k^2/2."""
    handled = []

    def counting(space, terms):
        handled.append(sum(len(rows) for _, _, rows in terms))
        return summed(space, terms)

    summed = expr._sum
    monkeypatch.setattr(expr, "_sum", counting)
    ring = coeff_space(3)
    side = math.isqrt(k - 1) + 1
    monomials = [f"x1^{a}*x2^{b}*x3" for a in range(side)
                 for b in range(side)][:k]
    text = monomials[0] + "".join(
        f" {'-' if t % 3 else '+'} {m}" for t, m in enumerate(monomials[1:]))
    p = parse_poly(text, ring)
    assert len(p.rows) == k
    assert sum(handled) == k
    assert len(handled) == 1
