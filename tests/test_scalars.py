"""Exact complex-rational scalar arithmetic and its two text forms, checked
against the two-Fraction reference in reference_scalars."""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (GradedPoly, ResourceLimitError, Scalar, coeff_space,
                      format_scalar, poly_to_expr)
from starprod.scalars import MAX_DIGITS

import reference_scalars


def expression_form(z: Scalar) -> str:
    """A scalar in expression form: the text of the constant polynomial."""
    return poly_to_expr(GradedPoly.constant(coeff_space(1), z))


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
scalars = st.builds(Scalar, rationals, rationals)


def test_components_are_fractions_even_from_ints():
    s = Scalar(2, 3)
    assert isinstance(s.re, Fraction) and isinstance(s.im, Fraction)
    # int components would otherwise float-divide
    assert (s / Scalar(2)).re == Fraction(1)


def test_of_accepts_int_fraction_and_scalar():
    assert Scalar.of(5) == Scalar(Fraction(5))
    assert Scalar.of(Fraction(1, 3)) == Scalar(Fraction(1, 3))
    s = Scalar(1, 2)
    assert Scalar.of(s) is s


@given(a=scalars, b=scalars)
def test_ring_axioms(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert a - b == a + (-b)


@given(a=scalars, b=scalars, c=scalars)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(a=scalars)
def test_division_inverts_multiplication(a):
    b = Scalar(Fraction(3, 7), Fraction(-2, 5))
    assert (a * b) / b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


def test_pow(monkeypatch):
    i = Scalar(0, 1)
    assert i ** 2 == Scalar(-1)
    assert i ** 0 == Scalar(1)
    assert (Scalar(2) ** 10).re == 1024
    with pytest.raises(ValueError):
        i ** -1
    # the power squares integer parts and reduces once: no Scalar product
    calls = []
    multiply = Scalar.__mul__

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    half = Scalar(Fraction(1, 2), Fraction(1, 2))
    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    for n in (0, 1, 2, 5, 8, 13):
        assert Scalar(3) ** n == Scalar(3 ** n)
    # ((1 + i)/2)^2 is 2i/4 before it is reduced
    assert half ** 2 == Scalar(0, Fraction(1, 2))
    assert half ** 0 == Scalar(1)
    assert calls == []


def test_report_format_round_trips():
    # a report can be read back exactly when distinct scalars never print
    # alike; the grid mixes signs, unit parts and fractions in both parts
    parts = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3, 10)]
    grid = {Scalar(re, im) for re in parts for im in parts}
    assert len({format_scalar(z) for z in grid}) == len(grid)


def test_report_format_spellings():
    assert format_scalar(Scalar(0)) == "0"
    assert format_scalar(Scalar(Fraction(3, 2))) == "3/2"
    assert format_scalar(Scalar(0, Fraction(1, 2))) == "1/2i"
    assert format_scalar(Scalar(0, 1)) == "i"
    assert format_scalar(Scalar(0, -1)) == "-i"
    assert format_scalar(Scalar(Fraction(3, 2), Fraction(-1, 4))) == "3/2-1/4i"


def test_expression_form_spellings():
    assert expression_form(Scalar(Fraction(3, 2))) == "3/2"
    assert expression_form(Scalar(0, Fraction(1, 2))) == "1/2*I"
    assert expression_form(Scalar(0, 1)) == "I"
    assert expression_form(Scalar(0, -1)) == "-I"
    # mixed values parenthesize so they can be pasted into a product
    assert expression_form(Scalar(Fraction(3, 2), Fraction(1, 4))) == "(3/2+1/4*I)"


@pytest.mark.parametrize("render", [format_scalar, expression_form])
def test_printing_refuses_parts_over_the_digit_cap(render):
    widest = 10 ** MAX_DIGITS - 1
    assert render(Scalar(widest)) == str(widest)
    for z in (Scalar(widest + 1), Scalar(-widest - 1),
              Scalar(Fraction(1, widest + 1)), Scalar(1, widest + 1)):
        with pytest.raises(ResourceLimitError):
            render(z)


# the three-int Scalar against the two-Fraction dataclass it replaced ---------

wide = st.integers(min_value=-10 ** 40, max_value=10 ** 40)
wide_rationals = st.one_of(
    rationals,
    st.builds(Fraction, wide, st.integers(min_value=1, max_value=10 ** 40)))


@st.composite
def scalar_pairs(draw):
    """(library Scalar, reference Scalar) holding one value."""
    re, im = draw(wide_rationals), draw(wide_rationals)
    return Scalar(re, im), reference_scalars.Scalar(re, im)


def same(got, want) -> bool:
    return (type(got.re) is Fraction and type(got.im) is Fraction
            and (got.re, got.im) == (want.re, want.im))


def outcome(op, *args):
    """op(*args), or the class of the refusal it raised."""
    try:
        return op(*args)
    except (ZeroDivisionError, ResourceLimitError) as exc:
        return type(exc)


@given(x=scalar_pairs(), y=scalar_pairs(), n=wide, q=wide_rationals)
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_the_fraction_reference(x, y, n, q):
    new, old = x
    new2, old2 = y
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        # Scalar, int and Fraction operands, on either side
        for got, want in ((outcome(op, new, new2), outcome(op, old, old2)),
                          (outcome(op, new, n), outcome(op, old, n)),
                          (outcome(op, n, new), outcome(op, n, old)),
                          (outcome(op, new, q), outcome(op, old, q)),
                          (outcome(op, q, new), outcome(op, q, old))):
            if want is ZeroDivisionError:
                assert got is ZeroDivisionError
            else:
                assert same(got, want), (op, got, want)
    assert same(-new, -old)
    assert bool(new) == bool(old)
    assert (new == new2) == (old == old2)
    # a Scalar equals only a Scalar
    assert new != n and old != n
    assert repr(new) == repr(old)


@given(x=scalar_pairs(), n=wide, q=wide_rationals)
@settings(max_examples=100, deadline=None)
def test_equal_scalars_hash_equal(x, n, q):
    """A value hashes alike however it was built: from ints, from
    Fractions, or by arithmetic that comes back to it."""
    z = x[0]
    built = [Scalar(z.re, z.im), Scalar(z.re) + Scalar(0, z.im),
             z + n - n, z - q + q, z * 1, -(-z)]
    if q:
        built.append(z * q / q)
    for other in built:
        assert other == z and hash(other) == hash(z)
    assert hash(Scalar(n)) == hash(Scalar(Fraction(2 * n, 2))) \
        == hash(Scalar(n + 1) - 1) == hash(Scalar(Fraction(n)))


@given(x=scalar_pairs(), n=st.integers(min_value=0, max_value=7))
@settings(max_examples=100, deadline=None)
def test_powers_match_the_fraction_reference(x, n):
    new, old = x
    assert same(new ** n, old ** n)


@given(x=scalar_pairs())
@settings(max_examples=200, deadline=None)
def test_printing_matches_the_fraction_reference(x):
    new, old = x
    assert format_scalar(new) == reference_scalars.format_scalar(old)
    assert expression_form(new) == reference_scalars.scalar_to_expr(old)


near_cap = st.sampled_from([10 ** MAX_DIGITS - 1, 10 ** MAX_DIGITS,
                            10 ** MAX_DIGITS + 1, 2 * 10 ** MAX_DIGITS])


@given(big=near_cap, other=wide, den=st.integers(min_value=1, max_value=99),
       slot=st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_digit_cap_refusals_match_the_fraction_reference(big, other, den, slot):
    # one part near the cap in one of the four places, the rest ordinary
    parts = [other, den, other, den]
    parts[slot] = big if slot % 2 else -big
    re, im = Fraction(*parts[:2]), Fraction(*parts[2:])
    for render, reference in ((format_scalar, reference_scalars.format_scalar),
                              (expression_form,
                               reference_scalars.scalar_to_expr)):
        assert outcome(render, Scalar(re, im)) == \
            outcome(reference, reference_scalars.Scalar(re, im))


def test_digit_cap_reads_parts_in_lowest_terms():
    # (q + p i)/(p q) stores a denominator over the cap while each part,
    # 1/p and 1/q, stays under it: printable, as with the reference
    p, q = 2 ** 7200, 3 ** 4600
    re, im = Fraction(1, p), Fraction(1, q)
    assert p * q > 10 ** MAX_DIGITS > max(p, q)
    assert format_scalar(Scalar(re, im)) == \
        reference_scalars.format_scalar(reference_scalars.Scalar(re, im))


def test_one_value_has_one_form():
    a = Scalar(Fraction(2, 4), Fraction(3, 6))
    b = Scalar(Fraction(1, 2), Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    # 1/6 + 1/10 i is (5 + 3i)/30 over the lcm of the denominators
    assert Scalar(Fraction(1, 6), Fraction(1, 10)) * 30 == Scalar(5, 3)
    assert Scalar(Fraction(1, 2)) + Scalar(Fraction(1, 2)) == Scalar(1)


def test_scalars_are_immutable():
    z = Scalar(1, 2)
    for name in ("re", "im", "_a", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 5)
        with pytest.raises(AttributeError):
            delattr(z, name)
    assert z == Scalar(1, 2)
    # copies are rebuilt from the parts, as the dataclass's were
    w = Scalar(Fraction(-3, 4), Fraction(5, 6))
    assert copy.deepcopy(w) == pickle.loads(pickle.dumps(w)) == w
