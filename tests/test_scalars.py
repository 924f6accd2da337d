"""Exact complex-rational scalar arithmetic and its two text forms."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from starprod import ResourceLimitError, Scalar, format_scalar, scalar_to_expr
from starprod.scalars import MAX_DIGITS

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
    # squarings up to the highest bit plus one product per further set bit
    calls = []
    multiply = Scalar.__mul__

    def counted(a, b):
        calls.append(1)
        return multiply(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    for n, products in ((0, 0), (1, 0), (2, 1), (5, 3), (8, 3), (13, 5)):
        calls.clear()
        assert Scalar(3) ** n == Scalar(3 ** n)
        assert len(calls) == products, n


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
    assert scalar_to_expr(Scalar(Fraction(3, 2))) == "3/2"
    assert scalar_to_expr(Scalar(0, Fraction(1, 2))) == "1/2*I"
    assert scalar_to_expr(Scalar(0, 1)) == "I"
    assert scalar_to_expr(Scalar(0, -1)) == "-I"
    # mixed values parenthesize so they can be pasted into a product
    assert scalar_to_expr(Scalar(Fraction(3, 2), Fraction(1, 4))) == "(3/2+1/4*I)"


@pytest.mark.parametrize("render", [format_scalar, scalar_to_expr])
def test_printing_refuses_parts_over_the_digit_cap(render):
    widest = 10 ** MAX_DIGITS - 1
    assert render(Scalar(widest)) == str(widest)
    for z in (Scalar(widest + 1), Scalar(-widest - 1),
              Scalar(Fraction(1, widest + 1)), Scalar(1, widest + 1)):
        with pytest.raises(ResourceLimitError):
            render(z)
