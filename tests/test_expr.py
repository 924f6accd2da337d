"""Parser and printer for the rational-coefficient expression language."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    GradedSpace,
    InputError,
    parse_expr,
    parse_poly,
    poly_to_expr,
    coeff_space,
    super_space,
)
from starprod.expr import MAX_NESTING
from support import random_poly


def test_literals_and_rationals():
    ring = coeff_space(1)
    assert poly_to_expr(parse_poly("7", ring)) == "7"
    assert poly_to_expr(parse_poly("3/6", ring)) == "1/2"
    assert poly_to_expr(parse_poly("0", ring)) == "0"


def test_imaginary_unit():
    ring = coeff_space(1)
    assert poly_to_expr(parse_poly("I*I", ring)) == "-1"
    assert poly_to_expr(parse_poly("2*I*x1", ring)) == "2*I*x1"


def test_precedence_and_parentheses():
    ring = coeff_space(2)
    assert parse_poly("x1 + x2*x1^2", ring) == \
        parse_poly("x1 + (x2*(x1^2))", ring)
    assert parse_poly("(x1 + x2)^2", ring) == \
        parse_poly("x1^2 + 2*x1*x2 + x2^2", ring)
    assert parse_poly("-x1^2", ring) == -parse_poly("x1^2", ring)


def test_subtraction_chains_left_associative():
    ring = coeff_space(1)
    assert parse_poly("3 - 2 - 1", ring).constant_value().re == 0


def test_odd_generators_square_to_zero_in_source():
    s = super_space(1)
    assert parse_poly("eta1^2", s).is_zero()
    assert parse_poly("eta1^1", s) == parse_poly("eta1", s)


def test_error_positions_are_one_based_columns():
    ring = coeff_space(1)
    with pytest.raises(InputError, match="column 6"):
        parse_poly("x1 + ", ring)
    with pytest.raises(InputError, match="column 1"):
        parse_poly("$", ring)
    with pytest.raises(InputError, match="column 4"):
        parse_poly("x1^-2", ring)
    with pytest.raises(InputError, match="column 6"):
        parse_poly("x1 + y2", ring)


def test_unknown_name_and_empty_input():
    ring = coeff_space(2)
    with pytest.raises(InputError):
        parse_poly("x3", ring)
    with pytest.raises(InputError):
        parse_poly("", ring)
    with pytest.raises(InputError):
        parse_poly("   ", ring)


def test_zero_denominator_rejected():
    ring = coeff_space(1)
    with pytest.raises(InputError):
        parse_poly("1/0", ring)


def test_trailing_junk_rejected():
    ring = coeff_space(1)
    with pytest.raises(InputError):
        parse_poly("x1 x1", ring)
    with pytest.raises(InputError):
        parse_poly("(x1))", ring)


def test_printer_orders_terms_by_total_degree():
    ring = coeff_space(2)
    text = poly_to_expr(parse_poly("x2^3 + x1 + 5 + x1*x2", ring))
    assert text == "5 + x1 + x1*x2 + x2^3"


def test_printer_handles_signs_and_unit_coefficients():
    ring = coeff_space(2)
    assert poly_to_expr(parse_poly("-x1 + x2", ring)) == "-x1 + x2"
    assert poly_to_expr(parse_poly("-1 - x1", ring)) == "-1 - x1"
    assert poly_to_expr(parse_poly("-I*x1", ring)) == "-I*x1"


@st.composite
def ring_polys(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    ring = coeff_space(dim)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    return random_poly(rng, ring, max_degree=4, max_terms=5)


@given(p=ring_polys())
@settings(max_examples=150, deadline=None)
def test_round_trip_is_identity(p):
    assert parse_poly(poly_to_expr(p), p.space) == p


@given(p=ring_polys())
@settings(max_examples=60, deadline=None)
def test_printing_is_idempotent(p):
    once = poly_to_expr(p)
    again = poly_to_expr(parse_poly(once, p.space))
    assert once == again


def test_round_trip_covers_odd_generators():
    s = super_space(2)
    p = parse_poly("xi1*eta1 - 2*eta1*eta2 + hbar*xi2", s)
    assert parse_poly(poly_to_expr(p), s) == p


def test_parse_expr_exposes_positions():
    node = parse_expr("x1 + 2")
    # the AST keeps 1-based source columns for diagnostics
    assert type(node).__name__ == "Add"
    assert node.pos == 4


def test_long_sums_round_trip():
    ring = coeff_space(3)
    p = parse_poly("(x1 + x2 + x3 + 1)^20", ring)
    assert len(p.terms) == 1771
    assert parse_poly(poly_to_expr(p), ring) == p


def test_nesting_cap_and_literal_length():
    ring = coeff_space(1)
    deep = "(" * MAX_NESTING + "-x1" + ")" * MAX_NESTING
    with pytest.raises(InputError, match=f"cap of {MAX_NESTING}"):
        parse_poly(deep, ring)
    assert parse_poly(deep[1:-1], ring) == -parse_poly("x1", ring)
    with pytest.raises(InputError, match=f"cap of {MAX_NESTING}"):
        parse_poly("-" * (MAX_NESTING + 1) + "x1", ring)
    assert parse_poly("1" * 4300, ring).constant_value().re == int("1" * 4300)
    for text in ("1" * 4301, "1/" + "1" * 4301, "x1^" + "1" * 4301):
        with pytest.raises(InputError, match="4300 digits"):
            parse_poly(text, ring)
