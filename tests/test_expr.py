"""Parser and printer for the rational-coefficient expression language."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    GradedPoly,
    GradedSpace,
    InputError,
    ResourceLimitError,
    parse_expr,
    parse_poly,
    poly_to_expr,
    coeff_space,
    super_space,
)
from starprod.expr import MAX_NESTING, Add, Name, Num, Sub
from starprod.scalars import parse_rational
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


def test_leaves_follow_the_product_rules():
    s = super_space(2)
    # odd generators square to zero, whether raised or multiplied in
    assert parse_poly("eta1^2", s).is_zero()
    assert parse_poly("eta1*eta1", s).is_zero()
    assert parse_poly("xi1*eta1*xi2*eta1", s).is_zero()
    # moving eta1 past eta2 from the right costs a sign; xi1 costs none
    assert parse_poly("eta2*eta1", s) == -parse_poly("eta1*eta2", s)
    assert parse_poly("eta2*xi1*eta1", s) == -parse_poly("xi1*eta1*eta2", s)
    assert parse_poly("(eta1*eta2)^2", s).is_zero()
    # an odd base to a power past 1 is 0 before any power cap is checked;
    # an even one meets them
    assert parse_poly("eta1^5000", s).is_zero()
    assert parse_poly("(xi1^501*eta1)^2", s).is_zero()
    assert parse_poly("(xi1^501*eta1 + eta2)^2", s).is_zero()
    with pytest.raises(ResourceLimitError, match="degree 1006 exceeds"):
        parse_poly("(xi1^501*eta1*eta2)^2", s)
    # hbar past the space's order is dropped, as in a product
    assert parse_poly("hbar", super_space(1, 0)).is_zero()
    assert parse_poly("2*hbar*xi1 + 1", super_space(1, 0)) == \
        parse_poly("1", super_space(1, 0))
    assert parse_poly("hbar^2*hbar", s) == parse_poly("hbar^3", s)
    assert parse_poly("hbar^2*hbar*hbar", s).is_zero()
    assert parse_poly("hbar^4", s).is_zero()
    ring = coeff_space(1)
    assert parse_poly("I^4", ring) == parse_poly("1", ring)
    assert poly_to_expr(parse_poly("(1/2 - 1/2*I)^3", ring)) == \
        "(-1/4-1/4*I)"
    assert poly_to_expr(parse_poly("2/4*x1*2*I", ring)) == "I*x1"
    assert parse_poly("x1*0*x1", ring).is_zero()


def test_odd_bases_are_zero_past_the_first_power_before_any_cap():
    # `**` and an expression's ^ share one rule: a base with every term odd
    # is zero past the first power, however many terms it has, before the
    # degree, bits and term caps are read
    s = super_space(2)
    for text in ("(eta1 + eta2)", "(eta1 + xi1*eta2)",
                 "(eta1 + xi1^600*eta2)", "(1/3*eta1 - I*xi2*eta2)"):
        base = parse_poly(text, s)
        for n in (2, 1001):
            assert (base ** n).is_zero(), (text, n)
            assert base ** n == parse_poly(f"{text}^{n}", s)
        assert base ** 1 == base and base ** 0 == GradedPoly.one(s)
    # an even base keeps its refusal and message
    x1 = GradedPoly.generator(coeff_space(1), "x1")
    with pytest.raises(ResourceLimitError) as err:
        x1 ** 1001
    assert str(err.value) == "a power of degree 1001 exceeds the cap of 1000"


def test_odd_and_even_bases_refuse_a_bad_exponent_alike():
    # the exponent is read before the odd-base rule, so an odd base refuses
    # what an even one refuses, with the same message
    s = super_space(2)
    bases = [parse_poly(text, s) for text in ("eta1", "eta1 + eta2", "xi1",
                                              "xi1 + eta1*eta2")]
    for n in ("2", None, 2.5, -1, True):
        messages = set()
        for base in bases:
            with pytest.raises(InputError) as err:
                base ** n
            messages.add(str(err.value))
        assert messages == \
            {"a polynomial power's exponent must be an integer >= 0"}, n


def test_leaves_meet_the_caps_with_the_same_messages():
    ring = coeff_space(3)
    with pytest.raises(ResourceLimitError) as err:
        parse_poly("x1^1001", ring)
    assert str(err.value) == "a power of degree 1001 exceeds the cap of 1000"
    with pytest.raises(ResourceLimitError) as err:
        parse_poly("1" + "0" * 45 + "^700", ring)  # 150 bits each
    assert str(err.value) == ("a power with coefficients of about 105000 "
                              "bits exceeds the cap of 100000")
    # the 5,456 monomials of degree 30 or less times a number, I or a
    # generator meet the term cap of a product; times 0 they are 0
    total = "((x1+x2+x3+1)^25" + "".join(
        f" + (x1+x2+x3)^{k}" for k in range(26, 31)) + ")"
    for leaf in ("2", "I", "x1"):
        with pytest.raises(ResourceLimitError) as err:
            parse_poly(f"{total}*{leaf}", ring)
        assert str(err.value) == ("a product with up to 5456 terms exceeds "
                                  "the cap of 5000 terms")
    assert parse_poly(f"{total}*0", ring).is_zero()


def test_a_lexing_error_anywhere_comes_first():
    ring = coeff_space(1)
    with pytest.raises(InputError) as err:
        parse_poly("x1 + ) $", ring)
    assert str(err.value) == "unexpected character '$' at column 8"
    with pytest.raises(InputError) as err:
        parse_poly("y + ) x1^1001", ring)
    assert str(err.value) == "unexpected ')' at column 5"
    with pytest.raises(InputError) as err:
        parse_poly("y + x1^1001", ring)
    assert str(err.value) == "unknown generator 'y' at column 1"


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
    assert node == Add(Name("x1", 1), Num(Fraction(2), 6), 4)
    assert node != Sub(Name("x1", 1), Num(Fraction(2), 6), 4)
    assert node != parse_expr("x1 + 3") and node != parse_expr("x2 + 2")
    assert hash(node) == hash(parse_expr("x1 + 2"))
    assert repr(parse_expr("-x1^2")) == \
        "Neg(arg=Pow(base=Name(ident='x1', pos=2), exponent=2, pos=4), pos=1)"


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
    # integer literals read as ints, the others as Fractions
    assert type(parse_rational("7", "at column 1")) is int
    assert parse_rational("-7", "at column 1") == -7
    assert type(parse_rational("-7/3", "at column 1")) is Fraction
    for text, message in [
            ("1.5", "bad rational '1.5' at column 1; use literals like 2 or "
                    "-1/3"),
            ("5/0", "zero denominator at column 1"),
            ("1" * 4301, "literal at column 1 exceeds the cap of 4300 digits")]:
        with pytest.raises(InputError) as err:
            parse_rational(text, "at column 1")
        assert str(err.value) == message
    with pytest.raises(InputError) as err:
        parse_poly("x1^" + "1" * 4301, ring)
    assert str(err.value) == "literal at column 4 exceeds the cap of 4300 digits"
