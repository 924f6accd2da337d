"""GradedPoly products, derivatives and point values against sympy over QQ(I).

sympy is a test dependency only; the library never imports it.  Hypothesis
draws polynomials in even generators with Gaussian-rational coefficients,
one space carrying a truncated hbar, and each result of superalg's kernels
must equal sympy's exactly.
"""

from fractions import Fraction

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ_I, Poly

from starprod import GradedPoly, GradedSpace, Scalar, coeff_space
from starprod.superalg import _deriv, _Point

SPACES = [coeff_space(2), coeff_space(3),
          GradedSpace(("x1", "x2", "hbar"), (0, 0, 0), hbar_order=2)]

rationals = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(min_value=-10 ** 20, max_value=10 ** 20),
              st.integers(min_value=1, max_value=10 ** 20)))
gaussians = st.builds(Scalar, rationals, rationals)


def polys(space):
    keys = st.tuples(*[st.integers(min_value=0, max_value=4)] * len(space))
    return st.dictionaries(keys, gaussians, max_size=6).map(
        lambda terms: GradedPoly(space, terms))


def spaces_with(draw_polys):
    return st.sampled_from(SPACES).flatmap(draw_polys)


def number(z: Scalar):
    return sympy.Rational(z.re.numerator, z.re.denominator) \
        + sympy.I * sympy.Rational(z.im.numerator, z.im.denominator)


def symbols(space):
    return sympy.symbols(space.names)


def as_poly(p: GradedPoly) -> Poly:
    gens = symbols(p.space)
    expr = sympy.Add(*(number(c) * sympy.Mul(*(g ** e for g, e in zip(gens, key)))
                       for key, c in p.terms.items()))
    return Poly(expr, *gens, domain=QQ_I)


def derived(p: GradedPoly, counts) -> tuple[int, dict]:
    """d^counts p by superalg's kernel, as rows (a, b) by packed monomial
    over a denominator."""
    return p.den, _deriv(p.space._layout, p.rows, counts)


def from_rows(space, d: int, rows: dict) -> GradedPoly:
    """The polynomial of packed rows over d, through its unpacked keys."""
    return GradedPoly(space, {space._layout.unpack(key):
                              Scalar(Fraction(a, d), Fraction(b, d))
                              for key, (a, b) in rows.items()})


def truncated(poly: Poly, space) -> Poly:
    """poly without the monomials past the space's hbar order."""
    h = space.hbar_index
    if h is None:
        return poly
    kept = {k: v for k, v in poly.as_dict().items() if k[h] <= space.hbar_order}
    return Poly.from_dict(kept, *poly.gens, domain=QQ_I)


@given(pair=spaces_with(lambda s: st.tuples(polys(s), polys(s))))
@settings(max_examples=60, deadline=None)
def test_products_match_sympy(pair):
    a, b = pair
    assert as_poly(a * b) == truncated(as_poly(a) * as_poly(b), a.space)


@given(data=spaces_with(lambda s: st.tuples(
    polys(s), st.tuples(*[st.integers(min_value=0, max_value=3)] * len(s)))))
@settings(max_examples=60, deadline=None)
def test_derivatives_match_sympy(data):
    p, counts = data
    want = as_poly(p).diff(*zip(symbols(p.space), counts))
    assert as_poly(from_rows(p.space, *derived(p, counts))) == want


@given(data=spaces_with(lambda s: st.tuples(
    polys(s), st.lists(gaussians, min_size=len(s), max_size=len(s)),
    st.tuples(*[st.integers(min_value=0, max_value=2)] * len(s)))))
@settings(max_examples=60, deadline=None)
def test_point_values_match_sympy(data):
    p, values, counts = data
    gens = symbols(p.space)
    at = dict(zip(gens, map(number, values)))
    got = p.evaluate(dict(zip(p.space.names, values)))
    assert sympy.expand(number(got) - as_poly(p).as_expr().xreplace(at)) == 0
    # the point values behind star at a point: derivatives at the point,
    # one Gaussian integer over D q^deg
    want = as_poly(p).diff(*zip(gens, counts)).as_expr().xreplace(at)
    point, deg = _Point(values), p.total_degree()
    d, rows = derived(p, counts)
    re, im = point.value(rows, deg)
    den = d * point.q ** deg
    got = Scalar(Fraction(re, den), Fraction(im, den))
    assert sympy.expand(number(got) - want) == 0
