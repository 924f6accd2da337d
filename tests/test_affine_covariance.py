"""Affine covariance of the deformed product, its associator and the
brackets built from the same bivector.

Every term of B_n contracts the indices of the bivector, of the derivatives
and of the factors tensorially, and an affine map x = L y + c has no second
derivatives.  So pulling the bivector and the factors back along the map,

    (phi*A)^{ab}(y) = (L^-1)^a_i (L^-1)^b_j A^{ij}(L y + c),

pulls back every order of f * g and of the associator, the bracket {f, g}
and the Koszul bracket of one-forms.  A dense L makes the pulled-back data
dense, so the two sides of a product run different admitted sets, landable
leg vectors, kept cells and walked rows, and must still agree exactly.
"""

import random
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (DifferentialForm, GradedPoly, Multivector, associator,
                      coeff_space, fixture, koszul_bracket, parse_poly,
                      poisson_bracket, star, star_poly)
from starprod import wick
from support import random_multivector, random_one_form, random_poly


def _inverse(m):
    """The inverse of a square Fraction matrix, or None if it is singular;
    Gauss-Jordan elimination."""
    d = len(m)
    rows = [list(map(Fraction, row)) + [Fraction(int(i == j))
                                        for j in range(d)]
            for i, row in enumerate(m)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(d):
            if r != col and rows[r][col]:
                rows[r] = [x - rows[r][col] * y
                           for x, y in zip(rows[r], rows[col])]
    return [row[d:] for row in rows]


class Affine:
    """x = L y + c on coeff_space(d), and the pull-backs along it."""

    def __init__(self, m, shift):
        self.m, self.shift, self.inv = m, shift, _inverse(m)
        self.ring = ring = coeff_space(len(m))
        ys = [GradedPoly.generator(ring, f"x{j}")
              for j in range(1, len(m) + 1)]
        # x_i as a polynomial in the y's, which the ring names x1..xd too
        self.images = {f"x{i + 1}": sum(
            (y * entry for y, entry in zip(ys, row) if entry),
            GradedPoly.constant(ring, shift[i])) for i, row in enumerate(m)}

    def poly(self, p):
        return p.map_into(self.ring, self.images)

    def bivector(self, alpha):
        d, inv = alpha.dim, self.inv
        moved = {key: self.poly(p) for key, p in alpha.components.items()}
        out = {}
        for a, b in combinations(range(d), 2):
            # A^{ji} = -A^{ij}: each stored component in both orientations
            out[a + 1, b + 1] = sum((
                p * (inv[a][i - 1] * inv[b][j - 1]
                     - inv[a][j - 1] * inv[b][i - 1])
                for (i, j), p in moved.items()), GradedPoly.zero(self.ring))
        return Multivector(d, 2, out)

    def one_form(self, w):
        """dx_i = L_ia dy_a, so (phi*w)_a = L_ia w_i(L y + c)."""
        moved = {i: self.poly(p) for (i,), p in w.components.items()}
        return DifferentialForm(len(self.m), 1, {(a + 1,): sum(
            (p * self.m[i - 1][a] for i, p in moved.items()),
            GradedPoly.zero(self.ring)) for a in range(len(self.m))})

    def point(self, y):
        """x = L y + c."""
        return [sum(e * v for e, v in zip(row, y)) + c
                for row, c in zip(self.m, self.shift)]


def _quadratic3(seed):
    rng = random.Random(seed)
    return random_multivector(rng, 3, 2, coeff_space(3), max_coeff_degree=2)


small = st.integers(min_value=-2, max_value=2)
rationals = st.builds(Fraction, small, st.integers(min_value=1, max_value=3))


@st.composite
def affine_maps(draw, d):
    """A small integer L with nonzero determinant, or the identity (a pure
    translation, which checks the basepoint path against shifted data),
    and a rational translation c."""
    if draw(st.booleans()):
        m = [[int(i == j) for j in range(d)] for i in range(d)]
    else:
        m = draw(st.lists(st.lists(small, min_size=d, max_size=d),
                          min_size=d, max_size=d).filter(
                              lambda m: _inverse(m) is not None))
    return Affine(m, draw(st.lists(rationals, min_size=d, max_size=d)))


# a fixture's name, or the seed of a random dim-3 quadratic bivector
bivectors = st.one_of(st.sampled_from(["so3", "nonpoisson4d"]),
                      st.integers(min_value=0, max_value=10 ** 6))


@given(name=bivectors, order=st.integers(min_value=1, max_value=4),
       data=st.data())
@settings(max_examples=30, deadline=None)
def test_products_and_brackets_pull_back(name, order, data):
    alpha = fixture(name) if isinstance(name, str) else _quadratic3(name)
    d = alpha.dim
    phi = data.draw(affine_maps(d))
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10 ** 6)))
    f, g, h = (random_poly(rng, alpha.ring(), max_degree=2, max_terms=3)
               for _ in range(3))
    y0 = data.draw(st.lists(rationals, min_size=d, max_size=d))
    x0 = phi.point(y0)
    back = phi.bivector(alpha)
    pf, pg, ph = phi.poly(f), phi.poly(g), phi.poly(h)
    assert star_poly(back, pf, pg, order=order) == {
        k: phi.poly(p) for k, p in star_poly(alpha, f, g, order=order).items()}
    assert star(back, pf, pg, y0, order=order) == \
        star(alpha, f, g, x0, order=order)
    assert associator(back, pf, pg, ph, y0, order=order) == \
        associator(alpha, f, g, h, x0, order=order)
    assert poisson_bracket(back, pf, pg) == \
        phi.poly(poisson_bracket(alpha, f, g))
    w1, w2 = (random_one_form(rng, d, alpha.ring()) for _ in range(2))
    assert koszul_bracket(back, phi.one_form(w1), phi.one_form(w2)) == \
        phi.one_form(koszul_bracket(alpha, w1, w2))


def test_a_dense_pull_back_past_the_cells_share_agrees():
    """A sparse dim-8 bivector pulled back along a dense L: 28 dense
    components, whose record passes its share of the pieces table at order
    2, so its cells are dropped after each product and the point value
    walks them again, while the sparse original keeps its cells."""
    ring = coeff_space(8)
    alpha = Multivector(8, 2, {(1, 2): GradedPoly.generator(ring, "x3"),
                               (3, 6): GradedPoly.generator(ring, "x8"),
                               (4, 5): GradedPoly.generator(ring, "x6") + 1,
                               (7, 8): 1})
    rng = random.Random(3)
    m = None
    while m is None or _inverse(m) is None:
        m = [[rng.randint(-1, 1) for _ in range(8)] for _ in range(8)]
    phi = Affine(m, [Fraction(rng.randint(-2, 2), 2) for _ in range(8)])
    back = phi.bivector(alpha)
    assert len(back.components) == 28
    f, g = parse_poly("x1*x4 + x7", ring), parse_poly("x2*x5 - x8^2", ring)
    y0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
    assert star_poly(back, phi.poly(f), phi.poly(g), order=2) == {
        k: phi.poly(p) for k, p in star_poly(alpha, f, g, order=2).items()}
    records = {len(p.keys): p for p in wick._TABLE.values()}
    assert records[28].cells == {} and records[4].cells
    assert star(back, phi.poly(f), phi.poly(g), y0, order=2) == \
        star(alpha, f, g, phi.point(y0), order=2)
