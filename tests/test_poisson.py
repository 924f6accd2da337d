"""Multivectors, the odd-symbol correspondence, and bracket layers."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    GradedPoly,
    InputError,
    Multivector,
    antibracket,
    coeff_space,
    fixture,
    is_poisson,
    jacobi_defect,
    jacobi_witness,
    parse_poly,
    poisson_bracket,
    poisson_differential,
    poly_to_expr,
    schouten,
    super_space,
    symbol,
    taylor_shift,
    unsymbol,
    wedge,
)
import reference_brackets
from reference_brackets import schouten_direct
from support import (odd_permutation, random_basepoint, random_multivector,
                     random_poly, record_scans, relabel, repeated_scans)


def test_component_storage_is_antisymmetric():
    ring = coeff_space(3)
    m = Multivector(3, 2, {(1, 2): parse_poly("x3", ring)})
    assert m.component(1, 2) == parse_poly("x3", ring)
    assert m.component(2, 1) == parse_poly("-x3", ring)
    assert m.component(1, 1).is_zero()


def test_component_keys_must_ascend():
    with pytest.raises(InputError):
        Multivector(3, 2, {(2, 1): 1})
    with pytest.raises(InputError):
        Multivector(3, 2, {(0, 1): 1})
    with pytest.raises(InputError):
        Multivector(3, 2, {(1,): 1})


def test_scalar_components_are_coerced():
    m = Multivector(2, 2, {(1, 2): Fraction(1, 2)})
    assert m.component(1, 2).constant_value().re == Fraction(1, 2)


def test_zero_components_are_dropped():
    m = Multivector(2, 1, {(1,): 0})
    assert m == Multivector.zero(2, 1)
    assert not m.components


def test_arithmetic_stays_within_type():
    ring = coeff_space(2)
    a = Multivector(2, 1, {(1,): parse_poly("x2", ring)})
    b = Multivector(2, 1, {(2,): 1})
    c = a + b - a
    assert isinstance(c, Multivector)
    assert c == b
    assert -(-a) == a
    assert 2 * a == a + a


def test_wedge_grading_and_sign():
    ring = coeff_space(3)
    e1 = Multivector(3, 1, {(1,): 1})
    e2 = Multivector(3, 1, {(2,): 1})
    e12 = wedge(e1, e2)
    assert e12.degree == 2
    assert e12.component(1, 2) == GradedPoly.one(ring)
    assert wedge(e2, e1) == -e12
    f = Multivector(3, 0, {(): parse_poly("x1", ring)})
    assert wedge(f, e1).component(1) == parse_poly("x1", ring)


def test_data_round_trip():
    so3 = fixture("so3")
    again = Multivector.from_data(so3.to_data())
    assert again == so3
    # omitted components mean the zero field
    assert Multivector.from_data({"dim": 2, "degree": 2}) == Multivector.zero(2, 2)
    with pytest.raises(InputError):
        Multivector.from_data({"degree": 2, "components": {}})
    for dim, degree in ((True, 2), ("2", 2), (2, 2.0)):
        with pytest.raises(InputError):
            Multivector.from_data({"dim": dim, "degree": degree})
    with pytest.raises(InputError):
        Multivector.from_data({"dim": 2, "degree": 2,
                               "components": {"2,1": "1"}})


@pytest.mark.parametrize("hbar_order", [0, 1, 2, 3])
def test_symbol_unsymbol_round_trip_at_origin(hbar_order):
    rng = random.Random(7)
    for dim in (1, 2, 3):
        ring = coeff_space(dim)
        for degree in range(0, dim + 1):
            m = random_multivector(rng, dim, degree, ring)
            sym = symbol(m, [0] * dim, hbar_order=hbar_order)
            back = unsymbol(sym, dim)
            if m.components:
                assert back == m
            else:
                # the zero symbol carries no degree information
                assert not back.components


def test_symbol_encodes_basepoint_shift():
    ring = coeff_space(2)
    m = Multivector(2, 1, {(1,): parse_poly("x1^2", ring)})
    sym = symbol(m, [Fraction(3), Fraction(0)])
    s = sym.space
    expanded = parse_poly("(xi1 + 3)^2 * eta1", s)
    assert sym == expanded


def test_antibracket_canonical_pairs():
    s = super_space(2)
    one = GradedPoly.one(s)
    xi1 = parse_poly("xi1", s)
    eta1 = parse_poly("eta1", s)
    eta2 = parse_poly("eta2", s)
    assert antibracket(xi1, eta1) == one
    assert antibracket(eta1, xi1) == -one
    assert antibracket(xi1, eta2).is_zero()
    assert antibracket(xi1, parse_poly("xi2", s)).is_zero()
    # operands from different spaces are refused by the shared core
    with pytest.raises(InputError):
        antibracket(xi1, parse_poly("xi1", super_space(2, 1)))


@st.composite
def multivector_pairs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    ring = coeff_space(dim)
    rng = random.Random(draw(st.integers(min_value=0, max_value=10 ** 6)))
    p = rng.randint(0, min(3, dim))
    q = rng.randint(0, min(3, dim))
    return (random_multivector(rng, dim, p, ring),
            random_multivector(rng, dim, q, ring))


@given(pair=multivector_pairs())
@settings(max_examples=100, deadline=None)
def test_bracket_matches_component_formula(pair):
    a, b = pair
    assert schouten(a, b) == schouten_direct(a, b)


@given(pair=multivector_pairs())
@settings(max_examples=60, deadline=None)
def test_bracket_graded_antisymmetry(pair):
    a, b = pair
    sign = -1 if ((a.degree - 1) * (b.degree - 1)) % 2 == 0 else 1
    flipped = schouten(b, a)
    expected = flipped if sign > 0 else -flipped
    assert schouten(a, b) == expected


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       dim=st.integers(min_value=2, max_value=4))
@settings(max_examples=50, deadline=None)
def test_bracket_is_equivariant_under_an_odd_permutation(seed, dim):
    """Relabelling the coordinates by a permutation of sign -1 commutes
    with the bracket."""
    rng = random.Random(seed)
    ring = coeff_space(dim)
    perm = odd_permutation(rng, dim)
    a, b = (random_multivector(rng, dim, rng.randint(1, min(3, dim)), ring)
            for _ in range(2))
    assert schouten(relabel(a, perm), relabel(b, perm)) == \
        relabel(schouten(a, b), perm)


@pytest.mark.parametrize("name", ["canonical2d", "so3", "nonpoisson4d"])
@given(seed=st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=15, deadline=None)
def test_differential_is_equivariant_under_an_odd_permutation(name, seed):
    """Relabelling xi_i, eta_i, the bivector and the basepoint by one
    permutation of sign -1 commutes with poisson_differential."""
    rng = random.Random(seed)
    alpha = fixture(name)
    d = alpha.dim
    space = super_space(d)
    perm = odd_permutation(rng, d)
    rename = {f"{letter}{i}": GradedPoly.generator(space, f"{letter}{j}")
              for i, j in perm.items() for letter in ("xi", "eta")}
    rename["hbar"] = GradedPoly.generator(space, "hbar")
    point = random_basepoint(rng, d)
    moved_point = [None] * d
    for i, j in perm.items():
        moved_point[j - 1] = point[i - 1]
    F = GradedPoly.zero(space)
    for _ in range(3):
        etas = rng.sample(range(1, d + 1), rng.randint(0, 2))
        term = random_poly(rng, space, max_degree=2, max_terms=2)
        for k in etas:
            term = term * GradedPoly.generator(space, f"eta{k}")
        F = F + term
    assert poisson_differential(relabel(alpha, perm),
                                F.map_into(space, rename), moved_point) == \
        poisson_differential(alpha, F, point).map_into(space, rename)


def test_bracket_of_vector_fields_is_negative_lie():
    ring = coeff_space(2)
    x = Multivector(2, 1, {(1,): 1})
    y = Multivector(2, 1, {(1,): parse_poly("x1", ring)})
    assert schouten(x, y) == Multivector(2, 1, {(1,): -1})


def test_poisson_bracket_values():
    so3 = fixture("so3")
    ring = coeff_space(3)
    x1 = parse_poly("x1", ring)
    x2 = parse_poly("x2", ring)
    assert poisson_bracket(so3, x1, x2) == parse_poly("x3", ring)
    assert poisson_bracket(so3, x2, x1) == parse_poly("-x3", ring)


def test_poisson_bracket_leibniz():
    rng = random.Random(11)
    so3 = fixture("so3")
    ring = coeff_space(3)
    for _ in range(20):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        h = random_poly(rng, ring)
        lhs = poisson_bracket(so3, f, g * h)
        rhs = poisson_bracket(so3, f, g) * h + g * poisson_bracket(so3, f, h)
        assert lhs == rhs


def test_jacobi_classification_of_fixtures():
    assert is_poisson(fixture("canonical2d"))
    assert is_poisson(fixture("so3"))
    np4 = fixture("nonpoisson4d")
    assert not is_poisson(np4)
    indices, defect = jacobi_witness(np4)
    assert indices == (2, 3, 4)
    assert poly_to_expr(defect) == "1"
    assert jacobi_defect(np4, 2, 3, 4) == defect
    assert jacobi_witness(fixture("so3")) is None


def test_jacobi_witness_differentiates_each_component_once(monkeypatch):
    """so3 plus a central x4: every triple's defect is zero, so each of the
    four runs, and A^{12} and A^{23} each meet two triples unnegated; each
    stored component is still scanned once in each coordinate it holds."""
    ring = coeff_space(4)
    alpha = Multivector(4, 2, {(1, 2): parse_poly("x3", ring),
                               (2, 3): parse_poly("x1", ring),
                               (1, 3): parse_poly("-x2", ring)})
    owner = {id(p): key for key, p in alpha.components.items()}
    scans = record_scans(monkeypatch)
    assert jacobi_witness(alpha) is None
    assert sorted((owner[id(p)], name) for p, name, _ in scans
                  if id(p) in owner) == [((1, 2), "x3"), ((1, 3), "x2"),
                                         ((2, 3), "x1")]
    assert repeated_scans(scans) == []


@pytest.mark.parametrize("name", ["canonical2d", "so3", "nonpoisson4d"])
def test_jacobi_defect_matches_the_reference_loop_on_fixtures(name):
    alpha = fixture(name)
    # every ordered triple, repeats included, so components are also read
    # against their stored orientation and on the diagonal
    for triple in product(range(1, alpha.dim + 1), repeat=3):
        assert jacobi_defect(alpha, *triple) == \
            reference_brackets.jacobi_defect(alpha, *triple)


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       dim=st.sampled_from([3, 4]))
@settings(max_examples=20, deadline=None)
def test_jacobi_defect_matches_the_reference_loop(seed, dim):
    rng = random.Random(seed)
    alpha = random_multivector(rng, dim, 2, coeff_space(dim))
    for triple in permutations(range(1, dim + 1), 3):
        assert jacobi_defect(alpha, *triple) == \
            reference_brackets.jacobi_defect(alpha, *triple)


def test_self_bracket_detects_jacobi():
    # [alpha, alpha] = 0 exactly when the bracket satisfies Jacobi
    assert schouten(fixture("so3"), fixture("so3")) == Multivector.zero(3, 3)
    np4 = fixture("nonpoisson4d")
    assert schouten(np4, np4) != Multivector.zero(4, 3)


def test_differential_on_coordinates():
    c2 = fixture("canonical2d")
    s = super_space(2)
    xi1 = parse_poly("xi1", s)
    assert poisson_differential(c2, xi1, [0, 0]) == parse_poly("eta2", s)


def test_differential_squares_to_zero_only_for_poisson():
    for name in ("canonical2d", "so3"):
        alpha = fixture(name)
        s = super_space(alpha.dim)
        bp = [Fraction(1)] * alpha.dim
        rng = random.Random(5)
        for text in [f"xi{i}" for i in range(1, alpha.dim + 1)]:
            g = parse_poly(text, s)
            dd = poisson_differential(alpha, poisson_differential(alpha, g, bp), bp)
            assert dd.is_zero()
    np4 = fixture("nonpoisson4d")
    s4 = super_space(4)
    bp4 = [0, 0, 0, 0]
    xi2 = parse_poly("xi2", s4)
    dd = poisson_differential(np4, poisson_differential(np4, xi2, bp4), bp4)
    assert dd == parse_poly("-eta3*eta4", s4)


def test_unsymbol_rejects_deformation_terms():
    s = super_space(2)
    with pytest.raises(Exception):
        unsymbol(parse_poly("hbar*eta1", s), 2)
