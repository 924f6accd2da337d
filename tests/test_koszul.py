"""Exterior calculus layer and the induced bracket on one-forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    DifferentialForm,
    InputError,
    Multivector,
    anchor,
    bullet,
    bullet_diagrams,
    coeff_space,
    exact_form,
    exterior_derivative,
    fixture,
    koszul_bracket,
    lie_derivative,
    one_form_insertion,
    parse_poly,
    poisson_bracket,
    vector_insertion,
)
import reference_brackets
from support import (odd_permutation, random_multivector, random_one_form,
                     random_poly, record_scans, relabel, repeated_scans)


def test_exact_form_is_the_gradient():
    ring = coeff_space(2)
    df = exact_form(parse_poly("x1^2*x2", ring))
    assert df.component(1) == parse_poly("2*x1*x2", ring)
    assert df.component(2) == parse_poly("x1^2", ring)


def test_exterior_derivative_squares_to_zero():
    rng = random.Random(3)
    for dim in (2, 3):
        ring = coeff_space(dim)
        w = random_one_form(rng, dim, ring)
        assert exterior_derivative(exterior_derivative(w)) == \
            DifferentialForm.zero(dim, 3)


def test_exterior_derivative_two_form_component():
    ring = coeff_space(3)
    w = DifferentialForm(3, 1, {(1,): parse_poly("x2*x3", ring)})
    dw = exterior_derivative(w)
    assert dw.component(1, 2) == parse_poly("-x3", ring)
    assert dw.component(1, 3) == parse_poly("-x2", ring)
    assert dw.component(2, 3).is_zero()


def test_vector_insertion_contracts_first_slot():
    ring = coeff_space(2)
    x = Multivector(2, 1, {(1,): parse_poly("x2", ring)})
    w = DifferentialForm(2, 2, {(1, 2): 1})
    assert vector_insertion(x, w).component(2) == parse_poly("x2", ring)
    f = DifferentialForm(2, 0, {(): parse_poly("x1", ring)})
    assert vector_insertion(x, f) == DifferentialForm.zero(2, 0)


def test_one_form_insertion_mirrors_vector_case():
    ring = coeff_space(2)
    w = DifferentialForm(2, 1, {(2,): parse_poly("x1", ring)})
    b = Multivector(2, 2, {(1, 2): 1})
    out = one_form_insertion(w, b)
    assert out.degree == 1
    assert out.component(1) == parse_poly("-x1", ring)


def test_cartan_formula_on_functions():
    ring = coeff_space(2)
    x = Multivector(2, 1, {(1,): parse_poly("x2", ring)})
    f = DifferentialForm(2, 0, {(): parse_poly("x1^2", ring)})
    out = lie_derivative(x, f)
    assert out.component() == parse_poly("2*x1*x2", ring)


def test_anchor_turns_forms_into_vectors():
    so3 = fixture("so3")
    ring = coeff_space(3)
    w = DifferentialForm(3, 1, {(1,): 1})
    x = anchor(so3, w)
    assert x.component(2) == parse_poly("x3", ring)
    assert x.component(3) == parse_poly("-x2", ring)
    assert x.component(1).is_zero()


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       dim=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_anchor_matches_the_reference_loop(seed, dim):
    rng = random.Random(seed)
    ring = coeff_space(dim)
    alpha = random_multivector(rng, dim, 2, ring)
    w = random_one_form(rng, dim, ring)
    assert anchor(alpha, w) == reference_brackets.anchor(alpha, w)


def test_bracket_routes_agree_on_random_inputs():
    rng = random.Random(17)
    for name in ("canonical2d", "so3", "nonpoisson4d"):
        alpha = fixture(name)
        ring = coeff_space(alpha.dim)
        for _ in range(8):
            w1 = random_one_form(rng, alpha.dim, ring)
            w2 = random_one_form(rng, alpha.dim, ring)
            geo = koszul_bracket(alpha, w1, w2, route="geometric")
            dia = koszul_bracket(alpha, w1, w2, route="diagram")
            assert geo == dia


@given(seed=st.integers(min_value=0, max_value=10 ** 6),
       dim=st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_bracket_is_equivariant_under_an_odd_permutation(seed, dim):
    """Relabelling the coordinates by a permutation of sign -1 moves the
    bivector, both one-forms and their bracket, along both routes."""
    rng = random.Random(seed)
    ring = coeff_space(dim)
    perm = odd_permutation(rng, dim)
    alpha = random_multivector(rng, dim, 2, ring)
    w1, w2 = random_one_form(rng, dim, ring), random_one_form(rng, dim, ring)
    moved = [relabel(x, perm) for x in (alpha, w1, w2)]
    for route in ("geometric", "diagram"):
        assert koszul_bracket(*moved, route=route) == \
            relabel(koszul_bracket(alpha, w1, w2, route=route), perm)


def test_bracket_of_exact_forms_tracks_function_bracket():
    rng = random.Random(19)
    for name in ("canonical2d", "so3", "nonpoisson4d"):
        alpha = fixture(name)
        ring = coeff_space(alpha.dim)
        for _ in range(8):
            f = random_poly(rng, ring)
            g = random_poly(rng, ring)
            lhs = koszul_bracket(alpha, exact_form(f), exact_form(g))
            rhs = exact_form(poisson_bracket(alpha, f, g))
            assert lhs == rhs


def _jacobiator(alpha, w1, w2, w3):
    def kb(a, b):
        return koszul_bracket(alpha, a, b)
    return kb(kb(w1, w2), w3) + kb(kb(w2, w3), w1) + kb(kb(w3, w1), w2)


def test_bracket_jacobi_for_poisson_structures():
    rng = random.Random(29)
    for name in ("canonical2d", "so3"):
        alpha = fixture(name)
        ring = coeff_space(alpha.dim)
        for _ in range(5):
            forms = [random_one_form(rng, alpha.dim, ring, max_coeff_degree=1)
                     for _ in range(3)]
            assert _jacobiator(alpha, *forms) == \
                DifferentialForm.zero(alpha.dim, 1)


def test_bracket_jacobi_fails_without_jacobi_upstairs():
    np4 = fixture("nonpoisson4d")
    ring = coeff_space(4)
    w1 = exact_form(parse_poly("x2", ring))
    w2 = exact_form(parse_poly("x3", ring))
    w3 = DifferentialForm(4, 1, {(1,): parse_poly("x4", ring)})
    defect = _jacobiator(np4, w1, w2, w3)
    assert defect == DifferentialForm(4, 1, {(1,): 1})


def test_diagram_catalog_is_complete():
    so3 = fixture("so3")
    ring = coeff_space(3)
    w1 = DifferentialForm(3, 1, {(1,): parse_poly("x2", ring), (3,): 1})
    w2 = DifferentialForm(3, 1, {(2,): parse_poly("x1^2", ring)})
    pieces = bullet_diagrams(so3, w1, w2)
    labels = [label for label, _ in pieces]
    assert labels == [
        "transport-of-second",
        "transport-of-first",
        "vertex-derivative",
        "tadpole-on-second",
        "tadpole-on-first",
    ]
    total = DifferentialForm.zero(3, 1)
    for _, piece in pieces:
        total = total + piece
    assert total == bullet(so3, w1, w2)
    # self-contraction pieces are symmetric, so they cancel in the bracket
    swapped = dict(bullet_diagrams(so3, w2, w1))
    assert dict(pieces)["tadpole-on-second"] == swapped["tadpole-on-first"]


def test_diagrams_differentiate_each_form_component_once(monkeypatch):
    """d_i w_k is scanned once per call for each component k and each index
    i the bivector names, not once per oriented bivector component."""
    so3 = fixture("so3")  # names every index in two components
    ring = coeff_space(3)

    def forms():
        return [DifferentialForm(3, 1, {
            (k,): parse_poly(f"x{k}^2 + {c}*x{j}", ring)
            for k, j in ((1, 2), (2, 3), (3, 1))}) for c in (2, 5)]

    want = bullet_diagrams(so3, *forms())
    fresh = forms()  # no derivative taken yet
    owner = {id(p): (n, k) for n, w in enumerate(fresh)
             for (k,), p in w.components.items()}
    scans = record_scans(monkeypatch)
    assert bullet_diagrams(so3, *fresh) == want
    assert sorted((*owner[id(p)], name) for p, name, _ in scans
                  if id(p) in owner) == \
        [(n, k, f"x{i}") for n in (0, 1) for k in (1, 2, 3) for i in (1, 2, 3)]
    assert repeated_scans(scans) == []


def test_diagrams_differentiate_each_bivector_component_once(monkeypatch):
    """d_k A^{ij} is scanned once per call for each stored component and
    each index k, not once per orientation and pattern."""
    # a copy of so3 whose components have no derivative taken yet
    so3 = Multivector.from_data(fixture("so3").to_data())
    ring = coeff_space(3)
    w1 = DifferentialForm(3, 1, {(1,): parse_poly("x2", ring), (3,): 1})
    w2 = DifferentialForm(3, 1, {(2,): parse_poly("x1^2", ring)})
    want = bullet_diagrams(fixture("so3"), w1, w2)
    owner = {id(p): key for key, p in so3.components.items()}
    scans = record_scans(monkeypatch)
    assert bullet_diagrams(so3, w1, w2) == want
    assert sorted((owner[id(p)], name) for p, name, _ in scans
                  if id(p) in owner) == \
        [(key, f"x{k}") for key in sorted(so3.components) for k in (1, 2, 3)]
    assert repeated_scans(scans) == []


def test_unknown_route_rejected():
    c2 = fixture("canonical2d")
    w = DifferentialForm(2, 1, {(1,): 1})
    with pytest.raises(InputError):
        koszul_bracket(c2, w, w, route="scenic")
