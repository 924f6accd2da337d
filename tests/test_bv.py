"""Odd bracket, odd Laplacian, and the master-equation layer."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from starprod import (
    BVSpace,
    GradedPoly,
    InputError,
    Scalar,
    bv_bracket,
    bv_laplacian,
    check_bv_axioms,
    fixture,
    omega,
    parse_poly,
    poly_to_expr,
    qme_residual,
    super_space,
    symbol,
)
from support import record_scans, repeated_scans


def even_odd_space():
    return BVSpace.build([("v", 0), ("c", 1)])


def test_build_assigns_flipped_parities_and_default_names():
    bvs = BVSpace.build([("v", 0), ("c", 1)])
    assert bvs.space.names == ("v", "c", "vp", "cp", "hbar")
    assert bvs.space.parities == (0, 1, 1, 0, 0)
    assert bvs.pairs == (("v", "vp"), ("c", "cp"))


def test_build_accepts_antifield_renames():
    bvs = BVSpace.build([("xi1", 0)], antifields={"xi1": "eta1"})
    assert bvs.space.names == ("xi1", "eta1", "hbar")
    with pytest.raises(InputError):
        BVSpace.build([("v", 0)], antifields={"w": "wp"})
    with pytest.raises(InputError):
        BVSpace.build([("v", 0), ("vp", 0)])


@pytest.mark.parametrize("fields, hbar_order", [
    ([("v", 0)], -1),
    ([("v", 0)], True),
    ([("v", True)], 2),
    ([("v", 0.0)], 2),
    ("v0", 2),
    ([("v", 0, 7)], 2),
])
def test_build_checks_each_declaration(fields, hbar_order):
    with pytest.raises(InputError):
        BVSpace.build(fields, hbar_order=hbar_order)


@pytest.mark.parametrize("fields, antifields", [
    ([("x y", 0)], None),
    ([("I", 0)], None),
    ([("2v", 1)], None),
    ([("v\u00e9", 0)], None),
    ([("v", 0)], {"v": "I"}),
    ([("v", 0)], {"v": "v p"}),
    ([("v", 0)], {"v": "v+w"}),
    ([("v", 0)], {"v": 5}),
    ([("v", 0)], {"v": ""}),
])
def test_build_refuses_names_the_grammar_cannot_spell(fields, antifields):
    # "I" would read as the imaginary unit and "x y" as no name at all
    with pytest.raises(InputError, match="cannot be written in an expression"):
        BVSpace.build(fields, antifields)


def test_build_accepts_every_name_the_grammar_spells():
    bvs = BVSpace.build([("v", 0), ("w", 0), ("c", 1), ("_q2", 1), ("Iv", 0)],
                        antifields={"v": "I_", "Iv": "J"})
    assert bvs.space.names == ("v", "w", "c", "_q2", "Iv",
                               "I_", "wp", "cp", "_q2p", "J", "hbar")
    assert bvs.poly("I_*v") == bvs.poly("v*I_")


def test_data_round_trip():
    bvs = BVSpace.build([("v", 0), ("c", 1)], hbar_order=2)
    again = BVSpace.from_data(bvs.to_data())
    assert again == bvs
    renamed = BVSpace.build([("q", 0)], antifields={"q": "star_q"})
    assert BVSpace.from_data(renamed.to_data()) == renamed
    with pytest.raises(InputError):
        BVSpace.from_data({"fields": [["v", 0, 7]]})


def test_bracket_pairs_fields_with_antifields():
    bvs = even_odd_space()
    one = GradedPoly.one(bvs.space)
    assert bv_bracket(bvs, bvs.poly("v"), bvs.poly("vp")) == one
    assert bv_bracket(bvs, bvs.poly("vp"), bvs.poly("v")) == -one
    assert bv_bracket(bvs, bvs.poly("c"), bvs.poly("cp")) == one
    assert bv_bracket(bvs, bvs.poly("v"), bvs.poly("cp")).is_zero()


def test_laplacian_golden_signs():
    bvs = even_odd_space()
    assert bv_laplacian(bvs, bvs.poly("v*vp")) == GradedPoly.one(bvs.space)
    assert bv_laplacian(bvs, bvs.poly("c*cp")) == -GradedPoly.one(bvs.space)
    assert bv_laplacian(bvs, bvs.poly("v^2")).is_zero()


def test_laplacian_fails_leibniz_by_exactly_the_bracket():
    bvs = even_odd_space()
    # for even f the Leibniz defect of the Laplacian is the odd bracket
    f = bvs.poly("vp*c")
    g = bvs.poly("v*vp")
    defect = bv_laplacian(bvs, f * g) - bv_laplacian(bvs, f) * g \
        - f * bv_laplacian(bvs, g)
    assert defect == bv_bracket(bvs, f, g)
    assert not defect.is_zero()


def random_homogeneous(rng, bvs, parity, max_terms=3, max_factors=4):
    names = list(bvs.space.names[:-1])
    while True:
        total = GradedPoly.zero(bvs.space)
        for _ in range(rng.randint(1, max_terms)):
            term = GradedPoly.constant(
                bvs.space, Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2))))
            for _ in range(rng.randint(0, max_factors)):
                term = term * GradedPoly.generator(bvs.space, rng.choice(names))
            if term.parity() == parity:
                total = total + term
        if total.parity() == parity and not total.is_zero():
            return total


def test_axiom_suite_on_random_triples():
    rng = random.Random(61)
    layouts = [
        [("v", 0)],
        [("v", 0), ("c", 1)],
        [("c1", 1), ("c2", 1)],
        [("a", 0), ("b", 0), ("c", 1)],
    ]
    for layout in layouts:
        bvs = BVSpace.build(layout)
        for _ in range(10):
            f = random_homogeneous(rng, bvs, rng.randint(0, 1))
            g = random_homogeneous(rng, bvs, rng.randint(0, 1))
            h = random_homogeneous(rng, bvs, rng.randint(0, 1))
            rep = check_bv_axioms(bvs, f, g, h)
            assert rep.all_zero(), {k: poly_to_expr(v)
                                    for k, v in rep.residuals().items()}


def test_axiom_suite_differentiates_each_operand_once(monkeypatch):
    """check_bv_axioms brackets f, g and h several times and takes the
    laplacian of f; each operand is still scanned once per generator and
    side, and a side is its own scan only for the odd generators c and vp."""
    bvs = even_odd_space()
    f, g, h = (bvs.poly(text) for text in ("v*c*vp + v^2*cp", "c*cp + 2*v*c",
                                           "v^3*vp"))
    scans = record_scans(monkeypatch)
    assert check_bv_axioms(bvs, f, g, h).all_zero()
    owner = {id(f): "f", id(g): "g", id(h): "h"}
    counts = Counter((owner[id(p)], name) for p, name, _ in scans
                     if id(p) in owner)
    # f and g are bracketed in both slots, h only in the second
    assert counts == {**{(x, "v"): 1 for x in "fgh"},
                      **{(x, "cp"): 1 for x in "fgh"},
                      **{(x, name): 2 for x in "fg" for name in ("c", "vp")},
                      ("h", "c"): 1, ("h", "vp"): 1}
    assert repeated_scans(scans) == []


def test_axiom_suite_requires_homogeneous_inputs():
    bvs = even_odd_space()
    mixed = bvs.poly("v + c")
    with pytest.raises(InputError):
        check_bv_axioms(bvs, mixed, bvs.poly("v"), bvs.poly("v"))


def test_master_equation_solution_and_anomaly():
    bvs = even_odd_space()
    good = qme_residual(bvs, bvs.poly("vp*c"))
    assert good.solves()
    assert good.classical.is_zero()
    assert good.residual.is_zero()

    bad = qme_residual(bvs, bvs.poly("vp*c + vp*v*c"))
    assert bad.classical.is_zero()
    assert not bad.solves()
    assert poly_to_expr(bad.residual) == "-2*I*c*hbar"


def test_master_equation_rejects_odd_actions():
    bvs = even_odd_space()
    with pytest.raises(InputError):
        qme_residual(bvs, bvs.poly("v*vp"))


def test_omega_squares_to_zero_for_solutions():
    bvs = even_odd_space()
    action = bvs.poly("vp*c")
    rng = random.Random(67)
    for _ in range(15):
        obs = random_homogeneous(rng, bvs, rng.randint(0, 1))
        once = omega(bvs, action, obs)
        assert omega(bvs, action, once).is_zero()


def test_omega_requires_a_solution():
    bvs = even_odd_space()
    with pytest.raises(InputError):
        omega(bvs, bvs.poly("vp*c + vp*v*c"), bvs.poly("v"))


def test_poisson_symbols_solve_the_master_equation():
    for name in ("canonical2d", "so3"):
        alpha = fixture(name)
        d = alpha.dim
        bvs = BVSpace.build(
            [(f"xi{i}", 0) for i in range(1, d + 1)],
            antifields={f"xi{i}": f"eta{i}" for i in range(1, d + 1)})
        assert bvs.space == super_space(d)
        res = qme_residual(bvs, symbol(alpha, [0] * d))
        assert res.solves()
    np4 = fixture("nonpoisson4d")
    bvs4 = BVSpace.build(
        [(f"xi{i}", 0) for i in range(1, 5)],
        antifields={f"xi{i}": f"eta{i}" for i in range(1, 5)})
    res = qme_residual(bvs4, symbol(np4, [0, 0, 0, 0]))
    assert not res.classical.is_zero()
    assert not res.solves()
