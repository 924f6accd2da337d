"""Stratum bookkeeping for the compactified configuration polytopes."""

from collections import namedtuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import (
    FacetComposition,
    InputError,
    ResourceLimitError,
    Stratum,
    dim,
    enumerate_strata,
    facet_compositions,
    stratum_count,
)
from starprod import moduli
from starprod.moduli import MAX_N

from reference_moduli import reference_strata

# interior strata count 1; each extra nesting level adds a codimension
SUPERCATALAN = {2: 1, 3: 3, 4: 11, 5: 45, 6: 197, 7: 903}
CATALAN = {2: 1, 3: 2, 4: 5, 5: 14, 6: 42, 7: 132}


def test_dimension_formula():
    assert dim(2) == 0
    assert dim(5) == 3
    with pytest.raises(InputError):
        dim(1)


def test_total_stratum_counts():
    for n, expected in SUPERCATALAN.items():
        total = sum(len(enumerate_strata(n, c)) for c in range(0, n - 1))
        assert total == expected


def test_top_codimension_counts_are_catalan():
    for n, expected in CATALAN.items():
        assert len(enumerate_strata(n, n - 2)) == expected


def test_codimension_one_counts():
    # facets: choose the inner block size and its slot
    for n in range(3, 8):
        assert len(enumerate_strata(n, 1)) == n * (n - 1) // 2 - 1
        assert len(facet_compositions(n)) == n * (n - 1) // 2 - 1


def test_alternating_count_sum():
    for n in range(2, 8):
        signed = sum((-1) ** c * len(enumerate_strata(n, c))
                     for c in range(0, n - 1))
        assert signed == (-1) ** n


def test_three_point_strata():
    assert len(enumerate_strata(3, 1)) == 2
    labels = [s.serialize() for s in enumerate_strata(3, 1)]
    assert labels == ["((1 2) 3)", "(1 (2 3))"]


def test_three_point_facet_notation():
    fcs = facet_compositions(3)
    assert [fc.notation for fc in fcs] == ["m2 o1 m2", "m2 o2 m2"]
    assert all(isinstance(fc, FacetComposition) for fc in fcs)
    assert fcs[0].stratum.serialize() == "((1 2) 3)"
    assert (fcs[0].outer, fcs[0].position, fcs[0].inner) == (2, 1, 2)


def test_serialization_round_trip_across_enumeration():
    # a serialized stratum names one tree: no two strata print alike
    for n in range(2, 7):
        texts = [s.serialize() for c in range(dim(n) + 1)
                 for s in enumerate_strata(n, c)]
        assert len(set(texts)) == len(texts) == SUPERCATALAN[n]


def test_codim_and_dimension_accessors():
    s = Stratum(((1, 2), 3))
    assert s.leaves == 3
    assert s.codim == 1
    assert s.dimension == 0
    top = Stratum((1, 2, 3, 4))
    assert top.codim == 0
    assert top.dimension == 2


def test_contractions_merge_one_level():
    for n in range(3, 6):
        for c in range(1, n - 1):
            for s in enumerate_strata(n, c):
                children = s.contractions()
                assert children
                for child in children:
                    assert child.codim == s.codim - 1
                    assert child.leaves == s.leaves
    # the fully smoothed stratum has nothing left to contract
    assert Stratum((1, 2, 3)).contractions() == ()


def test_contractions_are_the_validated_strata():
    # contractions skip the check; each equals its validated stratum and
    # prints as it does
    for n in range(2, 8):
        for c in range(n - 1):
            for s in enumerate_strata(n, c):
                got = s.contractions()
                want = tuple(Stratum(t) for t in moduli._contract_one(s.tree))
                assert got == want
                assert [t.serialize() for t in got] == \
                    [t.serialize() for t in want]
                assert all(type(t) is Stratum for t in got)


def test_contractions_cover_the_coarser_layer():
    for n in range(3, 6):
        for c in range(1, n - 1):
            reached = set()
            for s in enumerate_strata(n, c):
                reached.update(t.serialize() for t in s.contractions())
            layer = {t.serialize() for t in enumerate_strata(n, c - 1)}
            assert reached == layer


def test_invalid_trees_rejected():
    # a bool leaf or a named tuple equals its plain value, so it would pass
    # the label check and then print otherwise
    pair = namedtuple("pair", "left right")
    for tree in ((1,), (1, 3), ((1, 2),), (2, 1), (True, 2), ((True, 2), 3),
                 pair(1, 2), (1, 2.0)):
        with pytest.raises(InputError):
            Stratum(tree)


def test_closed_form_counts_match_enumeration():
    for n in range(2, 9):
        for c in range(dim(n) + 1):
            assert stratum_count(n, c) == len(enumerate_strata(n, c))


def test_listings_and_counts_refuse_before_building():
    with pytest.raises(ResourceLimitError, match="200000"):
        enumerate_strata(10, 0)
    with pytest.raises(ResourceLimitError, match="200000"):
        facet_compositions(80)
    assert stratum_count(MAX_N, 1) == (MAX_N - 2) * (MAX_N + 1) // 2
    with pytest.raises(ResourceLimitError, match=str(MAX_N)):
        stratum_count(MAX_N + 1, 0)


def test_enumeration_bounds():
    with pytest.raises(InputError):
        enumerate_strata(1, 0)
    with pytest.raises(InputError):
        enumerate_strata(4, 3)
    with pytest.raises(InputError):
        facet_compositions(2)


@pytest.mark.parametrize("codim", [True, False])
@pytest.mark.parametrize("strata, n", [(stratum_count, 5),
                                       (enumerate_strata, 4)])
def test_codimension_is_not_a_bool(strata, n, codim):
    with pytest.raises(InputError):
        strata(n, codim)


@given(n=st.integers(min_value=3, max_value=6))
@settings(max_examples=10, deadline=None)
def test_facets_match_codim_one_strata(n):
    facet_trees = [fc.stratum.serialize() for fc in facet_compositions(n)]
    layer = [s.serialize() for s in enumerate_strata(n, 1)]
    assert sorted(facet_trees) == sorted(layer)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_listing_matches_the_build_and_filter_oracle(data):
    n = data.draw(st.integers(min_value=2, max_value=8), label="n")
    codim = data.draw(st.integers(min_value=0, max_value=n - 2), label="codim")
    moduli._trees.cache_clear()
    listed = enumerate_strata(n, codim)
    assert listed == reference_strata(n, codim)
    assert all(s.codim == codim and s.leaves == n for s in listed)


def test_the_strata_memo_stays_within_its_bound():
    moduli._trees.cache_clear()
    assert moduli._trees.cache_info().maxsize == moduli._LAYERS
    for n in range(2, 10):
        for c in range(dim(n) + 1):
            enumerate_strata(n, c)
            assert moduli._trees.cache_info().currsize <= moduli._LAYERS
    # one layer per leaf range and vertex count on up to 9 leaves
    assert moduli._trees.cache_info().currsize == 9 + sum(
        (10 - leaves) * (leaves - 1) for leaves in range(2, 10))
    # a refused listing is refused before anything is built
    kept = moduli._trees.cache_info()
    with pytest.raises(ResourceLimitError):
        enumerate_strata(10, 0)
    assert moduli._trees.cache_info() == kept
