"""Combinatorial strata of the associativity cell complex.

The complex on n ordered inputs (n >= 2) has dimension n - 2.  Its strata
are planar rooted trees with leaves labeled 1..n in order and every internal
vertex of arity at least 2.  A tree with v internal vertices labels a
stratum of codimension v - 1: the corolla is the open top cell, binary
trees are the vertices.  Contracting one internal edge moves to the
adjacent stratum of codimension one less.

Trees are nested tuples: a leaf is its label, an internal vertex is the
tuple of its children.  Text form: "((1 2) 3)".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import comb
from typing import Iterable, Iterator, Union

from .errors import InputError, ResourceLimitError, require_int

Tree = Union[int, tuple]

# inputs of any job; keeps every count's digits far below Python's
# int/str conversion limit, so reports stay printable
MAX_N = 1000
# leaves summed over the trees one listing builds: the strata on 9 inputs
# hold 20,793 * 9 = 187,137; a facet listing stops near n = 74
MAX_LISTED_LEAVES = 200_000


def _internal_count(tree: Tree) -> int:
    if isinstance(tree, int):
        return 0
    return 1 + sum(_internal_count(child) for child in tree)


def _leaf_labels(tree: Tree) -> Iterator[int]:
    if isinstance(tree, int):
        yield tree
        return
    for child in tree:
        yield from _leaf_labels(child)


def _validate(tree: Tree) -> None:
    if isinstance(tree, int):
        return
    if not isinstance(tree, tuple) or len(tree) < 2:
        raise InputError("internal vertices need at least two children")
    for child in tree:
        _validate(child)


def serialize_tree(tree: Tree) -> str:
    if isinstance(tree, int):
        return str(tree)
    return "(" + " ".join(serialize_tree(child) for child in tree) + ")"


@dataclass(frozen=True)
class Stratum:
    """A stratum of the complex on n inputs, named by its planar tree."""

    tree: Tree

    def __post_init__(self):
        _validate(self.tree)
        labels = list(_leaf_labels(self.tree))
        if labels != list(range(1, len(labels) + 1)):
            raise InputError("leaves must be labeled 1..n in planar order")
        if len(labels) < 2:
            raise InputError("a stratum needs at least two leaves")

    @property
    def leaves(self) -> int:
        return sum(1 for _ in _leaf_labels(self.tree))

    @property
    def codim(self) -> int:
        return _internal_count(self.tree) - 1

    @property
    def dimension(self) -> int:
        return self.leaves - 2 - self.codim

    def serialize(self) -> str:
        return serialize_tree(self.tree)

    def contractions(self) -> tuple["Stratum", ...]:
        """All strata reached by contracting exactly one internal edge."""
        return tuple(Stratum(t) for t in _contract_one(self.tree))

    def __repr__(self) -> str:
        return f"<Stratum {self.serialize()}>"


def _contract_one(tree: Tree) -> list[tuple]:
    if isinstance(tree, int):
        return []
    out = []
    for idx, child in enumerate(tree):
        if isinstance(child, tuple):
            out.append(tree[:idx] + child + tree[idx + 1:])
        for sub in _contract_one(child):
            out.append(tree[:idx] + (sub,) + tree[idx + 1:])
    return out


@lru_cache(maxsize=None)
def _trees_over(leaves: tuple[int, ...]) -> tuple[Tree, ...]:
    """Every planar tree over the given consecutive leaf labels."""
    if len(leaves) == 1:
        return (leaves[0],)
    out: list[Tree] = []
    # the root's children cover the leaves in 2 or more blocks, cut at `cuts`
    for k in range(1, len(leaves)):
        for cuts in combinations(range(1, len(leaves)), k):
            bounds = (0, *cuts, len(leaves))
            out.extend(product(*(_trees_over(leaves[a:b])
                                 for a, b in zip(bounds, bounds[1:]))))
    return tuple(out)


def dim(n: int) -> int:
    """Dimension of the complex on n inputs."""
    return require_int(n, "the number of inputs", 2) - 2


def stratum_count(n: int, codim: int) -> int:
    """Number of strata of the given codimension, without building them.

    The planar trees on n leaves with codim + 1 internal vertices are the
    dissections of an (n+1)-gon by codim diagonals, counted by the
    Kirkman-Cayley number C(n-2, c) C(n+c, c) / (c+1).
    """
    top = dim(n)
    require_int(codim, f"the codimension for n={n}", 0, top)
    if n > MAX_N:
        raise ResourceLimitError(f"n={n} exceeds the cap of {MAX_N} inputs")
    return comb(n - 2, codim) * comb(n + codim, codim) // (codim + 1)


def _require_listable(n: int, codims: Iterable[int]) -> None:
    """Refuse, before building, a listing that builds the trees of these codims."""
    trees = 0
    for codim in codims:
        trees += stratum_count(n, codim)
        if trees * n > MAX_LISTED_LEAVES:
            raise ResourceLimitError(
                f"listing strata on n={n} inputs builds trees with more than "
                f"the cap of {MAX_LISTED_LEAVES} leaves")


def enumerate_strata(n: int, codim: int) -> tuple[Stratum, ...]:
    """All strata of the given codimension, in serialization order."""
    stratum_count(n, codim)  # checks n and codim
    # every planar tree on n leaves is built, then filtered by codimension
    _require_listable(n, range(dim(n) + 1))
    found = [Stratum(t) for t in _trees_over(tuple(range(1, n + 1)))
             if _internal_count(t) == codim + 1]
    return tuple(sorted(found, key=Stratum.serialize))


@dataclass(frozen=True)
class FacetComposition:
    """A codimension-1 stratum as a one-level substitution.

    An inner vertex of arity `inner` sits in slot `position` (1-based) of the
    root of arity `outer`; notation "m<outer> o<position> m<inner>".
    """

    stratum: Stratum
    outer: int
    inner: int
    position: int

    @property
    def notation(self) -> str:
        return f"m{self.outer} o{self.position} m{self.inner}"


def facet_compositions(n: int) -> tuple[FacetComposition, ...]:
    """The codimension-1 strata with their substitution descriptions."""
    require_int(n, "the number of inputs of a facet listing", 3)
    _require_listable(n, (1,))
    out = []
    for inner in range(2, n):
        outer = n - inner + 1
        for position in range(1, outer + 1):
            children: list[Tree] = list(range(1, position))
            children.append(tuple(range(position, position + inner)))
            children.extend(range(position + inner, n + 1))
            stratum = Stratum(tuple(children))
            out.append(FacetComposition(stratum, outer, inner, position))
    out.sort(key=lambda fc: fc.stratum.serialize())
    return tuple(out)
