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


def _leaf_labels(tree: Tree) -> Iterator[int]:
    """The leaves in planar order; InputError at a malformed node."""
    # exact types, since strata print by repr (True == 1, yet prints True)
    if type(tree) is int:
        yield tree
        return
    if type(tree) is not tuple:
        raise InputError("a tree node is an int leaf label or a tuple of "
                         f"children, not {type(tree).__name__}")
    if len(tree) < 2:
        raise InputError("internal vertices need at least two children")
    for child in tree:
        yield from _leaf_labels(child)


@dataclass(frozen=True)
class Stratum:
    """A stratum of the complex on n inputs, named by its planar tree."""

    tree: Tree

    def __post_init__(self):
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
        return repr(self.tree).count("(") - 1  # one per internal vertex

    @property
    def dimension(self) -> int:
        return self.leaves - 2 - self.codim

    def serialize(self) -> str:
        # a tuple of ints prints as "((1, 2), 3)": drop the commas
        return repr(self.tree).replace(",", "")

    def contractions(self) -> tuple["Stratum", ...]:
        """All strata reached by contracting exactly one internal edge."""
        # a contraction of a valid tree is valid: no checks again
        return tuple(map(_built, _contract_one(self.tree)))

    def __repr__(self) -> str:
        return f"<Stratum {self.serialize()}>"


def _built(tree: Tree) -> Stratum:
    """A stratum over a tree built here, valid by construction: no checks."""
    stratum = object.__new__(Stratum)
    object.__setattr__(stratum, "tree", tree)
    return stratum


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


# (leaf range, internal vertices) layers kept, least recently used out; the
# listing cap admits at most 9 inputs, whose ranges make 129 layers
_LAYERS = 256


@lru_cache(maxsize=_LAYERS)
def _trees(first: int, last: int, vertices: int) -> tuple[Tree, ...]:
    """Planar trees on leaves first..last with that many internal vertices."""
    if first == last:
        return (first,)
    out: list[Tree] = []
    # the root's children cover the leaves in k + 1 blocks, which share out
    # the other vertices - 1 internal vertices (at most last - first - k)
    for k in range(1, last - first + 2 - vertices):
        for cuts in combinations(range(first + 1, last + 1), k):
            blocks = tuple(zip((first, *cuts), [c - 1 for c in cuts] + [last]))
            for shares in product(*(range(min(1, b - a), b - a + 1)
                                    for a, b in blocks)):
                if sum(shares) == vertices - 1:
                    out.extend(product(*(_trees(a, b, v) for (a, b), v
                                         in zip(blocks, shares))))
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
    # every codimension is charged, so --codim stays refused on 10 inputs
    _require_listable(n, range(dim(n) + 1))
    return tuple(sorted(map(_built, _trees(1, n, codim + 1)),
                        key=Stratum.serialize))


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
            tree = (*range(1, position), tuple(range(position, position + inner)),
                    *range(position + inner, n + 1))
            out.append(FacetComposition(_built(tree), outer, inner, position))
    out.sort(key=lambda fc: fc.stratum.serialize())
    return tuple(out)
