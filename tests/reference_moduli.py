"""The strata listing as it was: build every planar tree, keep one layer.

`moduli.enumerate_strata` builds only the trees of the requested
codimension; this builds all of them over the leaves and filters by the
number of internal vertices, so the two must list the same strata in the
same order.
"""

from functools import lru_cache
from itertools import combinations, product

from starprod.moduli import Stratum


def _internal_count(tree) -> int:
    if isinstance(tree, int):
        return 0
    return 1 + sum(_internal_count(child) for child in tree)


@lru_cache(maxsize=None)
def _trees_over(leaves: tuple[int, ...]) -> tuple:
    """Every planar tree over the given consecutive leaf labels."""
    if len(leaves) == 1:
        return (leaves[0],)
    out = []
    # the root's children cover the leaves in 2 or more blocks, cut at `cuts`
    for k in range(1, len(leaves)):
        for cuts in combinations(range(1, len(leaves)), k):
            bounds = (0, *cuts, len(leaves))
            out.extend(product(*(_trees_over(leaves[a:b])
                                 for a, b in zip(bounds, bounds[1:]))))
    return tuple(out)


def reference_strata(n: int, codim: int) -> tuple[Stratum, ...]:
    """All strata of the given codimension, in serialization order."""
    found = [Stratum(t) for t in _trees_over(tuple(range(1, n + 1)))
             if _internal_count(t) == codim + 1]
    return tuple(sorted(found, key=Stratum.serialize))
