"""The labelled contraction enumerator, kept as the reference for wick.

This is the engine the library used before it computed each hbar order as
one bidifferential operator.  It walks every labelled wiring of n
insertions: each insertion picks an oriented index pair, its left leg
differentiates f or an insertion, and its right leg differentiates g or an
insertion (a factor -1).  Equal value shapes are tallied before any
polynomial work.  The raw sums E_n it returns must equal the library's
operator form exactly.  It is slow: a single random degree-2 bivector at
order 4 can take 18 s.
"""

from starprod.errors import ResourceLimitError
from starprod.poisson import Multivector
from starprod.superalg import GradedPoly
from starprod.wick import DEFAULT_MAX_WORK, _check_factors

Series = dict[int, GradedPoly]


class _Derivs:
    """Cache of iterated partial derivatives keyed by sorted direction tuples."""

    __slots__ = ("cache",)

    def __init__(self, poly: GradedPoly):
        self.cache: dict[tuple[int, ...], GradedPoly] = {(): poly}

    def get(self, key: tuple[int, ...]) -> GradedPoly:
        got = self.cache.get(key)
        if got is None:
            got = self.get(key[:-1]).deriv_left(f"x{key[-1]}")
            self.cache[key] = got
        return got

    def dead(self, key: tuple[int, ...]) -> bool:
        return self.get(key).is_zero()


def _oriented_pairs(alpha: Multivector):
    out = []
    for (i, j) in sorted(alpha.components):
        out.append((i, j, (i, j), 1))
        out.append((j, i, (i, j), -1))
    return out


def _engine_terms(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                  order: int, max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Raw unweighted contraction sums E_n for n = 0..order."""
    ring = _check_factors(alpha, f, g, order, max_work)
    oriented = _oriented_pairs(alpha)
    acache = {key: _Derivs(poly) for key, poly in alpha.components.items()}
    maxdeg = {key: poly.total_degree() for key, poly in alpha.components.items()}
    global_max = max(maxdeg.values(), default=0)
    fcache = _Derivs(f)
    gcache = _Derivs(g)
    work = [0]
    out: Series = {0: f * g}
    for n in range(1, order + 1):
        tally = _enumerate(n, oriented, acache, maxdeg, global_max,
                           fcache, gcache, work, max_work)
        total = GradedPoly.zero(ring)
        for (sf, sg, insertions), count in tally.items():
            if count == 0:
                continue
            term = fcache.get(sf) * gcache.get(sg)
            for ckey, received in insertions:
                term = term * acache[ckey].get(received)
            total = total + term * count
        out[n] = total
    return out


def _enumerate(n, oriented, acache, maxdeg, global_max,
               fcache, gcache, work, max_work):
    """Signed counts of surviving contraction patterns, grouped by value shape.

    Patterns whose polynomial factors coincide are tallied under one key
    (derivative multisets on f, on g, and per-insertion), so the expensive
    polynomial products happen once per distinct shape.
    """
    tally: dict = {}
    sf: list[int] = []
    sg: list[int] = []
    received: list[list[int]] = [[] for _ in range(n)]
    comp: list = [None] * n

    def incoming_ok(w: int) -> bool:
        key = tuple(sorted(received[w]))
        ck = comp[w]
        if ck is None:
            return len(key) <= global_max
        return len(key) <= maxdeg[ck] and not acache[ck].dead(key)

    def descend(v: int, sign: int) -> None:
        if v == n:
            shape = tuple(sorted((comp[w], tuple(sorted(received[w])))
                                 for w in range(n)))
            key = (tuple(sorted(sf)), tuple(sorted(sg)), shape)
            tally[key] = tally.get(key, 0) + sign
            return
        pending = tuple(sorted(received[v]))
        for i, j, ckey, orient in oriented:
            if len(pending) > maxdeg[ckey] or acache[ckey].dead(pending):
                continue
            comp[v] = ckey
            base = sign * orient
            for left in range(-1, n):
                if left < 0:
                    sf.append(i)
                    ok = not fcache.dead(tuple(sorted(sf)))
                else:
                    received[left].append(i)
                    ok = incoming_ok(left)
                if ok:
                    for right in range(-1, n):
                        work[0] += 1
                        if work[0] > max_work:
                            raise ResourceLimitError(
                                f"contraction enumeration exceeded max_work="
                                f"{max_work}; raise the limit or lower the "
                                f"order")
                        if right < 0:
                            sg.append(j)
                            ok2 = not gcache.dead(tuple(sorted(sg)))
                            flip = base
                        else:
                            received[right].append(j)
                            ok2 = incoming_ok(right)
                            flip = -base
                        if ok2:
                            descend(v + 1, flip)
                        if right < 0:
                            sg.pop()
                        else:
                            received[right].pop()
                if left < 0:
                    sf.pop()
                else:
                    received[left].pop()
        comp[v] = None

    descend(0, 1)
    return tally
