"""Replaced wick engines, kept as references for the library.

_engine_terms is the labelled contraction enumerator the library used
before it computed each hbar order as one bidifferential operator.  It
walks every labelled wiring of n insertions: each insertion picks an
oriented index pair, its left leg differentiates f or an insertion, and its
right leg differentiates g or an insertion (a factor -1).  Equal value
shapes are tallied before any polynomial work.  The raw sums E_n it returns
must equal the library's operator form exactly.  It is slow: a single
random degree-2 bivector at order 4 can take 18 s.

_series_product and _associator are the per-pair composition the library
used before one operator served every pair of series coefficients: one
operator, pruned to u_k and v_l alone, and one single-pair apply for each
pair (k, l).

_landings is the landing table the library built on every operator call
before it kept one box per leg vector: it weighs each split D <= legs whose
derivative d_D of the factor is nonzero, then sorts by |D|.  _Rooms is the
test it reads: how many more derivatives d_D leaves the factor, or -1.

apply is the operator application the library used before it contracted
in Gaussian-integer numerators: every multiply and add is a reduced Scalar
or a GradedPoly product, each derivative a GradedPoly (deriv) and each
point value a sum of Scalar monomials from one shared table (evaluator).
It takes the library's operators as they are, each cell read into a
GradedPoly through Scalars, so any difference in output or in the product
caps it meets shows in the library's application.

cell_counts and contract are the cells as the library built them before it
kept each one as its polynomial: the (M, K) counts of C^(n)_IJ, found here
by walking every labelled sequence of n oriented insertions, and their sum
count * d_K P_M in GradedPoly derivatives and products.

_Dominates is the dominance test the library used before its bitmasks: a
count vector is admitted when some monomial of the support dominates it,
tested field by field.
"""

import math
import operator
from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence

from starprod.errors import ResourceLimitError
from starprod.poisson import Multivector
from starprod.scalars import ONE, Scalar
from starprod.superalg import GradedPoly, _Point
from starprod.wick import (DEFAULT_MAX_WORK, Operator, _apply, _bump,
                           _check_factors, _operator, _order_weight,
                           star_poly)

Series = dict[int, GradedPoly]


def _series_product(alpha: Multivector, u: Series, v: Series, order: int,
                    max_work: int = DEFAULT_MAX_WORK,
                    point: Optional[Sequence[Scalar]] = None) -> list:
    """hbar coefficients 0..order of the series product, pair by pair."""
    zero = GradedPoly.zero(alpha.ring()) if point is None else Scalar()
    out = [zero] * (order + 1)
    for k, uk in sorted(u.items()):
        if k > order or uk.is_zero():
            continue
        for l, vl in sorted(v.items()):
            if k + l > order or vl.is_zero():
                continue
            op = _operator(alpha, {0: uk}, {0: vl}, order - k - l, max_work)
            at = None if point is None else _Point(point)
            for m, p in enumerate(_apply(op, at)):
                out[k + l + m] = out[k + l + m] + p
    return out


def _associator(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                h: GradedPoly, order: int, max_work: int = DEFAULT_MAX_WORK,
                point: Optional[Sequence[Scalar]] = None) -> list:
    """(f * g) * h - f * (g * h), its outer products pair by pair."""
    left = _series_product(alpha, star_poly(alpha, f, g, order, max_work),
                           {0: h}, order, max_work, point)
    right = _series_product(alpha, {0: f},
                            star_poly(alpha, g, h, order, max_work),
                            order, max_work, point)
    return [a - b for a, b in zip(left, right)]


def deriv(p: GradedPoly, counts: tuple[int, ...]) -> GradedPoly:
    """d^counts p, counts[k] derivatives in the even generator k."""
    wanted = [(k, m) for k, m in enumerate(counts) if m]
    if not wanted:
        return p
    out: dict[tuple[int, ...], Scalar] = {}
    for beta, c in p.terms.items():
        factor = 1  # beta!/(beta - counts)!
        for k, m in wanted:
            if beta[k] < m:
                break
            factor *= math.perm(beta[k], m)
        else:
            out[tuple(map(operator.sub, beta, counts))] = \
                c * factor if factor != 1 else c
    return GradedPoly(p.space, out)


def evaluator(values: Sequence[Optional[Scalar]]
              ) -> Callable[[GradedPoly, tuple[int, ...]], Scalar]:
    """(p, counts) -> d^counts p at the point, values[k] for generator k,
    every call sharing one table of the monomials at the point."""
    monomials: dict = {(0,) * len(values): None}  # x^0 multiplies nothing

    def monomial(gamma: tuple[int, ...]) -> Optional[Scalar]:
        chain = []
        while gamma not in monomials:
            k = max(k for k, e in enumerate(gamma) if e)
            chain.append((gamma, k))
            gamma = _bump(gamma, k, -1)
        got = monomials[gamma]
        for gamma, k in reversed(chain):
            got = monomials[gamma] = values[k] if got is None \
                else got * values[k]
        return got

    def at(p: GradedPoly, counts: tuple[int, ...]) -> Scalar:
        total = Scalar()
        for gamma, c in deriv(p, counts).terms.items():
            x = monomial(gamma)
            total = total + (c if x is None else c * x)
        return total

    return at


def cell_poly(ring, cell) -> GradedPoly:
    """The library's cell (den, rows, deg) as a GradedPoly, through Scalars."""
    den, rows, _ = cell
    unpack = ring._layout.unpack
    return GradedPoly(ring, {unpack(key): Scalar(Fraction(a, den),
                                                 Fraction(b, den))
                             for key, (a, b) in rows.items()})


def apply(op: Operator, point: Optional[Sequence[Scalar]] = None,
          w: Optional[Scalar] = None) -> list:
    """hbar coefficients 0..order of the product of the series op was built
    for, in reduced Scalars and GradedPoly products."""
    ring, orders, us, vs, order = op
    if point is None:
        zero, unit = GradedPoly.zero(ring), GradedPoly.one(ring)
        at = deriv
    else:
        zero, unit = Scalar(), ONE
        at = evaluator(point)
    seen: dict = {}

    def d(name, p, counts):
        got = seen.get((name, counts))
        if got is None:
            got = seen[(name, counts)] = at(p, counts)
        return got

    out = [zero] * (order + 1)
    for n, terms in enumerate(orders):
        top = order - n
        pairs = [(k + l, ("u", k), uk, ("v", l), vl)
                 for k, uk in us for l, vl in vs if k + l <= top]
        sums = [zero] * (top + 1)
        for (I, J), cell in terms.items():
            coeff = at(cell_poly(ring, cell), (0,) * len(ring))
            for kl, uname, uk, vname, vl in pairs:
                piece = d(uname, uk, I) * d(vname, vl, J)
                sums[kl] = sums[kl] + (piece if coeff == unit
                                       else piece * coeff)
        for t, total in enumerate(sums, start=n):
            if total is not zero:
                total = total * _order_weight(n, w) if n else total
                out[t] = total if out[t] is zero else out[t] + total
    return out


def labelled_classes(alpha: Multivector, n: int) -> dict:
    """(M, left, right) -> signed count of the labelled sequences of n
    oriented insertions with multiset M (insertions per component, in
    sorted key order) and those left and right leg vectors.  Each insertion
    of component (i, j) reads it as (i, j), or as (j, i) at a factor -1."""
    keys = sorted(alpha.components)
    zero = (0,) * alpha.dim
    out: dict = {}
    for picks in product(range(len(keys)), (1, -1), repeat=n):
        mult, left, right, sign = [0] * len(keys), zero, zero, 1
        for c, orient in zip(picks[::2], picks[1::2]):
            i, j = keys[c] if orient > 0 else keys[c][::-1]
            mult[c] += 1
            left, right = _bump(left, i - 1, 1), _bump(right, j - 1, 1)
            sign *= orient
        key = (tuple(mult), left, right)
        out[key] = out.get(key, 0) + sign
    return out


def cell_counts(alpha: Multivector, classes: dict, I: tuple, J: tuple
                ) -> dict:
    """(M, K) -> count of C^(n)_IJ: of each class's legs, I land on f and J
    on g (binomial ways each, a factor -1 for each right leg that lands on
    an insertion), and K = legs - I - J on P_M, kept only when P_M has at
    least |K| degrees for them."""
    keys = sorted(alpha.components)
    degs = [alpha.components[key].total_degree() for key in keys]
    out: dict = {}
    for (mult, left, right), sign in classes.items():
        if not sign or any(map(operator.lt, left, I)) \
                or any(map(operator.lt, right, J)):
            continue
        K = tuple(l + r - i - j for l, r, i, j in zip(left, right, I, J))
        if sum(K) > sum(map(operator.mul, mult, degs)):
            continue
        count = sign * (-1) ** (sum(right) - sum(J))
        for legs, sub in ((left, I), (right, J)):
            count *= math.prod(map(math.comb, legs, sub))
        out[(mult, K)] = out.get((mult, K), 0) + count
    return out


def contract(alpha: Multivector, counts: dict) -> GradedPoly:
    """The sum of count * d_K P_M over counts {(M, K): count}, P_M the
    product of mult[c] copies of the c-th component in sorted key order."""
    keys = sorted(alpha.components)
    total = GradedPoly.zero(alpha.ring())
    for (mult, K), count in counts.items():
        p = GradedPoly.one(alpha.ring())
        for key, m in zip(keys, mult):
            for _ in range(m):
                p = p * alpha.components[key]
        total = total + deriv(p, K) * count
    return total


class _Dominates(dict):
    """counts -> whether some monomial of the support dominates them, field
    by field."""

    __slots__ = ("support",)

    def __init__(self, polys: Sequence[GradedPoly]):
        self.support = {p.space._layout.unpack(b)
                        for p in polys for b in p.rows}

    def __missing__(self, counts: tuple[int, ...]) -> bool:
        got = self[counts] = any(all(map(operator.ge, beta, counts))
                                 for beta in self.support)
        return got


class _Rooms(dict):
    """counts -> how many more derivatives d^counts leaves some poly, or -1:
    the room test the library used before it only asked whether a monomial
    of the support dominates the count vector."""

    __slots__ = ("support",)

    def __init__(self, polys: Sequence[GradedPoly]):
        self.support = {p.space._layout.unpack(b): b >> p.space._layout.top
                        for p in polys for b in p.rows}.items()

    def __missing__(self, counts: tuple[int, ...]) -> int:
        degs = [deg for beta, deg in self.support
                if all(map(operator.ge, beta, counts))]
        got = self[counts] = max(degs) - sum(counts) if degs else -1
        return got


def _landings(legs: tuple[int, ...], room: _Rooms, sign: int) -> list:
    """Entries (D, C(legs, D) * sign^(|legs| - |D|), |D|) for each D <= legs
    with d_D of the factor nonzero, largest |D| first."""
    out = []
    total = sum(legs)
    for sub in product(*(range(k + 1) for k in legs)):
        if room[sub] >= 0:
            w = sign ** (total - sum(sub))
            for k, s in zip(legs, sub):
                w *= math.comb(k, s)
            out.append((sub, w, sum(sub)))
    out.sort(key=lambda entry: -entry[2])
    return out


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
    ring = _check_factors(alpha, {0: f}, {0: g}, order, max_work)[0]
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
