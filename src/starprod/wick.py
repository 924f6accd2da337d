"""Exact deformation product, one bidifferential operator per hbar order.

Order n of the product of f and g against a bivector A is

    B_n(f, g) = sum over (I, J) of C^(n)_IJ * d_I f * d_J g,

where I and J are multisets of coordinate directions, stored as count
vectors.  Its terms come from n insertions of A.  Each insertion picks an
oriented index pair (i, j) of A; the orientation (j, i) costs a factor -1
by antisymmetry.  Its left leg d_i differentiates f or an insertion, and its
right leg d_j differentiates g or an insertion, at a further factor -1.

The insertions are identical, so the engine sums over multisets of them, not
over labelled wirings: a multiset stands for n!/prod m! labelled sequences.
The legs that land on insertions differentiate the product P_M of the
inserted coefficients, and by Leibniz every way of spreading them over the
factors adds up to the single derivative d_K P_M.  So only the number of
legs of each direction that land on f and on g matters, and choosing them
weighs binomial coefficients.  The signed integer counts are tallied by (I,
J, M, K) before any polynomial work.  Three prunings keep the tally small:
a derivative is zero exactly when no monomial of the polynomial dominates
its count vector, which is tested without differentiating; a multiset whose
2n legs cannot all land (2n > deg f + deg g + deg P_M) is skipped, and so
is a split that leaves P_M more legs than its degree.  P_M, the orientation
classes and the rooms are built once per bivector, kept in a bounded table.

Every product is a series product sum_{k,l} hbar^(k+l) u_k * v_l (star has
one coefficient a side).  The C^(n)_IJ depend on the factors only through
the pruning, so one operator, pruned to the union of each side's supports,
serves every pair (k, l); an associator is four products.  The operator is
applied symbolically (star_poly, star_series, associator_poly, calibrate),
or at a basepoint, where d_I u_k, d_J v_l and C^(n)_IJ are evaluated before
anything is multiplied (star, moyal, the outer products of associator).
Either way the derivatives and point values come from superalg's kernels.

Consequences worth knowing:

 * order 1 splits into (i/2) hbar {f, g} plus a symmetric remainder, so the
   antisymmetric first-order part is exactly half the bracket;
 * for constant coefficients the sum collapses to the classical
   constant-bivector exponential formula (moyal below), which is associative;
 * for non-constant coefficients legs may land on insertions, and the
   product is in general NOT associative beyond first order.  That defect is
   measured by associator;
 * star is the uniform-weight product: every graph weighs (i/2)^n/n!, where
   Kontsevich's weights are configuration-space integrals.  The two agree
   on (i/2){f, g} at order 1 and for constant bivectors (moyal), not at
   hbar^2: on so3, 1 * g differs from g there.

Normalization is not hard-coded: calibrate derives the insertion weight w
from a probe computation, order n of the product carries w^n / n!, and the
product routines use the cached weight.  Everything is exact; hbar is a
truncated formal series.
"""

from __future__ import annotations

import math
import operator
import threading
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
from typing import Mapping, Optional, Sequence

from .errors import (CalibrationError, InputError, ResourceLimitError,
                     require_int)
from .poisson import Multivector, _require_bivector, poisson_bracket
from .scalars import HALF_I, ONE, Scalar, ScalarLike
from .superalg import (GradedPoly, GradedSpace, HbarSeries, _accumulate,
                       _bump, _deriv, _evaluator, _point_values, coeff_space)

DEFAULT_ORDER = 3
MAX_ORDER = 6
DEFAULT_MAX_WORK = 5_000_000

Series = dict[int, GradedPoly]
# (polys, orders, us, vs, order): orders[n] maps (I, J) to {(M, K): coeff},
# B_n(u_k, v_l) sums coeff * d_K polys[M] * d_I u_k * d_J v_l, and us and vs
# are the nonzero (k, u_k) and (l, v_l) with k, l <= order, by key
Operator = tuple[dict, list[dict], list, list, int]


# calibration --------------------------------------------------------------------

def _proportionality(a: GradedPoly, b: GradedPoly) -> Optional[Scalar]:
    """The scalar c with a == c * b, or None if no such scalar exists."""
    if b.is_zero():
        return None
    if a.is_zero():
        return Scalar()
    key = next(iter(b.terms))
    if key not in a.terms:
        return None
    c = a.terms[key] / b.terms[key]
    return c if a == b * c else None


def calibrate(alpha: Multivector, f_probe: GradedPoly, g_probe: GradedPoly,
              max_work: int = DEFAULT_MAX_WORK) -> Scalar:
    """Derive the insertion weight w from a first-order probe.

    Runs the raw order-1 contraction sum with unit weight and matches its
    antisymmetric part against the bivector bracket of the probes.  The
    weight makes the antisymmetric first-order term equal to
    (i/2) hbar {f, g}; order n of the product then carries w^n / n!.
    Probes whose bracket vanishes, or for which the raw term is not
    proportional to the bracket, raise CalibrationError.
    """
    u, v = {0: f_probe}, {0: g_probe}
    raw_fg = _apply(_operator(alpha, u, v, 1, max_work), w=ONE)[1]
    raw_gf = _apply(_operator(alpha, v, u, 1, max_work), w=ONE)[1]
    anti = (raw_fg - raw_gf) * Fraction(1, 2)
    bracket = poisson_bracket(alpha, f_probe, g_probe)
    if bracket.is_zero():
        raise CalibrationError("probe bracket vanishes; pick probes with "
                               "a nonzero bracket")
    c = _proportionality(anti, bracket)
    if c is None or not c:
        raise CalibrationError("antisymmetric first-order term is not a "
                               "nonzero multiple of the probe bracket")
    c_swapped = _proportionality((raw_gf - raw_fg) * Fraction(1, 2),
                                 poisson_bracket(alpha, g_probe, f_probe))
    if c_swapped != c:
        raise CalibrationError("probe calibration is not swap-consistent")
    return HALF_I / c


@lru_cache(maxsize=None)
def _default_calibration() -> Scalar:
    ring = coeff_space(2)
    probe = Multivector(2, 2, {(1, 2): 1})
    return calibrate(probe, GradedPoly.generator(ring, "x1"),
                     GradedPoly.generator(ring, "x2"))


@lru_cache(maxsize=None)
def _order_weight(n: int, w: Optional[Scalar] = None) -> Scalar:
    """w^n / n!, the weight of order n (it sits at hbar^n); w defaults to
    the calibrated weight."""
    if w is None:
        w = _default_calibration()
    return w ** n * Fraction(1, math.factorial(n))


# bidifferential operators -------------------------------------------------------

def _check_factors(alpha: Multivector, u: Series, v: Series, order: int,
                   max_work: int) -> tuple[GradedSpace, list, list, int]:
    """Bivector, every key and coefficient of both series, order, work budget
    and order cap, before any is filtered out.  Returns the ring, each side's
    nonzero (k, p) with k <= order, by key, and the highest operator order a
    pair of them needs (-1 if none)."""
    _require_bivector(alpha)
    ring = alpha.ring()
    for side in (u, v):
        for k, p in side.items():
            require_int(k, "each series key")
            if not isinstance(p, GradedPoly) or p.space != ring:
                raise InputError("factors must live in the coefficient ring "
                                 f"of the bivector (x1..x{alpha.dim})")
    require_int(order, "order")
    require_int(max_work, "max_work")
    if order > MAX_ORDER:
        raise ResourceLimitError(f"order {order} exceeds the cap {MAX_ORDER}")
    us = [(k, p) for k, p in sorted(u.items()) if k <= order and p.terms]
    vs = [(l, p) for l, p in sorted(v.items()) if l <= order and p.terms]
    return ring, us, vs, (order - us[0][0] - vs[0][0] if us and vs else -1)


class _Rooms(dict):
    """counts -> how many more derivatives d^counts leaves some poly, or -1.

    d^K x^beta is nonzero exactly when beta dominates K, and distinct beta
    stay distinct, so d^K p vanishes exactly when no monomial of its
    support dominates the count vector K.  Nothing is differentiated.
    """

    __slots__ = ("support",)

    def __init__(self, polys: Sequence[GradedPoly]):
        self.support = {b: sum(b) for p in polys for b in p.terms}.items()

    def __missing__(self, counts: tuple[int, ...]) -> int:
        degs = [deg for beta, deg in self.support
                if all(map(operator.ge, beta, counts))]
        got = self[counts] = max(degs) - sum(counts) if degs else -1
        return got


def _multisets(n: int, count: int):
    """Insertions per component: every way to place n among count components."""
    for cut in combinations_with_replacement(range(count), n):
        mult = [0] * count
        for c in cut:
            mult[c] += 1
        yield tuple(mult)


def _orientations(keys: Sequence[tuple[int, int]], mult: tuple[int, ...],
                  dim: int) -> dict:
    """(left directions, right directions) -> signed count of the labelled
    insertion sequences with mult[c] insertions of component keys[c].

    u of the m insertions of component (i, j) read it as (i, j) and m - u as
    (j, i), which costs (-1)^(m-u).
    """
    zero = (0,) * dim
    weight = math.factorial(sum(mult))
    classes = {(zero, zero): 1}
    for (i, j), m in zip(keys, mult):
        weight //= math.factorial(m)
        if not m:
            continue
        i, j = i - 1, j - 1
        grown: dict = {}
        for (left, right), w in classes.items():
            for u in range(m + 1):
                _accumulate(grown, (_bump(_bump(left, i, u), j, m - u),
                                    _bump(_bump(right, j, u), i, m - u)),
                            w * math.comb(m, u) * (-1) ** (m - u))
        classes = grown
    return {key: w * weight for key, w in classes.items()}


def _landings(legs: tuple[int, ...], room: _Rooms, sign: int) -> list:
    """Which of the legs of each direction land on one factor.

    Entries (D, C(legs, D) * sign^(|legs| - |D|), |D|) for each D <= legs
    with d_D of the factor nonzero, largest |D| first.  The sign is the
    factor a leg pays for landing on an insertion instead.
    """
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


class _Pieces:
    """One bivector's factor-independent pieces, built on first use: P_M by
    multiset M, and the rooms of P_M and classes of M for each M reached."""

    def __init__(self, alpha: Multivector):
        self.keys = sorted(alpha.components)
        self.comps = [alpha.components[key] for key in self.keys]
        self.degs = [p.total_degree() for p in self.comps]
        self.polys = {(0,) * len(self.keys): GradedPoly.one(alpha.ring())}
        self.multisets, self.size = {}, 0  # size: entries at the last trim

    def product(self, mult: tuple[int, ...]) -> GradedPoly:
        """P_M, from the product with one factor fewer."""
        got = self.polys.get(mult)
        if got is None:
            c = max(k for k, m in enumerate(mult) if m)
            got = self.polys[mult] = (self.product(_bump(mult, c, -1))
                                      * self.comps[c])
        return got


# pieces by bivector content, least recently used first; each operator holds
# the lock from lookup to trim, so threads take turns at the table
_TABLE: dict[tuple, _Pieces] = {}
_TABLE_BIVECTORS = 8
_TABLE_ENTRIES = 50_000  # P_M terms, room values and classes
_TABLE_LOCK = threading.Lock()


def _operator(alpha: Multivector, u: Series, v: Series, order: int,
              max_work: int) -> Operator:
    """The coefficients C^(n)_IJ of B_0..B_n, pruned to the factor series.

    orders[n] maps (I, J) to {(M, K): count}, and C^(n)_IJ is the sum of
    count * d_K polys[M], where M counts the insertions of each component
    and polys[M] is their product P_M.  The pruning tests the union of the
    supports of each side's coefficients, so one operator serves every pair
    (u_k, v_l), and it stops at the highest order such a pair needs.  Each
    multiset of components, each orientation class of it and each split of
    its legs between u, v and P_M is one unit of work against max_work,
    whether or not the bivector's pieces were already in the table.
    """
    _, us, vs, reach = _check_factors(alpha, u, v, order, max_work)
    key = (alpha.dim, tuple(sorted(
        (k, tuple(sorted((m, c.parts()) for m, c in p.terms.items())))
        for k, p in alpha.components.items())))
    room_u = _Rooms([p for _, p in us])
    room_v = _Rooms([p for _, p in vs])
    lefts: dict[tuple[int, ...], list] = {}
    rights: dict[tuple[int, ...], list] = {}
    zero, none = (0,) * alpha.dim, (0,) * len(alpha.components)
    work = 0

    def spend(units: int) -> None:
        nonlocal work
        work += units
        if work > max_work:
            raise ResourceLimitError(
                f"operator enumeration exceeded max_work={max_work}; raise "
                "the limit or lower the order")

    # B_0(u_k, v_l) = u_k v_l: no insertions
    orders = [{(zero, zero): {(none, zero): 1}}] if reach >= 0 else []
    # with no derivatives taken, the room is the largest degree
    deg_uv = room_u[zero] + room_v[zero]
    with _TABLE_LOCK:
        pieces = _TABLE[key] = _TABLE.pop(key, None) or _Pieces(alpha)
        try:
            for n in range(1, reach + 1):
                tally: dict = {}
                for mult in _multisets(n, len(pieces.keys)):
                    spend(1)
                    # the 2n legs land on u, v and P_M, so at least need of
                    # them land on u and v
                    need = 2 * n - sum(map(operator.mul, mult, pieces.degs))
                    if need > deg_uv:
                        continue
                    if mult not in pieces.multisets:
                        pieces.multisets[mult] = (
                            _Rooms([pieces.product(mult)]),
                            _orientations(pieces.keys, mult, alpha.dim))
                    room_p, classes = pieces.multisets[mult]
                    spend(len(classes))
                    for (left, right), weight in classes.items():
                        legs = tuple(map(operator.add, left, right))
                        if right not in rights:
                            rights[right] = _landings(right, room_v, -1)
                        if left not in lefts:
                            lefts[left] = _landings(left, room_u, 1)
                        to_g = rights[right]
                        for I, wl, nl in lefts[left]:
                            if not to_g or nl + to_g[0][2] < need:
                                break
                            for J, wr, nr in to_g:
                                if nl + nr < need:
                                    break
                                spend(1)
                                K = tuple(map(operator.sub, legs,
                                              map(operator.add, I, J)))
                                if room_p[K] >= 0:
                                    _accumulate(tally.setdefault((I, J), {}),
                                                (mult, K), weight * wl * wr)
                orders.append({ij: cell for ij, cell in tally.items() if cell})
        finally:
            pieces.size = sum(len(p.terms) for p in pieces.polys.values()) + sum(
                len(r) + len(c) for r, c in pieces.multisets.values())
            if pieces.size > _TABLE_ENTRIES:  # too big alone: drop it first
                del _TABLE[key]
            total = sum(entry.size for entry in _TABLE.values())
            while len(_TABLE) > _TABLE_BIVECTORS or total > _TABLE_ENTRIES:
                total -= _TABLE.pop(next(iter(_TABLE))).size
    return pieces.polys, orders, us, vs, order


def _apply(op: Operator, point: Optional[Sequence[Scalar]] = None,
           w: Optional[Scalar] = None) -> list:
    """hbar coefficients 0..order of the product of the series op was built
    for: polynomials, or numbers at a point.

    The pair (u_k, v_l) adds w^n/n! B_n(u_k, v_l) at hbar^(k+l+n), w the
    calibrated weight unless given, and each C^(n)_IJ is formed once for all
    pairs.  At a point, each d_I u_k, d_J v_l and d_K P_M is evaluated before
    anything is multiplied, so polynomials that would only be evaluated are
    never multiplied, and all of them share one table of monomials.
    """
    polys, orders, us, vs, order = op
    ring = next(iter(polys.values())).space  # every P_M lives in it
    if point is None:
        zero, unit = GradedPoly.zero(ring), GradedPoly.one(ring)
        at = _deriv
    else:
        zero, unit = Scalar(), ONE
        at = _evaluator(point)
    seen: dict = {}

    def d(name, p, counts):
        got = seen.get((name, counts))
        if got is None:
            got = seen[(name, counts)] = at(p, counts)
        return got

    out = [zero] * (order + 1)
    for n, terms in enumerate(orders):
        top = order - n  # the largest k + l at this order
        # the pairs that fit at this order, with cache names ("u", k) and
        # ("v", l) that no multiset M equals
        pairs = [(k + l, ("u", k), uk, ("v", l), vl)
                 for k, uk in us for l, vl in vs if k + l <= top]
        sums = [zero] * (top + 1)  # by k + l
        for (I, J), cell in terms.items():
            coeff = zero
            for (mult, K), count in cell.items():
                term = d(mult, polys[mult], K)
                coeff = coeff + (term if count == 1 else term * count)
            for kl, uname, uk, vname, vl in pairs:
                piece = d(uname, uk, I) * d(vname, vl, J)
                sums[kl] = sums[kl] + (piece if coeff == unit
                                       else piece * coeff)
        for t, total in enumerate(sums, start=n):
            if total is not zero:  # zero: no cell met these pairs
                total = total * _order_weight(n, w) if n else total
                out[t] = total if out[t] is zero else out[t] + total
    return out


# products -----------------------------------------------------------------------

def _point(alpha: Multivector,
           basepoint: Sequence[ScalarLike]) -> list[Scalar]:
    """The basepoint as one scalar per coordinate, checked before any other
    work: a malformed point is an input error even at a refused order."""
    _require_bivector(alpha)
    return _point_values(basepoint, alpha.dim)


def star_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
              order: int = DEFAULT_ORDER,
              max_work: int = DEFAULT_MAX_WORK) -> Series:
    """hbar coefficients of f * g as polynomials (symbolic basepoint)."""
    return dict(enumerate(
        _apply(_operator(alpha, {0: f}, {0: g}, order, max_work))))


def star(alpha: Multivector, f: GradedPoly, g: GradedPoly,
         basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
         max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Deformation product evaluated at a basepoint, as an hbar series."""
    point = _point(alpha, basepoint)
    return HbarSeries(order, tuple(
        _apply(_operator(alpha, {0: f}, {0: g}, order, max_work), point)))


def star_series(alpha: Multivector, u: Mapping[int, GradedPoly],
                v: Mapping[int, GradedPoly], order: int = DEFAULT_ORDER,
                max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Bilinear extension of the product to truncated hbar series."""
    return dict(enumerate(_apply(_operator(alpha, u, v, order, max_work))))


def _associator(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                h: GradedPoly, order: int, max_work: int,
                point: Optional[Sequence[Scalar]] = None) -> list:
    """(f * g) * h - f * (g * h); the outer products at the point if given."""
    left = _apply(_operator(alpha, star_poly(alpha, f, g, order, max_work),
                            {0: h}, order, max_work), point)
    right = _apply(_operator(alpha, {0: f},
                             star_poly(alpha, g, h, order, max_work),
                             order, max_work), point)
    return [a - b for a, b in zip(left, right)]


def associator_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                    h: GradedPoly, order: int = DEFAULT_ORDER,
                    max_work: int = DEFAULT_MAX_WORK) -> Series:
    """(f * g) * h - f * (g * h), coefficient polynomials per hbar order."""
    return dict(enumerate(_associator(alpha, f, g, h, order, max_work)))


def associator(alpha: Multivector, f: GradedPoly, g: GradedPoly,
               h: GradedPoly, basepoint: Sequence[ScalarLike],
               order: int = DEFAULT_ORDER,
               max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Associativity defect at a basepoint, as an hbar series."""
    point = _point(alpha, basepoint)
    return HbarSeries(order, tuple(
        _associator(alpha, f, g, h, order, max_work, point)))


# constant-coefficient reference product ------------------------------------------

def _moyal_operator(alpha: Multivector, u: Series, v: Series, order: int,
                    max_work: int) -> Operator:
    """The exponential formula's constant coefficients, by index rows.

    Independent of the insertion multisets: C^(n)_IJ sums
    A^(i1 j1)..A^(in jn) over the index rows whose left indices make I and
    whose right indices make J.  Requires constant coefficients.
    """
    ring, us, vs, reach = _check_factors(alpha, u, v, order, max_work)
    entries: list[tuple[int, int, Scalar]] = []
    for (i, j), comp in sorted(alpha.components.items()):
        if not comp.is_constant():
            raise InputError("the exponential formula needs a constant bivector")
        value = comp.constant_value()
        entries.append((i - 1, j - 1, value))
        entries.append((j - 1, i - 1, -value))
    if len(entries) ** order > max_work:
        raise ResourceLimitError(
            f"about {len(entries) ** order} index rows at order {order} "
            f"exceed max_work={max_work}")
    room_u = _Rooms([p for _, p in us])
    room_v = _Rooms([p for _, p in vs])
    zero = (0,) * alpha.dim
    orders = []
    for n in range(reach + 1):
        coeffs: dict = {}
        for row in product(entries, repeat=n):
            I = J = zero
            for i, j, _ in row:
                I, J = _bump(I, i, 1), _bump(J, j, 1)
            if room_u[I] < 0 or room_v[J] < 0:
                continue
            _accumulate(coeffs, (I, J),
                        math.prod((value for _, _, value in row), start=ONE))
        orders.append({ij: {((), zero): c} for ij, c in coeffs.items()})
    return {(): GradedPoly.one(ring)}, orders, us, vs, order


def moyal_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
               order: int = DEFAULT_ORDER,
               max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Classical constant-bivector exponential product, order by order.

    Independent of the contraction engine: the order-n coefficient is
    (i/2)^n/n! sum over index rows A^(i1 j1)..A^(in jn) of the corresponding
    iterated derivatives of f and g.  Requires constant coefficients.
    """
    return dict(enumerate(
        _apply(_moyal_operator(alpha, {0: f}, {0: g}, order, max_work))))


def moyal(alpha: Multivector, f: GradedPoly, g: GradedPoly,
          basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
          max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Constant-bivector exponential product evaluated at a basepoint."""
    point = _point(alpha, basepoint)
    return HbarSeries(order, tuple(_apply(
        _moyal_operator(alpha, {0: f}, {0: g}, order, max_work), point)))
