"""Exact deformation product driven by contraction-pattern combinatorics.

The product of two polynomials against a bivector structure is computed as a
finite sum of contraction patterns.  Order n places n bivector insertions;
each insertion carries a leftward leg and a rightward leg.  The leftward leg
differentiates the first factor or the coefficient of another insertion; the
rightward leg does the same with the second factor.  A rightward leg landing
on an insertion contributes a factor -1.  Each insertion also picks an
oriented index pair (i, j) of the bivector, whose antisymmetry supplies the
remaining signs.

Consequences worth knowing:

 * order 1 splits into (i/2) hbar {f, g} plus a symmetric remainder, so the
   antisymmetric first-order part is exactly half the bracket;
 * for constant coefficients the sum collapses to the classical
   constant-bivector exponential formula (moyal below), which is associative;
 * for non-constant coefficients legs may land on insertions, and the
   product is in general NOT associative beyond first order.  That defect is
   measured by associator.

Normalization is not hard-coded: calibrate derives the insertion weight w
from a probe computation, order n of the product carries w^n / n!, and the
product routines use the cached weight.  Everything is exact; hbar is a
truncated formal series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Mapping, Optional, Sequence

from .errors import CalibrationError, InputError, ResourceLimitError
from .poisson import Multivector, _require_bivector, poisson_bracket
from .scalars import HALF_I, ONE, Scalar, ScalarLike
from .superalg import (GradedPoly, GradedSpace, HbarSeries, _point_values,
                       coeff_space)

DEFAULT_ORDER = 3
MAX_ORDER = 6
DEFAULT_MAX_WORK = 5_000_000

Series = dict[int, GradedPoly]


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
    raw_fg = _engine_terms(alpha, f_probe, g_probe, 1, max_work)[1]
    raw_gf = _engine_terms(alpha, g_probe, f_probe, 1, max_work)[1]
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


def _order_weight(n: int) -> Scalar:
    """w^n / n!, the weight of order n (it sits at hbar^n)."""
    return _default_calibration() ** n * Fraction(1, math.factorial(n))


# contraction engine -------------------------------------------------------------

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


def _check_factors(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                   order: int) -> GradedSpace:
    """Bivector, factor ring, order and order cap; returns the ring."""
    _require_bivector(alpha)
    ring = alpha.ring()
    if f.space != ring or g.space != ring:
        raise InputError("factors must live in the coefficient ring of the "
                         f"bivector (x1..x{alpha.dim})")
    if not isinstance(order, int) or order < 0:
        raise InputError("order must be a nonnegative integer")
    if order > MAX_ORDER:
        raise ResourceLimitError(f"order {order} exceeds the cap {MAX_ORDER}")
    return ring


def _oriented_pairs(alpha: Multivector):
    out = []
    for (i, j) in sorted(alpha.components):
        out.append((i, j, (i, j), 1))
        out.append((j, i, (i, j), -1))
    return out


def _engine_terms(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                  order: int, max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Raw unweighted contraction sums E_n for n = 0..order."""
    ring = _check_factors(alpha, f, g, order)
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


# products -----------------------------------------------------------------------

def _at_basepoint(series_poly: Callable[..., Series], alpha: Multivector,
                  factors: Sequence[GradedPoly],
                  basepoint: Sequence[ScalarLike], order: int,
                  max_work: int) -> HbarSeries:
    """Evaluate the hbar coefficients of series_poly at a basepoint.

    The basepoint is checked before any work, so a malformed point is an
    input error even when the order would be refused.
    """
    _require_bivector(alpha)
    point = {f"x{i}": v for i, v in
             enumerate(_point_values(basepoint, alpha.dim), start=1)}
    series = series_poly(alpha, *factors, order, max_work)
    return HbarSeries(order, tuple(series[k].evaluate(point)
                                   for k in range(order + 1)))


def star_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
              order: int = DEFAULT_ORDER,
              max_work: int = DEFAULT_MAX_WORK) -> Series:
    """hbar coefficients of f * g as polynomials (symbolic basepoint)."""
    raw = _engine_terms(alpha, f, g, order, max_work)
    return {n: term * _order_weight(n) for n, term in raw.items()}


def star(alpha: Multivector, f: GradedPoly, g: GradedPoly,
         basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
         max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Deformation product evaluated at a basepoint, as an hbar series."""
    return _at_basepoint(star_poly, alpha, (f, g), basepoint, order, max_work)


def star_series(alpha: Multivector, u: Mapping[int, GradedPoly],
                v: Mapping[int, GradedPoly], order: int = DEFAULT_ORDER,
                max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Bilinear extension of the product to truncated hbar series."""
    ring = alpha.ring()
    out: Series = {k: GradedPoly.zero(ring) for k in range(order + 1)}
    for k, uk in sorted(u.items()):
        if not isinstance(k, int) or k < 0:
            raise InputError("series keys must be nonnegative integers")
        if k > order or uk.is_zero():
            continue
        for l, vl in sorted(v.items()):
            if not isinstance(l, int) or l < 0:
                raise InputError("series keys must be nonnegative integers")
            if k + l > order or vl.is_zero():
                continue
            piece = star_poly(alpha, uk, vl, order - k - l, max_work)
            for m, p in piece.items():
                out[k + l + m] = out[k + l + m] + p
    return out


def associator_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                    h: GradedPoly, order: int = DEFAULT_ORDER,
                    max_work: int = DEFAULT_MAX_WORK) -> Series:
    """(f * g) * h - f * (g * h), coefficient polynomials per hbar order."""
    left = star_series(alpha, star_poly(alpha, f, g, order, max_work),
                       {0: h}, order, max_work)
    right = star_series(alpha, {0: f},
                        star_poly(alpha, g, h, order, max_work),
                        order, max_work)
    return {k: left[k] - right[k] for k in range(order + 1)}


def associator(alpha: Multivector, f: GradedPoly, g: GradedPoly,
               h: GradedPoly, basepoint: Sequence[ScalarLike],
               order: int = DEFAULT_ORDER,
               max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Associativity defect at a basepoint, as an hbar series."""
    return _at_basepoint(associator_poly, alpha, (f, g, h), basepoint, order,
                         max_work)


# constant-coefficient reference product ------------------------------------------

def moyal_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
               order: int = DEFAULT_ORDER,
               max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Classical constant-bivector exponential product, order by order.

    Independent of the contraction engine: the order-n coefficient is
    (i/2)^n/n! sum over index rows A^(i1 j1)..A^(in jn) of the corresponding
    iterated derivatives of f and g.  Requires constant coefficients.
    """
    ring = _check_factors(alpha, f, g, order)
    entries: list[tuple[int, int, Scalar]] = []
    for (i, j), comp in sorted(alpha.components.items()):
        if not comp.is_constant():
            raise InputError("the exponential formula needs a constant bivector")
        value = comp.constant_value()
        entries.append((i, j, value))
        entries.append((j, i, -value))
    if len(entries) ** order > max_work:
        raise ResourceLimitError(
            f"about {len(entries) ** order} index rows at order {order} "
            f"exceed max_work={max_work}")
    fcache = _Derivs(f)
    gcache = _Derivs(g)
    out: Series = {}
    for n in range(order + 1):
        total = GradedPoly.zero(ring)
        for row in product(entries, repeat=n):
            fkey = tuple(sorted(i for i, _, _ in row))
            if fcache.dead(fkey):
                continue
            gkey = tuple(sorted(j for _, j, _ in row))
            if gcache.dead(gkey):
                continue
            coeff = ONE
            for _, _, value in row:
                coeff = coeff * value
            total = total + fcache.get(fkey) * gcache.get(gkey) * coeff
        out[n] = total * _order_weight(n)
    return out


def moyal(alpha: Multivector, f: GradedPoly, g: GradedPoly,
          basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
          max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Constant-bivector exponential product evaluated at a basepoint."""
    return _at_basepoint(moyal_poly, alpha, (f, g), basepoint, order, max_work)
