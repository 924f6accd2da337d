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
is a split that leaves P_M more legs than its degree; the products P_M are
built from each other and shared across multisets and orders.

The operator is applied in one of two ways: symbolically, to get the
coefficients of the product as polynomials (star_poly, star_series,
associator_poly, calibrate), or at a basepoint, where d_I f, d_J g and
C^(n)_IJ are evaluated before anything is multiplied (star, moyal and the
outer products of associator).

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
import operator
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, product
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
# (polys, orders): orders[n] maps (I, J) to {(M, K): coefficient}, and
# B_n(f, g) sums coefficient * d_K polys[M] * d_I f * d_J g
Operator = tuple[dict, list[dict]]


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
    raw_fg = _apply(_operator(alpha, f_probe, g_probe, 1, max_work),
                    f_probe, g_probe)[1]
    raw_gf = _apply(_operator(alpha, g_probe, f_probe, 1, max_work),
                    g_probe, f_probe)[1]
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
def _order_weight(n: int) -> Scalar:
    """w^n / n!, the weight of order n (it sits at hbar^n)."""
    return _default_calibration() ** n * Fraction(1, math.factorial(n))


# bidifferential operators -------------------------------------------------------

def _check_factors(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                   order: int, max_work: int) -> GradedSpace:
    """Bivector, factor ring, order, work budget and order cap; returns the ring."""
    _require_bivector(alpha)
    ring = alpha.ring()
    if f.space != ring or g.space != ring:
        raise InputError("factors must live in the coefficient ring of the "
                         f"bivector (x1..x{alpha.dim})")
    if not isinstance(order, int) or order < 0:
        raise InputError("order must be a nonnegative integer")
    if not isinstance(max_work, int) or isinstance(max_work, bool) \
            or max_work < 0:
        raise InputError("max_work must be a nonnegative integer")
    if order > MAX_ORDER:
        raise ResourceLimitError(f"order {order} exceeds the cap {MAX_ORDER}")
    return ring


def _bump(counts: tuple[int, ...], k: int, by: int) -> tuple[int, ...]:
    return counts[:k] + (counts[k] + by,) + counts[k + 1:] if by else counts


def _rooms(poly: GradedPoly) -> Callable[[tuple[int, ...]], int]:
    """counts -> how many more derivatives d^counts poly can take, -1 if none.

    d^K x^beta is nonzero exactly when beta dominates K, and distinct beta
    stay distinct, so d^K poly vanishes exactly when no monomial of the
    support dominates the count vector K.  Nothing is differentiated.
    """
    support = [(beta, sum(beta)) for beta in poly.terms]
    cache: dict[tuple[int, ...], int] = {}

    def room(counts: tuple[int, ...]) -> int:
        got = cache.get(counts)
        if got is None:
            degs = [deg for beta, deg in support
                    if all(map(operator.ge, beta, counts))]
            got = cache[counts] = max(degs) - sum(counts) if degs else -1
        return got

    return room


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
                key = (_bump(_bump(left, i, u), j, m - u),
                       _bump(_bump(right, j, u), i, m - u))
                grown[key] = grown.get(key, 0) \
                    + w * math.comb(m, u) * (-1) ** (m - u)
        classes = grown
    return {key: w * weight for key, w in classes.items() if w}


def _landings(legs: tuple[int, ...], room: Callable, sign: int) -> list:
    """Which of the legs of each direction land on one factor.

    Entries (D, C(legs, D) * sign^(|legs| - |D|), |D|) for each D <= legs
    with d_D of the factor nonzero, largest |D| first.  The sign is the
    factor a leg pays for landing on an insertion instead.
    """
    out = []
    total = sum(legs)
    for sub in product(*(range(k + 1) for k in legs)):
        if room(sub) >= 0:
            w = sign ** (total - sum(sub))
            for k, s in zip(legs, sub):
                w *= math.comb(k, s)
            out.append((sub, w, sum(sub)))
    out.sort(key=lambda entry: -entry[2])
    return out


def _operator(alpha: Multivector, f: GradedPoly, g: GradedPoly, order: int,
              max_work: int) -> Operator:
    """The coefficients C^(n)_IJ of B_0..B_order, pruned to the factors f, g.

    Returns (polys, orders).  orders[n] maps (I, J) to {(M, K): count}, and
    C^(n)_IJ is the sum of count * d_K polys[M], where M counts the
    insertions of each component and polys[M] is their product P_M.  Each
    multiset of components, each orientation class of it and each split of
    its legs between f, g and P_M is one unit of work against max_work.
    """
    ring = _check_factors(alpha, f, g, order, max_work)
    keys = sorted(alpha.components)
    comps = [alpha.components[key] for key in keys]
    degs = [p.total_degree() for p in comps]
    deg_fg = f.total_degree() + g.total_degree()
    room_f, room_g = _rooms(f), _rooms(g)
    lefts: dict[tuple[int, ...], list] = {}
    rights: dict[tuple[int, ...], list] = {}
    zero, none = (0,) * alpha.dim, (0,) * len(comps)
    polys = {none: GradedPoly.one(ring)}
    work = 0

    def spend(units: int) -> None:
        nonlocal work
        work += units
        if work > max_work:
            raise ResourceLimitError(
                f"operator enumeration exceeded max_work={max_work}; raise "
                "the limit or lower the order")

    def product_of(mult: tuple[int, ...]) -> GradedPoly:
        # P_M from the product with one factor fewer
        got = polys.get(mult)
        if got is None:
            c = max(k for k, m in enumerate(mult) if m)
            got = polys[mult] = product_of(_bump(mult, c, -1)) * comps[c]
        return got

    # B_0(f, g) = f g: no insertions
    orders = [{(zero, zero): {(none, zero): 1}} if f.terms and g.terms
              else {}]
    for n in range(1, order + 1):
        tally: dict = {}
        for mult in _multisets(n, len(comps)):
            spend(1)
            # the 2n legs land on f, g and P_M, so at least need of them
            # land on f and g
            need = 2 * n - sum(map(operator.mul, mult, degs))
            if need > deg_fg:
                continue
            room_p = _rooms(product_of(mult))
            classes = _orientations(keys, mult, alpha.dim)
            spend(len(classes))
            for (left, right), weight in classes.items():
                legs = tuple(map(operator.add, left, right))
                if right not in rights:
                    rights[right] = _landings(right, room_g, -1)
                if left not in lefts:
                    lefts[left] = _landings(left, room_f, 1)
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
                        if room_p(K) >= 0:
                            cell = tally.setdefault((I, J), {})
                            cell[(mult, K)] = cell.get((mult, K), 0) \
                                + weight * wl * wr
        terms = {}
        for ij, cell in tally.items():
            cell = {key: count for key, count in cell.items() if count}
            if cell:
                terms[ij] = cell
        orders.append(terms)
    return polys, orders


def _deriv_terms(p: GradedPoly, counts: tuple[int, ...]):
    """(beta - counts, c, beta!/(beta - counts)!) for each term c x^beta of p
    that survives d^counts, counts[k] derivatives in x(k+1)."""
    for beta, c in p.terms.items():
        factor = 1
        for b, k in zip(beta, counts):
            if b < k:
                break
            factor *= math.perm(b, k)
        else:
            yield tuple(map(operator.sub, beta, counts)), c, factor


def _deriv(p: GradedPoly, counts: tuple[int, ...]) -> GradedPoly:
    if not any(counts):
        return p
    return GradedPoly(p.space, {gamma: c * factor if factor != 1 else c
                                for gamma, c, factor in _deriv_terms(p, counts)})


def _apply(op: Operator, f: GradedPoly, g: GradedPoly,
           point: Optional[Mapping[str, Scalar]] = None) -> list:
    """B_0(f, g)..B_order(f, g), unweighted: polynomials, or numbers at a point.

    At a point, d_I f, d_J g and each d_K P_M are evaluated there before
    anything is multiplied, so polynomials that would only be evaluated are
    never multiplied.
    """
    polys, orders = op
    if point is None:
        zero, unit = GradedPoly.zero(f.space), GradedPoly.one(f.space)
        at = _deriv
    else:
        zero, unit = Scalar(), ONE
        values = [point[name] for name in f.space.names]
        monomials: dict[tuple[int, ...], Scalar] = {}

        def monomial(gamma):
            # x0^gamma for gamma != 0, from the monomial with one factor fewer
            got = monomials.get(gamma)
            if got is None:
                k = max(k for k, e in enumerate(gamma) if e)
                fewer = _bump(gamma, k, -1)
                got = monomial(fewer) * values[k] if any(fewer) else values[k]
                monomials[gamma] = got
            return got

        def at(p, counts):
            total = zero
            for gamma, c, factor in _deriv_terms(p, counts):
                term = c * monomial(gamma) if any(gamma) else c
                total = total + (term * factor if factor != 1 else term)
            return total

    seen: dict = {}

    def d(name, p, counts):
        got = seen.get((name, counts))
        if got is None:
            got = seen[(name, counts)] = at(p, counts)
        return got

    out = []
    for terms in orders:
        total = zero
        for (I, J), cell in terms.items():
            coeff = zero
            for (mult, K), count in cell.items():
                term = d(mult, polys[mult], K)
                coeff = coeff + (term if count == 1 else term * count)
            piece = d("f", f, I) * d("g", g, J)
            total = total + (piece if coeff == unit else piece * coeff)
        out.append(total)
    return out


# products -----------------------------------------------------------------------

def _product(op: Operator, f: GradedPoly, g: GradedPoly,
             point: Optional[Mapping[str, Scalar]] = None) -> list:
    """hbar coefficients w^n/n! B_n(f, g): polynomials, or numbers at a point."""
    return [term * _order_weight(n) if n else term
            for n, term in enumerate(_apply(op, f, g, point))]


def _point(alpha: Multivector,
           basepoint: Sequence[ScalarLike]) -> dict[str, Scalar]:
    """The basepoint as an evaluation map.

    It is checked before any other work, so a malformed point is an input
    error even when the order would be refused.
    """
    _require_bivector(alpha)
    return {f"x{i}": v for i, v in
            enumerate(_point_values(basepoint, alpha.dim), start=1)}


def star_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
              order: int = DEFAULT_ORDER,
              max_work: int = DEFAULT_MAX_WORK) -> Series:
    """hbar coefficients of f * g as polynomials (symbolic basepoint)."""
    return dict(enumerate(
        _product(_operator(alpha, f, g, order, max_work), f, g)))


def star(alpha: Multivector, f: GradedPoly, g: GradedPoly,
         basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
         max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Deformation product evaluated at a basepoint, as an hbar series."""
    point = _point(alpha, basepoint)
    return HbarSeries(order, tuple(
        _product(_operator(alpha, f, g, order, max_work), f, g, point)))


def _series_product(alpha: Multivector, u: Mapping[int, GradedPoly],
                    v: Mapping[int, GradedPoly], order: int, max_work: int,
                    point: Optional[Mapping[str, Scalar]] = None) -> list:
    """Bilinear extension of the product to truncated hbar series."""
    zero = GradedPoly.zero(alpha.ring()) if point is None else Scalar()
    out = [zero] * (order + 1)
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
            op = _operator(alpha, uk, vl, order - k - l, max_work)
            for m, p in enumerate(_product(op, uk, vl, point)):
                out[k + l + m] = out[k + l + m] + p
    return out


def star_series(alpha: Multivector, u: Mapping[int, GradedPoly],
                v: Mapping[int, GradedPoly], order: int = DEFAULT_ORDER,
                max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Bilinear extension of the product to truncated hbar series."""
    return dict(enumerate(_series_product(alpha, u, v, order, max_work)))


def _associator(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                h: GradedPoly, order: int, max_work: int,
                point: Optional[Mapping[str, Scalar]] = None) -> list:
    """(f * g) * h - f * (g * h); the outer products at the point if given."""
    left = _series_product(alpha, star_poly(alpha, f, g, order, max_work),
                           {0: h}, order, max_work, point)
    right = _series_product(alpha, {0: f},
                            star_poly(alpha, g, h, order, max_work),
                            order, max_work, point)
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

def _moyal_operator(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                    order: int, max_work: int) -> Operator:
    """The exponential formula's constant coefficients, by index rows.

    Independent of the insertion multisets: C^(n)_IJ sums
    A^(i1 j1)..A^(in jn) over the index rows whose left indices make I and
    whose right indices make J.  Requires constant coefficients.
    """
    ring = _check_factors(alpha, f, g, order, max_work)
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
    room_f, room_g = _rooms(f), _rooms(g)
    zero = (0,) * alpha.dim
    orders = []
    for n in range(order + 1):
        coeffs: dict = {}
        for row in product(entries, repeat=n):
            I = J = zero
            for i, j, _ in row:
                I, J = _bump(I, i, 1), _bump(J, j, 1)
            if room_f(I) < 0 or room_g(J) < 0:
                continue
            coeff = ONE
            for _, _, value in row:
                coeff = coeff * value
            coeffs[(I, J)] = coeffs.get((I, J), Scalar()) + coeff
        orders.append({ij: {((), zero): c} for ij, c in coeffs.items() if c})
    return {(): GradedPoly.one(ring)}, orders


def moyal_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
               order: int = DEFAULT_ORDER,
               max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Classical constant-bivector exponential product, order by order.

    Independent of the contraction engine: the order-n coefficient is
    (i/2)^n/n! sum over index rows A^(i1 j1)..A^(in jn) of the corresponding
    iterated derivatives of f and g.  Requires constant coefficients.
    """
    return dict(enumerate(
        _product(_moyal_operator(alpha, f, g, order, max_work), f, g)))


def moyal(alpha: Multivector, f: GradedPoly, g: GradedPoly,
          basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
          max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Constant-bivector exponential product evaluated at a basepoint."""
    point = _point(alpha, basepoint)
    return HbarSeries(order, tuple(
        _product(_moyal_operator(alpha, f, g, order, max_work), f, g, point)))
