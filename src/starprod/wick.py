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
its count vector, which is tested with one bitmask per direction and
exponent, without differentiating; a multiset whose 2n legs cannot all
land (2n > deg f + deg g + deg P_M) is skipped, and so is a split that
leaves P_M more legs than its degree.  P_M, the orientation classes and
the tests of P_M are built once per bivector, kept in a bounded table.
The binomial weights of the splits depend only on the leg counts, so each
leg vector's box of splits is built once, kept in a bounded cache, and a
walk only filters it against its factors.

For an (I, J) whose derivatives the factors leave nonzero, the cell
C^(n)_IJ, and the number of splits that build it, depend on the bivector
alone, so the table keeps them too, up to the bivector's share of the
table's bound: the walk's (M, K) counts of a cell are contracted once into
the polynomial sum count * d_K P_M, which is what the table keeps.  So
does the set of count vectors that the legs of order n can land on a
factor, with the multisets order n reaches and what they charge, and the
(I, J) that a product's factors admit there are those of the set they
leave nonzero.  The bivector's record owns each order: given the factors'
two tests, it enumerates the multisets once, walks only the admitted I
whose kept cells miss an admitted J, against the Js they miss, keeps what
the walk finds, and reads the order from the kept cells.  It charges the
multisets and classes, and the splits of every admitted (I, J), walked or
not.

Every product is a series product sum_{k,l} hbar^(k+l) u_k * v_l (star has
one coefficient a side).  Order n pairs u_k with v_l only when k + l + n
<= order, so one operator, each order pruned to the union of the supports
that such pairs take, serves every pair (k, l); an associator is four
products.  The operator is
applied symbolically (star_poly, star_series, associator_poly, calibrate),
or at a basepoint (star, moyal, the outer products of associator), where
d_I u_k, d_J v_l and C^(n)_IJ are evaluated before anything is multiplied.
Both contract Gaussian-integer numerators, the symbolic one with superalg's
multiply-accumulate kernel; the symbolic one reduces each hbar power once,
the one at a point the sum of each (n, k, l).  A product differentiates
and evaluates only its factors: each cell is read as it is kept.

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
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from typing import Callable, Mapping, Optional, Sequence

from .errors import (CalibrationError, InputError, ResourceLimitError,
                     require_int)
from .poisson import Multivector, _require_bivector, poisson_bracket
from .scalars import HALF_I, ONE, Scalar, ScalarLike, _reduced
from .superalg import (GradedPoly, GradedSpace, HbarSeries, _accumulate,
                       _canonical, _check_product, _deriv, _Point,
                       _point_values, _products, _rows, coeff_space)
from .monomials import _FIELD, _Layout

DEFAULT_ORDER = 3
MAX_ORDER = 6
DEFAULT_MAX_WORK = 5_000_000

Series = dict[int, GradedPoly]
# (ring, orders, us, vs, order): orders[n] maps (I, J) to the cell C^(n)_IJ
# as (den, rows, deg), numerator rows over den of degree deg at most, and
# B_n(u_k, v_l) sums C^(n)_IJ * d_I u_k * d_J v_l; us and vs are the
# nonzero (k, u_k), (l, v_l), k, l <= order, by key
Operator = tuple[GradedSpace, list[dict], list, list, int]
_UNIT_ROWS = {0: (1, 0)}  # the packed key 0 is the constant monomial
_UNIT_CELL = (1, _UNIT_ROWS, 0)  # the cell of B_0(u_k, v_l) = u_k v_l


def _bump(counts: tuple[int, ...], k: int, by: int) -> tuple[int, ...]:
    return counts[:k] + (counts[k] + by,) + counts[k + 1:] if by else counts


# calibration --------------------------------------------------------------------

def _proportionality(a: GradedPoly, b: GradedPoly) -> Optional[Scalar]:
    """The scalar c with a == c * b, or None if no such scalar exists."""
    if b.is_zero():
        return None
    if a.is_zero():
        return Scalar()
    key = next(iter(b.rows))
    if key not in a.rows:
        return None
    c = _reduced(*a.rows[key], a.den) / _reduced(*b.rows[key], b.den)
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
    us = [(k, p) for k, p in sorted(u.items()) if k <= order and p.rows]
    vs = [(l, p) for l, p in sorted(v.items()) if l <= order and p.rows]
    return ring, us, vs, (order - us[0][0] - vs[0][0] if us and vs else -1)


class _Admits(dict):
    """counts -> whether d^counts leaves some poly nonzero.

    d^K x^beta is nonzero exactly when beta dominates K, and distinct beta
    stay distinct, so d^K p vanishes exactly when no monomial of its
    support dominates the count vector K.  Nothing is differentiated: bit
    s stands for the s-th monomial of the support, and steps[k] lists the
    positive exponents e that the support takes in direction k, ascending,
    with the bits of the monomials whose exponent there is at least e.  K
    is admitted when the AND, over the directions with K[k] > 0, of the
    bits of the least e >= K[k] is nonzero.  A direction keeps one mask
    per exponent that occurs, so no table grows with the size of an
    exponent, and one that no monomial uses keeps none.
    """

    __slots__ = ("full", "steps")

    def __init__(self, polys: Sequence[GradedPoly]):
        keys = list({b for p in polys for b in p.rows})
        self.full = (1 << len(keys)) - 1  # the zero vector's: every bit
        self.steps = []
        for shift in polys[0].space._layout.shifts if polys else ():
            at: dict = {}  # exponent -> the bits of the monomials with it
            for s, key in enumerate(keys):
                if e := key >> shift & _FIELD:
                    at[e] = at.get(e, 0) | 1 << s
            exps = tuple(sorted(at))
            masks = accumulate(map(at.get, reversed(exps)), operator.or_)
            self.steps.append((exps, tuple(masks)[::-1]))

    def __missing__(self, counts: tuple[int, ...]) -> bool:
        bits = self.full
        for (exps, masks), c in zip(self.steps, counts):
            if c and bits:
                i = bisect_left(exps, c)
                bits = bits & masks[i] if i < len(exps) else 0
        got = self[counts] = bits != 0
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


_BOXES = 1024  # (leg vector, sign) boxes kept, least recently used out


@lru_cache(maxsize=_BOXES)
def _box(legs: tuple[int, ...], sign: int) -> tuple:
    """Every way the legs of each direction can split between one factor and
    the insertions, whatever the factor: entries (D, C(legs, D) *
    sign^(|legs| - |D|), |D|, legs - D) for each D <= legs, largest |D|
    first.  The sign is the factor a leg pays for landing on an insertion
    instead.  It depends on the leg counts alone, not on pi or the factors.
    """
    total = sum(legs)
    # the subs in lexicographic order; legs - D reverses it, so the rest of
    # the i-th sub is the i-th from the end
    subs = list(product(*[range(k + 1) for k in legs]))
    combs = product(*[[math.comb(k, s) for s in range(k + 1)] for k in legs])
    out = []
    for sub, rest, ws in zip(subs, reversed(subs), combs):
        size = sum(sub)
        w = math.prod(ws)
        out.append((sub, -w if sign < 0 and total - size & 1 else w, size,
                    rest))
    out.sort(key=lambda entry: -entry[2])
    return tuple(out)


def _landings(legs: tuple[int, ...], admitted: set, sign: int) -> list:
    """The entries of the legs' box whose D leaves d_D of the factor
    nonzero (D in admitted), in the box's order: largest |D| first."""
    return [entry for entry in _box(legs, sign) if entry[0] in admitted]


class _Pieces:
    """One bivector's factor-independent pieces, built on first use: P_M by
    multiset M, the dominance test of P_M and classes of M for each M
    reached, what each order reaches and where its legs can land on a
    factor, and the operator's cells.

    landable[n, t] is (lefts, rights, reached, charge): the D <= some left,
    or right, leg vector of a class of order n, over the multisets whose
    need is at most t, those multisets with their need, test and classes,
    and the units that enumerating them charges.  A factor admits at order
    n the D of lefts, or rights, that it leaves nonzero.

    cells[n][I] is (covered, kept): covered holds each J whose cell
    C^(n)_IJ is known, and kept maps those J with a split to (splits,
    cell), cell being C^(n)_IJ as (den, rows, deg) in lowest terms, or None
    if no split reaches a P_M that the legs leave nonzero; every other
    covered J has no split and no cell.  For an I and J that the factors
    admit, the cell and its splits do not depend on the factors: the test
    of P_M and the test |I| + |J| >= need read the bivector alone, and a
    multiset skipped by the degree test has need > |I| + |J|.  order
    builds, walks, keeps and reads an order, so it alone knows these
    formats; a product passes it only the factors' tests.  The trim drops
    every cell of a record whose cells pass its share of the table's
    entries.
    """

    def __init__(self, alpha: Multivector):
        self.keys, self.dim = sorted(alpha.components), alpha.dim
        self.comps = [alpha.components[key] for key in self.keys]
        self.degs = [p.total_degree() for p in self.comps]
        self.ring = alpha.ring()
        self.polys = {(0,) * len(self.keys): GradedPoly.one(self.ring)}
        self.multisets, self.size = {}, 0  # size: entries at the last trim
        self.landable: dict[tuple[int, int], tuple] = {}
        self.cells: dict[int, dict] = {}
        self.cell_size = 0  # covered pairs and rows of the kept cells

    def product(self, mult: tuple[int, ...]) -> GradedPoly:
        """P_M, from the product with one factor fewer."""
        got = self.polys.get(mult)
        if got is None:
            c = max(k for k, m in enumerate(mult) if m)
            got = self.polys[mult] = (self.product(_bump(mult, c, -1))
                                      * self.comps[c])
        return got

    def reach(self, n: int, t: int, spend: Callable[[int], None]) -> tuple:
        """landable[n, t], charged: built the first time, each multiset and
        the classes of each reached charged as it is enumerated; later in
        one charge of their sum, which refuses exactly when they would."""
        got = self.landable.get((n, t))
        if got is not None:
            spend(got[3])
            return got
        reached, charge = [], 0
        for mult in _multisets(n, len(self.keys)):
            spend(1)
            charge += 1
            # the 2n legs land on u, v and P_M, so at least need of them
            # land on u and v; need <= 2n, so t decides what is reached
            need = 2 * n - sum(map(operator.mul, mult, self.degs))
            if need > t:
                continue
            if mult not in self.multisets:
                self.multisets[mult] = (
                    _Admits([self.product(mult)]),
                    _orientations(self.keys, mult, self.dim))
            admits_p, classes = self.multisets[mult]
            spend(len(classes))
            charge += len(classes)
            reached.append((mult, need, admits_p, classes))
        met = {key for *_, classes in reached for key in classes}
        lefts, rights = (
            {entry[0] for legs in {key[side] for key in met}
             for entry in _box(legs, sign)}
            for side, sign in ((0, 1), (1, -1)))
        got = self.landable[n, t] = lefts, rights, reached, charge
        return got

    def contract(self, counts: dict, derivs: dict) -> tuple:
        """The cell sum of count * d_K P_M over counts {(M, K): count}, as
        (den, rows, deg) in lowest terms; derivs keeps each d_K P_M's rows
        for the other cells of a walk."""
        den = math.lcm(*{self.polys[mult].den for mult, _ in counts})
        pairs = []
        for (mult, K), count in counts.items():
            p = self.polys[mult]
            rows = derivs.get((mult, K))
            if rows is None:
                rows = derivs[mult, K] = _deriv(self.ring._layout, p.rows, K)
            pairs.append((count * (den // p.den), rows, _UNIT_ROWS))
        cell = _canonical(self.ring, den, _products(self.ring, pairs))
        return cell.den, cell.rows, cell.total_degree()

    def order(self, n: int, t: int, admits_u: _Admits, admits_v: _Admits,
              spend: Callable[[int], None]) -> dict:
        """Order n's cells over the (I, J) that admits_u and admits_v leave
        nonzero, t being min(deg u + deg v, 2n) of the factors.  Charges
        each multiset, the classes of each reached, and the splits of each
        admitted (I, J): first those the walk of the rows that miss a J
        examines, then the rest as the cells are read."""
        land_u, land_v, reached, _ = self.reach(n, t, spend)
        adm_u = {D for D in land_u if admits_u[D]}
        adm_v = {D for D in land_v if admits_v[D]}
        # the admitted I whose covered Js miss an admitted J, and those Js
        rows = self.cells.setdefault(n, {})
        todo = {I for I in adm_u if I not in rows or not rows[I][0] >= adm_v}
        miss = set().union(*[adm_v - rows[I][0] if I in rows else adm_v
                             for I in todo])
        tally, walked = {}, 0  # I -> {J: [splits, {(M, K): count}]}
        lefts, rights = {}, {}  # leg vector -> its landings
        for mult, need, admits_p, classes in reached if todo else ():
            for (left, right), weight in classes.items():
                if right not in rights:
                    rights[right] = _landings(right, miss, -1)
                if left not in lefts:
                    lefts[left] = _landings(left, todo, 1)
                to_g, splits = rights[right], 0
                for I, wl, nl, rest_i in lefts[left]:
                    if not to_g or nl + to_g[0][2] < need:
                        break
                    wl *= weight
                    row = tally.get(I)
                    if row is None:
                        row = tally[I] = {}
                    for J, wr, nr, rest_j in to_g:
                        if nl + nr < need:
                            break
                        splits += 1
                        entry = row.get(J)
                        if entry is None:
                            entry = row[J] = [0, {}]
                        entry[0] += 1
                        # K = legs - I - J, the legs left to P_M
                        K = tuple(map(operator.add, rest_i, rest_j))
                        if admits_p[K]:
                            _accumulate(entry[1], (mult, K), wl * wr)
                spend(splits)
                walked += splits
        # covered sets are replaced, not changed in place, so rows share
        # miss; each new cell's counts are contracted once, as it is kept
        derivs: dict = {}
        for I in todo:
            covered, kept = rows.get(I) or (frozenset(), {})
            grown = covered | miss if covered else miss
            self.cell_size += len(grown) - len(covered)
            rows[I] = grown, kept
            for J, (count, counts) in tally.get(I, {}).items():
                if J not in kept:
                    cell = self.contract(counts, derivs) if counts else None
                    kept[J] = count, cell
                    self.cell_size += len(cell[1]) if cell else 0
        cells, splits = {}, 0
        for I in adm_u:
            kept = rows[I][1]
            for J in kept.keys() & adm_v:
                count, cell = kept[J]
                splits += count
                if cell:
                    cells[I, J] = cell
        spend(splits - walked)
        return cells


# pieces by bivector content, least recently used first; each operator holds
# the lock from lookup to trim, so threads take turns at the table
_TABLE: dict[tuple, _Pieces] = {}
_TABLE_BIVECTORS = 8
_TABLE_ENTRIES = 50_000  # P_M terms and tests, classes, landable D, cells
_TABLE_LOCK = threading.Lock()


def _operator(alpha: Multivector, u: Series, v: Series, order: int,
              max_work: int) -> Operator:
    """The coefficients C^(n)_IJ of B_0..B_n, pruned to the factor series.

    orders[n] maps (I, J) to the cell C^(n)_IJ as (den, rows, deg): the
    sum of count * d_K P_M, where M counts the insertions of each component,
    P_M is their product and K the legs left to it.  Order n pairs u_k with
    v_l only when k + l <= order - n, so its pruning tests the union of the
    supports of the coefficients on each side that such a pair takes: one
    operator serves every pair (u_k, v_l), and it stops at the highest
    order a pair needs.  Here only the factor side is built: each order's
    two dominance tests and the degree bound t, which the bivector's record
    (_Pieces.order) turns into the order's cells.
    Each multiset of components, each orientation class of it and each split
    of its legs between u, v and P_M is one unit of work against max_work,
    whether or not it is walked: a read charges the splits its cells were
    walked with, less those the walk charged.  A class's splits are charged
    together after the class, and an order reached before charges its
    multisets and classes in one sum; the totals, and so the smallest
    budget that succeeds, are those of one charge a unit.  The trim applies
    every bound of the table: a record's share of its entries, the entries
    of one record alone, and then the table's bivectors and entries, least
    recently used out first.
    """
    ring, us, vs, reach = _check_factors(alpha, u, v, order, max_work)
    key = (alpha.dim, tuple(sorted(
        (k, p.den, tuple(sorted(p.rows.items())))
        for k, p in alpha.components.items())))
    tests_u: dict[int, _Admits] = {}
    tests_v: dict[int, _Admits] = {}
    zero = (0,) * alpha.dim
    work = 0

    def spend(units: int) -> None:
        nonlocal work
        work += units
        if work > max_work:
            raise ResourceLimitError(
                f"operator enumeration exceeded max_work={max_work}; raise "
                "the limit or lower the order")

    def side(coeffs: list, other: int, n: int, tests: dict) -> tuple:
        """The dominance test of the coefficients that order n's pairs take,
        and their largest degree; other is the least key of the other side.
        They are a prefix of coeffs, so tests keeps one by its length."""
        taken = [p for k, p in coeffs if k + other <= order - n]
        if len(taken) not in tests:
            tests[len(taken)] = _Admits(taken)
        return tests[len(taken)], max(p.total_degree() for p in taken)

    # B_0(u_k, v_l) = u_k v_l: no insertions
    orders = [{(zero, zero): _UNIT_CELL}] if reach >= 0 else []
    with _TABLE_LOCK:
        pieces = _TABLE[key] = _TABLE.pop(key, None) or _Pieces(alpha)
        try:
            for n in range(1, reach + 1):
                admits_u, deg_u = side(us, vs[0][0], n, tests_u)
                admits_v, deg_v = side(vs, us[0][0], n, tests_v)
                orders.append(pieces.order(n, min(deg_u + deg_v, 2 * n),
                                           admits_u, admits_v, spend))
        finally:
            if pieces.cell_size > _TABLE_ENTRIES // _TABLE_BIVECTORS:
                pieces.cells, pieces.cell_size = {}, 0  # over its share
            pieces.size = sum(len(p.rows) for p in pieces.polys.values()) + sum(
                len(a) + len(b) for a, b in pieces.multisets.values()
            ) + sum(len(a) + len(b) for a, b, *_ in pieces.landable.values()
                    ) + pieces.cell_size
            if pieces.size > _TABLE_ENTRIES:  # too big alone: drop it first
                del _TABLE[key]
            total = sum(entry.size for entry in _TABLE.values())
            while len(_TABLE) > _TABLE_BIVECTORS or total > _TABLE_ENTRIES:
                total -= _TABLE.pop(next(iter(_TABLE))).size
    return ring, orders, us, vs, order


class _Values(dict):
    """(name, counts) -> d^counts of factors[name], built once by superalg's
    _deriv and _Point: rows over its den D, or its value (re, im) over D
    q^deg at a point; (name, None) -> (rows, deg, that D)."""

    __slots__ = ("point", "factors", "layout")

    def __init__(self, point: Optional[_Point], factors: dict,
                 layout: _Layout):
        self.point, self.factors = point, factors
        self.layout = layout  # the ring's, which counts are packed into

    def __missing__(self, key: tuple):
        name, counts = key
        if counts is None:
            p = self.factors[name]
            d, deg = p.den, p.total_degree()
            got = p.rows, deg, d * self.point.q ** deg if self.point else d
        else:
            rows, deg, _ = self[name, None]
            got = _deriv(self.layout, rows, counts)
            got = got if self.point is None else self.point.value(got, deg)
        self[key] = got
        return got


def _apply(op: Operator, point: Optional[_Point] = None,
           w: Optional[Scalar] = None) -> list:
    """hbar coefficients 0..order of the product of the series op was built
    for: polynomials, or numbers at a point.

    The pair (u_k, v_l) adds w^n/n! B_n(u_k, v_l) at hbar^(k+l+n), w the
    calibrated weight unless given.  The derivatives of u_k and v_l are
    formed once from their stored rows (_Values), and each cell C^(n)_IJ
    is read as kept, over the lcm of the denominators of order n: its rows
    symbolically, and at a point its one value, every cell of the order
    over q to the order's largest degree.  Symbolically, the (n, k, l) sums
    of one hbar power are put over their lcm and reduced once; at a point,
    each is reduced and added into its power.  As with `*`, d_I u_k * d_J
    v_l and its product with C^(n)_IJ meet the product cap (not at a point,
    where each is a number).
    """
    ring, orders, us, vs, order = op
    # ("u", k) and ("v", l) name the factors apart
    at = _Values(point, {("u", k): p for k, p in us}
                 | {("v", l): p for l, p in vs}, ring._layout)
    # numbers at a point; else the (den, rows, weight) pieces of each power
    out: list = [Scalar()] * (order + 1) if point \
        else [[] for _ in range(order + 1)]
    for n, terms in enumerate(orders):
        pairs = [(("u", k), ("v", l), k + l, [0, 0] if point else [])
                 for k, _ in us for l, _ in vs if k + l <= order - n]
        lcm = math.lcm(*{d for d, _, _ in terms.values()})
        top = max((deg for _, _, deg in terms.values()), default=0)
        den = lcm * point.q ** top if point else lcm
        for (I, J), (d, rows, _) in terms.items():
            s = lcm // d
            if point is not None:
                x, y = point.value(rows, top)
                if s != 1:
                    x, y = x * s, y * s
                for u, v, _, acc in pairs if x or y else ():
                    (a, b), (c, e) = at[u, I], at[v, J]
                    a, b = a * c - b * e, a * e + b * c
                    acc[0] += a * x - b * y
                    acc[1] += a * y + b * x
                continue
            for u, v, _, acc in pairs:
                du, dv = at[u, I], at[v, J]
                if du and dv:
                    _check_product(ring, du, dv)
                    if rows:
                        piece = _products(ring, [(1, du, dv)])
                        _check_product(ring, piece, rows)
                        acc.append((s, piece, rows))
        wd, weight = _rows({0: _order_weight(n, w) if n else ONE})
        a, b = weight[0]
        for u, v, kl, acc in pairs:
            d = wd * den * at[u, None][2] * at[v, None][2]
            if point:
                out[kl + n] += _reduced(acc[0] * a - acc[1] * b,
                                        acc[0] * b + acc[1] * a, d)
            elif acc:
                out[kl + n].append((d, _products(ring, acc), weight))
    if point:
        return out
    reduced = []
    for pieces in out:  # one reduction per hbar power
        lcm = math.lcm(*[d for d, _, _ in pieces])
        reduced.append(_canonical(ring, lcm, _products(
            ring, [(lcm // d, rows, weight) for d, rows, weight in pieces])))
    return reduced


# products -----------------------------------------------------------------------

def _point(alpha: Multivector, basepoint: Sequence[ScalarLike]) -> _Point:
    """The basepoint, checked before any other work: a malformed point is
    an input error even at a refused order."""
    _require_bivector(alpha)
    return _Point(_point_values(basepoint, alpha.dim))


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
                point: Optional[_Point] = None) -> list:
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
    admits_u = _Admits([p for _, p in us])
    admits_v = _Admits([p for _, p in vs])
    zero = (0,) * alpha.dim
    orders = []
    for n in range(reach + 1):
        coeffs: dict = {}
        for row in product(entries, repeat=n):
            I = J = zero
            for i, j, _ in row:
                I, J = _bump(I, i, 1), _bump(J, j, 1)
            if not (admits_u[I] and admits_v[J]):
                continue
            _accumulate(coeffs, (I, J),
                        math.prod((value for _, _, value in row), start=ONE))
        # each coefficient c is a cell of degree 0
        orders.append({ij: (*_rows({0: c}), 0) for ij, c in coeffs.items()})
    return ring, orders, us, vs, order


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
