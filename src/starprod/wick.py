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

The associator is one operator of its own, on three factors: hbar^s of
(f * g) * h - f * (g * h) sums tri-cells T^(s)_PQL * d_P f * d_Q g * d_L h,
which Leibniz builds from the cells and the record keeps beside them
(tricells).  An operator is applied symbolically (star_poly,
associator_poly, calibrate), or at a basepoint (star, moyal, associator),
where the factors' derivatives and each cell are evaluated before anything
is multiplied.  Both contract Gaussian-integer numerators, the symbolic one
with superalg's multiply-accumulate kernel, and reduce each hbar power
once.  A product differentiates and evaluates only its factors: each cell
is read as it is kept.  The product of hbar series (star_series) is the
bilinear extension: a sum of the products of its coefficient pairs.

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
from contextlib import contextmanager
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (CalibrationError, InputError, ResourceLimitError,
                     require_int)
from .poisson import Multivector, _require_bivector, poisson_bracket
from .scalars import HALF_I, ONE, Scalar, ScalarLike, _reduced
from .superalg import (GradedPoly, GradedSpace, HbarSeries, _accumulate,
                       _canonical, _check_product, _deriv, _Point,
                       _point_values, _products, _rows, _sum, coeff_space)
from .monomials import _FIELD

DEFAULT_ORDER = 3
MAX_ORDER = 6
DEFAULT_MAX_WORK = 5_000_000

Series = dict[int, GradedPoly]
# (ring, orders, f, g, order): orders[n] maps (I, J) to the cell C^(n)_IJ
# as (den, rows, deg), numerator rows over den of degree deg at most, and
# B_n(f, g) sums C^(n)_IJ * d_I f * d_J g; no order if f or g is zero
Operator = tuple[GradedSpace, list[dict], GradedPoly, GradedPoly, int]
_UNIT_ROWS = {0: (1, 0)}  # the packed key 0 is the constant monomial
_UNIT_CELL = (1, _UNIT_ROWS, 0)  # the cell of B_0(f, g) = f g


def _bump(counts: tuple[int, ...], k: int, by: int) -> tuple[int, ...]:
    return counts[:k] + (counts[k] + by,) + counts[k + 1:] if by else counts


# calibration --------------------------------------------------------------------

def _proportionality(a: GradedPoly, b: GradedPoly) -> Optional[Scalar]:
    """The scalar c with a == c * b, b nonzero, or None if there is none."""
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
    raw_fg = _apply(_operator(alpha, f_probe, g_probe, 1, max_work), w=ONE)[1]
    raw_gf = _apply(_operator(alpha, g_probe, f_probe, 1, max_work), w=ONE)[1]
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

def _check_factors(alpha: Multivector, factors: Iterable[GradedPoly],
                   order: int, max_work: int) -> GradedSpace:
    """Bivector, each factor, order, work budget and order cap, in that
    order; returns the bivector's ring."""
    _require_bivector(alpha)
    ring = alpha.ring()
    for p in factors:
        if not isinstance(p, GradedPoly) or p.space != ring:
            raise InputError("factors must live in the coefficient ring "
                             f"of the bivector (x1..x{alpha.dim})")
    require_int(order, "order")
    require_int(max_work, "max_work")
    if order > MAX_ORDER:
        raise ResourceLimitError(f"order {order} exceeds the cap {MAX_ORDER}")
    return ring


class _Admits(dict):
    """counts -> whether d^counts leaves p nonzero.

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

    def __init__(self, p: GradedPoly):
        self.full = (1 << len(p.rows)) - 1  # the zero vector's: every bit
        self.steps = []
        for shift in p.space._layout.shifts:
            at: dict = {}  # exponent -> the bits of the monomials with it
            for s, key in enumerate(p.rows):
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
    formats; a product passes it only the factors' tests.

    tri[s][P][Q] maps L to each nonzero associator tri-cell T^(s)_PQL as
    (den, rows, deg) over its build's denominator, not reduced, and
    supports maps the supports of three factors whose tri-cells were
    built, with the order, to the build's whole charge: its reads of the
    cells and the terms it formed; the tricells module alone reads and
    writes them.  The trim drops every cell, tri-cell and support of a
    record whose cells and tri-cells pass its share of the table's entries.
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
        self.tri: dict[int, dict] = {}
        self.supports: dict[tuple, int] = {}
        # covered pairs, kept tri-cells, their cells' rows, supports' keys
        self.cell_size = 0
        # the directions that legs land in
        self.dirs = {k - 1 for key in self.keys for k in key}

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
                    _Admits(self.product(mult)),
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
        terms = []
        for (mult, K), count in counts.items():
            p = self.polys[mult]
            if (mult, K) not in derivs:
                derivs[mult, K] = _deriv(self.ring._layout, p.rows, K)
            terms.append((count, p.den, derivs[mult, K]))
        # counts and _deriv's falling factorials leave terms that are not
        # in lowest terms, so a sum that merges no key is reduced here too
        cell = _sum(self.ring, terms)
        cell = _canonical(self.ring, cell.den, cell.rows)
        # the top field of a key holds its degree
        return (cell.den, cell.rows,
                max(cell.rows, default=0) >> self.ring._layout.top)

    def order(self, n: int, t: int, admits_u: Callable, admits_v: Callable,
              spend: Callable[[int], None]) -> dict:
        """Order n's cells over the (I, J) that admits_u and admits_v admit,
        t being min(deg u + deg v, 2n) of the factors, or 2n.  Charges
        each multiset, the classes of each reached, and the splits of each
        admitted (I, J): first those the walk of the rows that miss a J
        examines, then the rest as the cells are read."""
        land_u, land_v, reached, _ = self.reach(n, t, spend)
        adm_u = set(filter(admits_u, land_u))
        adm_v = set(filter(admits_v, land_v))
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
                    least = need - nl
                    row = tally.get(I) or tally.setdefault(I, {})
                    # K = legs - I - J, the legs left to P_M, dominates
                    # rest_i: none is admitted unless rest_i is
                    live = admits_p[rest_i]
                    wl *= weight
                    for J, wr, nr, rest_j in to_g:
                        if nr < least:
                            break
                        splits += 1
                        entry = row.get(J) or row.setdefault(J, [0, {}])
                        entry[0] += 1
                        if not live:
                            continue
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


@contextmanager
def _record(alpha: Multivector):
    """The bivector's record, held under the table's lock; afterwards the
    trim applies every bound of the table: a record's share of its entries,
    the entries of one record alone, and then the table's bivectors and
    entries, least recently used out first."""
    key = (alpha.dim, tuple(sorted(
        (k, p.den, tuple(sorted(p.rows.items())))
        for k, p in alpha.components.items())))
    with _TABLE_LOCK:
        pieces = _TABLE[key] = _TABLE.pop(key, None) or _Pieces(alpha)
        try:
            yield pieces
        finally:
            if pieces.cell_size > _TABLE_ENTRIES // _TABLE_BIVECTORS:
                pieces.cells, pieces.tri, pieces.supports = {}, {}, {}
                pieces.cell_size = 0
            pieces.size = sum(len(p.rows) for p in pieces.polys.values()) + sum(
                len(a) + len(b) for a, b in pieces.multisets.values()
            ) + sum(len(a) + len(b) for a, b, *_ in pieces.landable.values()
                    ) + pieces.cell_size
            if pieces.size > _TABLE_ENTRIES:  # too big alone: drop it first
                del _TABLE[key]
            total = sum(entry.size for entry in _TABLE.values())
            while len(_TABLE) > _TABLE_BIVECTORS or total > _TABLE_ENTRIES:
                total -= _TABLE.pop(next(iter(_TABLE))).size


class _Budget:
    """spend(units) charges units of work, refusing past max_work; work is
    what has been charged."""

    __slots__ = ("work", "max_work")

    def __init__(self, max_work: int):
        self.work, self.max_work = 0, max_work

    def __call__(self, units: int) -> None:
        self.work += units
        if self.work > self.max_work:
            raise ResourceLimitError(
                f"operator enumeration exceeded max_work={self.max_work}; "
                "raise the limit or lower the order")


def _operator(alpha: Multivector, f: GradedPoly, g: GradedPoly, order: int,
              max_work: int) -> Operator:
    """The coefficients C^(n)_IJ of B_0..B_order, pruned to f and g.

    orders[n] maps (I, J) to the cell C^(n)_IJ as (den, rows, deg): the
    sum of count * d_K P_M, where M counts the insertions of each component,
    P_M is their product and K the legs left to it.  Here only the factor
    side is built: the dominance tests of f and g, once, and each order's
    degree bound t, which the bivector's record (_Pieces.order) turns into
    the order's cells.
    Each multiset of components, each orientation class of it and each split
    of its legs between f, g and P_M is one unit of work against max_work,
    whether or not it is walked: a read charges the splits its cells were
    walked with, less those the walk charged.  A class's splits are charged
    together after the class, and an order reached before charges its
    multisets and classes in one sum; the totals, and so the smallest
    budget that succeeds, are those of one charge a unit.
    """
    ring = _check_factors(alpha, (f, g), order, max_work)
    zero = (0,) * alpha.dim
    # B_0(f, g) = f g: no insertions
    orders = [{(zero, zero): _UNIT_CELL}] if f.rows and g.rows else []
    if orders and order:
        admits_f, admits_g = _Admits(f), _Admits(g)
        deg, spend = f.total_degree() + g.total_degree(), _Budget(max_work)
        with _record(alpha) as pieces:
            orders += [pieces.order(n, min(deg, 2 * n), admits_f.__getitem__,
                                    admits_g.__getitem__, spend)
                       for n in range(1, order + 1)]
    return ring, orders, f, g, order


class _Values(dict):
    """(side, counts) -> d^counts of factors[side], built once by superalg's
    _deriv and _Point: rows over its den D, or its value (re, im) over D
    q^deg at a point; (side, None) -> (rows, deg, that D).  A factor that
    is a pair (g, h) takes a pair (Q, L) of count vectors, for d_Q g * d_L
    h over the product of their D, a product capped as `*` caps it."""

    __slots__ = ("point", "factors", "ring")

    def __init__(self, point: Optional[_Point], factors: tuple,
                 ring: GradedSpace):
        self.point, self.ring = point, ring
        self.factors = dict(enumerate(factors))
        if isinstance(factors[1], tuple):  # the associator's (g, h)
            self.factors.update(((1, i), q) for i, q in enumerate(factors[1]))

    def __missing__(self, key: tuple):
        side, counts = key
        p = self.factors[side]
        if isinstance(p, tuple):
            Q, L = counts or (None, None)
            first, second = self[(side, 0), Q], self[(side, 1), L]
            if counts is None:
                got = None, None, first[2] * second[2]
            elif self.point:
                (a, b), (c, e) = first, second
                got = a * c - b * e, a * e + b * c
            else:
                _check_product(self.ring, first, second)
                got = _products(self.ring, [(1, first, second)])
        elif counts is None:
            d, deg = p.den, p.total_degree()
            got = p.rows, deg, d * self.point.q ** deg if self.point else d
        else:
            rows, deg, _ = self[side, None]
            got = _deriv(self.ring._layout, rows, counts)
            got = got if self.point is None else self.point.value(got, deg)
        self[key] = got
        return got


def _apply(op: Operator, point: Optional[_Point] = None,
           w: Optional[Scalar] = None) -> list:
    """hbar coefficients 0..order of the product of the two factors op was
    built for: polynomials, or numbers at a point.

    Order n adds w^n/n! B_n(f, g) at hbar^n, w the calibrated weight unless
    given.  The derivatives of f and g are formed once from their stored
    rows (_Values), and each cell C^(n)_IJ is read as kept, over the lcm of
    the denominators of order n: its rows symbolically, and at a point its
    one value, every cell of the order over q to the order's largest
    degree.  Each order with a term is reduced once: symbolically in one
    gcd pass, at a point to one exact scalar.  As with `*`, d_I f * d_J g
    and its product with C^(n)_IJ meet the product cap (not at a point,
    where each is a number).
    """
    ring, orders, f, g, order = op
    at = _Values(point, (f, g), ring)
    out = [Scalar() if point else GradedPoly.zero(ring)] * (order + 1)
    for n, terms in enumerate(orders):
        lcm = math.lcm(*{d for d, _, _ in terms.values()})
        top = max((deg for _, _, deg in terms.values()), default=0)
        den = lcm * point.q ** top if point else lcm
        # numbers at a point; else the (scale, d_I f * d_J g, cell) pieces
        acc: list = [0, 0] if point else []
        for (I, J), (d, rows, _) in terms.items():
            s = lcm // d
            if point is not None:
                x, y = point.value(rows, top)
                if x or y:
                    (a, b), (c, e) = at[0, I], at[1, J]
                    a, b = (a * c - b * e) * s, (a * e + b * c) * s
                    acc[0] += a * x - b * y
                    acc[1] += a * y + b * x
                continue
            du, dv = at[0, I], at[1, J]
            if du and dv:
                _check_product(ring, du, dv)
                if rows:
                    piece = _products(ring, [(1, du, dv)])
                    _check_product(ring, piece, rows)
                    acc.append((s, piece, rows))
        if not any(acc):
            continue
        wd, weight = _rows({0: _order_weight(n, w) if n else ONE})
        a, b = weight[0]
        d = wd * den * at[0, None][2] * at[1, None][2]
        if point:
            out[n] = _reduced(acc[0] * a - acc[1] * b,
                              acc[0] * b + acc[1] * a, d)
        else:
            out[n] = _canonical(ring, d, _products(
                ring, [(1, _products(ring, acc), weight)]))
    return out


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
    return dict(enumerate(_apply(_operator(alpha, f, g, order, max_work))))


def star(alpha: Multivector, f: GradedPoly, g: GradedPoly,
         basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
         max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Deformation product evaluated at a basepoint, as an hbar series."""
    point = _point(alpha, basepoint)
    return HbarSeries(order, tuple(
        _apply(_operator(alpha, f, g, order, max_work), point)))


def star_series(alpha: Multivector, u: Mapping[int, GradedPoly],
                v: Mapping[int, GradedPoly], order: int = DEFAULT_ORDER,
                max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Bilinear extension of the product to truncated hbar series: the sum
    of hbar^(k+l) star_poly(u_k, v_l, order - k - l) over the keys with
    k + l <= order.  Every key and coefficient is checked first.  Each
    pair's product has its own max_work, as star_poly of that pair does:
    with k + l <= order <= MAX_ORDER = 6, at most 28 products."""
    # each key is checked as its coefficient is reached, after the bivector
    ring = _check_factors(alpha, (p for side in (u, v) for k, p in side.items()
                                  if require_int(k, "each series key") >= 0),
                          order, max_work)
    out = [GradedPoly.zero(ring)] * (order + 1)
    for k, uk in u.items():
        for l, vl in v.items():
            if k + l <= order:
                for m, p in enumerate(_apply(_operator(
                        alpha, uk, vl, order - k - l, max_work)), k + l):
                    out[m] = out[m] + p
    return dict(enumerate(out))


def _associator(alpha: Multivector, f: GradedPoly, g: GradedPoly,
                h: GradedPoly, order: int, max_work: int,
                point: Optional[_Point] = None) -> list:
    """(f * g) * h - f * (g * h), the sum of T^(s)_PQL d_P f d_Q g d_L h
    with T^(s) at hbar^s weighed w^s/s!, as _apply applies an operator:
    g and h are one factor to it, and a tri-cell's key is (P, (Q, L)).

    One budget serves the whole associator.  It charges each factor's
    downset of count vectors, the reads of the cells its tri-cells are
    built from, as a product charges its own, and each term of every
    tri-cell it reads, whether formed now or before."""
    ring = _check_factors(alpha, (f, g), order, max_work)
    tri: list = [{}] * (order + 1)
    if not (order and f.rows and g.rows):
        _check_factors(alpha, (h,), order, max_work)
    else:
        from . import tricells  # compiled by the first associator only
        spend = _Budget(max_work)
        with _record(alpha) as pieces:
            # f's and g's count vectors are charged before h is checked,
            # as f * g was before g * h read h: an exhausted budget is
            # refused before a bad h
            adm = [tricells.downset(p, pieces.dirs, 2 * order, spend)
                   for p in (f, g)]
            _check_factors(alpha, (h,), order, max_work)
            if h.rows:
                adm.append(tricells.downset(h, pieces.dirs, 2 * order,
                                            spend))
                tri = tricells.read(pieces, order, (f, g, h), tuple(adm),
                                    spend)
    return _apply((ring, tri, f, (g, h), order), point)


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
    ring = _check_factors(alpha, (f, g), order, max_work)
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
    admits_f, admits_g = _Admits(f), _Admits(g)
    zero = (0,) * alpha.dim
    orders = []
    for n in range(order + 1 if f.rows and g.rows else 0):
        coeffs: dict = {}
        for row in product(entries, repeat=n):
            I = J = zero
            for i, j, _ in row:
                I, J = _bump(I, i, 1), _bump(J, j, 1)
            if not (admits_f[I] and admits_g[J]):
                continue
            _accumulate(coeffs, (I, J),
                        math.prod((value for _, _, value in row), start=ONE))
        # each coefficient c is a cell of degree 0
        orders.append({ij: (*_rows({0: c}), 0) for ij, c in coeffs.items()})
    return ring, orders, f, g, order


def moyal_poly(alpha: Multivector, f: GradedPoly, g: GradedPoly,
               order: int = DEFAULT_ORDER,
               max_work: int = DEFAULT_MAX_WORK) -> Series:
    """Classical constant-bivector exponential product, order by order.

    Independent of the contraction engine: the order-n coefficient is
    (i/2)^n/n! sum over index rows A^(i1 j1)..A^(in jn) of the corresponding
    iterated derivatives of f and g.  Requires constant coefficients.
    """
    return dict(enumerate(
        _apply(_moyal_operator(alpha, f, g, order, max_work))))


def moyal(alpha: Multivector, f: GradedPoly, g: GradedPoly,
          basepoint: Sequence[ScalarLike], order: int = DEFAULT_ORDER,
          max_work: int = DEFAULT_MAX_WORK) -> HbarSeries:
    """Constant-bivector exponential product evaluated at a basepoint."""
    point = _point(alpha, basepoint)
    return HbarSeries(order, tuple(_apply(
        _moyal_operator(alpha, f, g, order, max_work), point)))
