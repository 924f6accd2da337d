"""The associator as one kept tri-differential operator.

Buring and Kiselev write the associativity defect of a star product as one
operator on three arguments,

    (f * g) * h - f * (g * h) = sum over s, (P, Q, L) of
        hbar^s w^s/s! T^(s)_PQL d_P f d_Q g d_L h,

and T depends on the bivector alone, as a cell C^(n)_IJ of the product
does.  By Leibniz, d_I'(C^(n)_IJ d_I f d_J g) sums the multinomial (I'; A,
B, C) d_A C^(n)_IJ d_(I+B) f d_(J+C) g over I' = A + B + C, so order m of
the product applied to order n's result puts binom(s, n) (I'; A, B, C)
C^(m)_I'L d_A C^(n)_IJ on T^(n+m)_(I+B, J+C, L), for (f * g) * h, and the
same, negated, with C^(m)_PJ' on T^(n+m)_(P, I+B, J+C), for f * (g * h).
The inner sums for one I' are summed first, so a term of a tri-cell is
the product of one outer cell with one such sum, in Gaussian integers.

The tri-cells live in the bivector's record (wick._Pieces) beside the
cells, under the same rules: their content is the bivector's, the
factors' supports only choose which are built and read, they count in the
record's entries, and they go with the cells when the record passes its
share of the table.  A factor admits the count vectors that one of its
monomials dominates (its downset).  The build for three factors reads the
cells their tri-cells need, as the four products of the composition read
theirs (f * g's in the same walks as f * (g * h)'s outer ones), through
the record's order, which charges those reads as it charges a product's,
and forms and charges every term of every tri-cell they admit, keeping
the nonzero ones not kept yet.  The record keeps the build's whole charge
under the factors' supports and the order, and a later associator on
factors of the same supports charges it in one sum instead of building
again, so warm and cold calls charge the same.  This module is imported
by the first associator, so start-up compiles none of it.
"""

from __future__ import annotations

import math
import operator
from itertools import product
from typing import Callable

from .superalg import GradedPoly, _deriv
from .wick import _UNIT_CELL, _Budget


# supports a record keeps, least recently used out: forgetting one costs
# its next associator a build that finds its tri-cells kept, and no charge
SUPPORTS = 64


def downset(p: GradedPoly, dirs: set, top: int, spend: Callable
            ) -> frozenset:
    """The count vectors D, |D| <= top and zero off dirs, that a monomial
    of p dominates, so that d_D p is nonzero.  Each monomial is charged the
    count vectors of its ranges before they are listed."""
    out: set = set()
    for key in p.rows:
        ranges = [range(min(e, top) + 1 if k in dirs else 1)
                  for k, e in enumerate(p.space._layout.unpack(key))]
        spend(math.prod(map(len, ranges)))
        out.update(D for D in product(*ranges) if sum(D) <= top)
    return frozenset(out)


def read(pieces, top: int, factors: tuple, adm: tuple, spend: _Budget
         ) -> list:
    """The tri-cells T^(s), s = 0..top, that factors = (f, g, h) admit,
    adm being their downsets: for each s, (P, (Q, L)) -> each nonzero
    tri-cell as (den, rows, deg).  Charges what the build charges, in one
    sum when factors of the same supports were built to top before."""
    key = (tuple(tuple(sorted(p.rows)) for p in factors), top)
    charge = pieces.supports.get(key)
    if charge is None:
        before = spend.work
        build(pieces, top, adm, spend)
        charge = spend.work - before
        pieces.cell_size += sum(map(len, key[0]))
        if len(pieces.supports) >= SUPPORTS:  # the least recently used goes
            old = next(iter(pieces.supports))
            pieces.cell_size -= sum(map(len, old[0]))
            del pieces.supports[old]
    else:
        spend(charge)
        del pieces.supports[key]  # to the end, as the most recently used
    pieces.supports[key] = charge
    out, (_, gs, hs) = [{}], adm
    for s in range(1, top + 1):
        rows, cells = pieces.tri.get(s, {}), {}
        for P in adm[0]:
            by_q = rows.get(P)
            for Q, kept in by_q.items() if by_q else ():
                if Q in gs:
                    for L, cell in kept.items():
                        if L in hs:
                            cells[P, (Q, L)] = cell
        out.append(cells)
    return out


def build(pieces, top: int, adm: tuple, spend: _Budget) -> None:
    """Keeps every nonzero tri-cell over the downsets adm = (f's, g's,
    h's) to hbar^top not kept yet, charging its terms as they are formed.

    The cells are read through the record's order, which charges them as a
    product does: inner ones over two factors' downsets, then outer ones
    over the third factor's and every I' (J') that the inner ones reach.
    f * g's inner cells of an order are read in one walk with f * (g * h)'s
    outer ones of that order, over f's downset against g's and the J'.
    E^(n)[I'][X, Y], the coefficient of d_X f d_Y g in d_I' B_n(f, g) (of
    d_X g d_Y h in d_J' B_n(g, h)), sums (I'; A, B, C) d_A C^(n)_IJ over
    its splits, and each product of one with an outer cell is one term.
    A tri-cell's terms all come from cells over the factors' downsets, so
    one build finds all of them, and |P| + |Q| + |L| <= 2s holds by itself.
    The outer order m = 0 and the inner n = 0 on an underived f (for
    f * (g * h), an underived h) are left out: B_n(f, g) h and f B_n(g, h)
    cancel the terms of B_n(f g, h) and B_n(f, g h) that leave h and f
    underived."""
    zero, layout = (0,) * pieces.dim, pieces.ring._layout
    # (sign, inner factors, outer factor) of each side, as places in adm;
    # a factor's count vectors are numbered, (X, Y) is x * |ys| + y, and
    # T^(s)_PQL is ((s |fs| + p) |gs| + q) |hs| + l.  f * (g * h) goes
    # first: its outer cells of order m < top are read with those of f * g
    sides, lists = ((-1, 1, 2, 0), (1, 0, 1, 2)), [list(D) for D in adm]
    sizes = [len(vectors) for vectors in lists]
    places = [{D: i for i, D in enumerate(vectors)} for vectors in lists]
    fg: list = [None] * top  # f * g's inner cells by order
    passes, douts, above = [], [], {}
    for sign, x, y, z in sides:
        # the inner cells of orders n < top: an outer order m >= 1 follows
        cells_by_n = [{(zero, zero): _UNIT_CELL}] + (
            fg[1:] if sign > 0 else [
                pieces.order(n, 2 * n, adm[x].__contains__,
                             adm[y].__contains__, spend)
                for n in range(1, top)])
        din = math.lcm(*[dn for cells in cells_by_n
                         for dn, _, _ in cells.values()])
        E: list = [{} for _ in range(top)]  # numerator rows over din
        for n, cells in enumerate(cells_by_n):
            room = top - n  # an outer order m <= top - n lands |I'| <= m
            for (I, J), (dn, rows, deg) in cells.items():
                for at, D in ((x, I), (y, J)):
                    if (at, D) not in above:
                        above[at, D] = [
                            (i, B, sum(B)) for i, X in enumerate(lists[at])
                            if all(map(operator.ge, X, D))
                            for B in [tuple(map(operator.sub, X, D))]]
                # each split (X - I, Y - J) = (B, C) not cancelled, with
                # the |A| <= room - |B| - |C| left to d_A C^(n)_IJ
                splits = [(i * sizes[y] + j, B, C, room - nb - nc)
                          for (i, B, nb), (j, C, nc) in product(
                              above[x, I], above[y, J])
                          if nb + nc <= room
                          and (n or (nb if sign > 0 else nc))]
                if not splits:
                    continue
                # d_A C^(n)_IJ for each A that one split leaves room for,
                # by |A|; a cell of degree 0 takes none but A = 0
                most = min(deg, max(split[3] for split in splits))
                derivs = [(0, zero, rows)] if not most else [
                    (na, A, _deriv(layout, rows, A))
                    for na, A in sorted((sum(A), A) for A in {
                        A for key in rows for A in product(*map(
                            range, map((1).__add__, layout.unpack(key))))
                        if sum(A) <= most})]
                w = sign * din // dn
                for xy, B, C, left in splits:
                    S = tuple(map(operator.add, B, C))
                    wb = w * math.prod(map(math.comb, S, B))
                    for na, A, d in derivs:
                        if na > left:
                            break
                        Ip, k = S, wb
                        if na:
                            Ip = tuple(map(operator.add, A, S))
                            k *= math.prod(map(math.comb, Ip, A))
                        by_xy = E[n].get(Ip) or E[n].setdefault(Ip, {})
                        e = by_xy.get(xy) or by_xy.setdefault(xy, {})
                        for key, (a, b) in d.items():
                            u, v = e.get(key, (0, 0))
                            e[key] = u + a * k, v + b * k
        # C^(m)_I'L by I', or C^(m)_PJ' by J', over the I' (J') reached,
        # with L's (P's) place in the tri-cell's number
        outer: list = [None]
        for m in range(1, top + 1):
            need = set().union(*E[:top - m + 1])
            outer.append({})
            if sign > 0:
                cells = pieces.order(m, 2 * m, need.__contains__,
                                     adm[z].__contains__, spend)
            else:  # and C^(m)_IJ over f's and g's, for f * g
                gs = adm[1] if m < top else frozenset()
                cells = pieces.order(m, 2 * m, adm[z].__contains__,
                                     (need | gs).__contains__, spend)
                if m < top:
                    fg[m] = {IJ: cell for IJ, cell in cells.items()
                             if IJ[1] in gs}
            for (I, J), cell in cells.items():
                I, J = (I, J) if sign > 0 else (J, I)
                if I not in need:
                    continue  # a cell of f * g alone
                place = places[z][J]
                outer[m].setdefault(I, []).append(
                    (place if sign > 0 else place * sizes[1] * sizes[2],
                     cell))
                douts.append(cell[0])
        passes.append((sizes[2] if sign > 0 else 1, din, E, outer))
    dout, each = math.lcm(*douts), math.prod(sizes)
    din = math.lcm(*[d for _, d, _, _ in passes])
    new: dict = {}  # tri-cell number -> rows over din * dout
    for step, d, E, outer in passes:
        for n, by_ip in enumerate(E):
            for m in range(1, top - n + 1):
                s, row, formed = n + m, outer[m], 0
                c = math.comb(s, n) * dout * (din // d)
                for Ip, by_xy in by_ip.items():
                    for place, (do, rows, _) in row.get(Ip, ()):
                        k, base = c // do, s * each + place
                        scaled = [(ka, a * k, b * k)
                                  for ka, (a, b) in rows.items()]
                        formed += len(by_xy)
                        for xy, e in by_xy.items():
                            acc = new.get(base + xy * step)
                            if acc is None:
                                acc = new[base + xy * step] = {}
                            for ka, a, b in scaled:  # no odd, no hbar
                                for kb, (u, v) in e.items():
                                    re, im = acc.get(ka + kb, (0, 0))
                                    acc[ka + kb] = (re + a * u - b * v,
                                                    im + a * v + b * u)
                spend(formed)
    # kept over din * dout, not reduced: the products reduce each power
    den, field, (fs, gs, hs) = din * dout, layout.top, lists
    for number, acc in new.items():
        rows = {key: ab for key, ab in acc.items() if ab != (0, 0)}
        if rows:
            spq, L = divmod(number, sizes[2])
            sp, Q = divmod(spq, sizes[1])
            s, P = divmod(sp, sizes[0])
            kept = pieces.tri.setdefault(s, {}).setdefault(
                fs[P], {}).setdefault(gs[Q], {})
            if hs[L] not in kept:  # the top field of a key holds its degree
                kept[hs[L]] = den, rows, max(rows) >> field
                pieces.cell_size += 1 + len(rows)
