"""Exact graded-commutative polynomial algebra.

A GradedSpace declares named generators, each even (commuting) or odd
(anticommuting).  A GradedPoly is a polynomial over such a space with
Gaussian-rational coefficients, keyed by monomials packed into one int
each.  Odd generators square to zero, so their exponents are 0 or 1;
reordering signs are normalized into the coefficients (canonical form:
generators in declaration order).

The formal deformation parameter is modeled as a distinguished even
generator named "hbar".  Spaces that contain it carry a truncation order:
products drop every monomial whose hbar exponent exceeds it.

The standard working space is super_space(d): commuting xi1..xid, odd
eta1..etad, plus hbar.  Everything else (Batalin-Vilkovisky spaces, plain
coefficient rings) is the same machinery with different declarations.

Each monomial is one int key (monomials._Layout), so a product of
monomials is a sum of keys.  Degrees past MAX_DEGREE are refused, in the
constructor and before any product, so no exponent field carries over.

Coefficients are stored as Gaussian-integer numerators over one positive
denominator per polynomial: p.rows maps each packed monomial key to (a, b),
and the coefficient there is (a + b*i)/p.den.  The form is canonical: no
row is (0, 0) and gcd(den, every a, every b) = 1, so equal polynomials have
equal den and rows.  Every operation reads and writes the rows and reduces
its result once, with one gcd pass (_canonical).  Products, powers of more
than one term, the bracket contractions built on them and wick's
contraction go through one multiply-accumulate kernel, _products, which
sums scale * a * b over pairs of numerator rows; _times caps one product of
rows for `*` and for expressions, and _mac caps polynomial pairs and puts
them over one denominator.  Every sum, wick's cells count * d_K P_M too,
is one scaled sum over the lcm of the denominators, reduced once (_sum).
The associator's tri-cell products are tricells' own loop: it scales an
outer cell once for all its Leibniz sums, where _products regroups both
operands of every pair.  Scalars and exponent tuples appear only at the
edges: values and terms passed in, evaluate's and constant_value's values,
and p.terms, a read-only mapping by exponent tuples, built on each read.

Each polynomial keeps the first derivatives taken of it (deriv_left and
deriv_right) in a table keyed by the generator and the fields of the odd
generators it is moved past, so both sides of an even generator are one
entry; one scan of the rows (_strike) fills an entry on first use.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product
from types import MappingProxyType
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import InputError, InternalError, ResourceLimitError, require_int
from .monomials import FIELD_BITS, MAX_DEGREE, _FIELD, _Layout, _layout_for
from .scalars import (Scalar, ScalarLike, _gaussian_power, _ints, _parts,
                      _reduced)

HBAR = "hbar"
DEFAULT_HBAR_ORDER = 3
# caps on a power's estimated result, checked before multiplying: its total
# degree (the exponent times the base's degree, at least 1), its coefficient
# size (the exponent times the bits of the base's largest part) and its
# terms; a product's estimated terms meet the same term cap
MAX_POWER_DEGREE = 1000
MAX_POWER_BITS = 100_000
MAX_POWER_TERMS = 5000
# coordinates a user can declare: a field's dimension, a BV space's fields
MAX_COORDINATES = 16


@dataclass(frozen=True)
class GradedSpace:
    """Named generators with parities (0 = even, 1 = odd) in a fixed order."""

    names: tuple[str, ...]
    parities: tuple[int, ...]
    hbar_order: Optional[int] = None

    def __post_init__(self):
        if len(self.names) != len(self.parities):
            raise InputError("generator names and parities differ in length")
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate generator names")
        if any(p not in (0, 1) for p in self.parities):
            raise InputError("parities must be 0 or 1")
        if HBAR in self.names:
            if self.parities[self.names.index(HBAR)] != 0:
                raise InputError("hbar must be an even generator")
            require_int(self.hbar_order, "the hbar order of a space")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: k for k, n in enumerate(self.names)}

    @cached_property
    def odd_indices(self) -> tuple[int, ...]:
        return tuple(k for k, p in enumerate(self.parities) if p)

    @cached_property
    def hbar_index(self) -> Optional[int]:
        return self._index.get(HBAR)

    @cached_property
    def _layout(self) -> _Layout:
        return _layout_for(len(self.names), self.odd_indices,
                           self.hbar_index, self.hbar_order)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None


# typed, so that a bool never reads the cached space of 0 or 1
@lru_cache(maxsize=None, typed=True)
def super_space(d: int, hbar_order: int = DEFAULT_HBAR_ORDER) -> GradedSpace:
    """The (xi, eta) superspace in dimension d with truncated hbar."""
    require_int(d, "dimension", 1)
    names = tuple(f"xi{i}" for i in range(1, d + 1)) \
        + tuple(f"eta{i}" for i in range(1, d + 1)) + (HBAR,)
    parities = (0,) * d + (1,) * d + (0,)
    return GradedSpace(names, parities, hbar_order)


@lru_cache(maxsize=None, typed=True)
def coeff_space(d: int) -> GradedSpace:
    """Plain commuting polynomials in x1..xd (no hbar)."""
    require_int(d, "dimension", 1)
    return GradedSpace(tuple(f"x{i}" for i in range(1, d + 1)), (0,) * d)


def _accumulate(out: dict, key, c) -> None:
    """Add a nonzero Scalar or int c to out[key], dropping the key on cancel."""
    acc = out.get(key)
    if acc is None:
        out[key] = c
    else:
        s = acc + c
        if s:
            out[key] = s
        else:
            del out[key]


def _require_power_degree(degree: int) -> None:
    if degree > MAX_POWER_DEGREE:
        raise ResourceLimitError(f"a power of degree {degree} exceeds the "
                                 f"cap of {MAX_POWER_DEGREE}")


def _require_same_space(a: "GradedPoly", b: "GradedPoly") -> None:
    if a.space != b.space:
        raise InputError("operands live in different graded spaces "
                         "(generator set or hbar truncation mismatch)")


# products ----------------------------------------------------------------------

def _check_product(space: GradedSpace, a: dict, b: dict) -> None:
    """ResourceLimitError if a * b may have a degree past MAX_DEGREE or more
    than MAX_POWER_TERMS terms."""
    top = space._layout.top
    # the top field of a key holds its degree, so the largest key has the
    # largest degree
    degree = (max(a) >> top) + (max(b) >> top) if a and b else 0
    if degree > MAX_DEGREE:
        raise ResourceLimitError(f"a product of degree {degree} exceeds the "
                                 f"cap of {MAX_DEGREE}")
    # at most |a| |b| terms, and at most the C(deg a + deg b + v, v)
    # monomials of the product's degree or less in the v generators used
    size = len(a) * len(b)
    if size > MAX_POWER_TERMS:
        v = len(space._layout.present(chain(a, b)))
        size = min(size, math.comb(degree + v, v))
        if size > MAX_POWER_TERMS:
            raise ResourceLimitError(f"a product with up to {size} terms "
                                     f"exceeds the cap of "
                                     f"{MAX_POWER_TERMS} terms")


def _crossings(ma: int, mb: int) -> int:
    """Parity of the pairs (bit i of ma, bit j of mb) with i above j.  With
    ma, mb the odd bits of the keys of b and a, in that order: the swaps of
    odd generators that bring the monomial a b into canonical order."""
    n = 0
    while mb:
        low = mb & -mb
        n += (ma & -(low << 1)).bit_count()
        mb ^= low
    return n & 1


def _rows(terms: Mapping) -> tuple[int, dict]:
    """(D, rows): D the lcm of the denominators of the scalars in terms, and
    rows maps each key to (a, b), with (a + b*i)/D its scalar.  The scalars
    are in lowest terms, so over their lcm gcd(D, every a, every b) is 1."""
    # Scalar's slots are read directly: this is the one place that turns
    # scalars into integer numerators
    d = math.lcm(*[c._d for c in terms.values()])
    if d == 1:
        return d, {key: (c._a, c._b) for key, c in terms.items()}
    return d, {key: (c._a * (d // c._d), c._b * (d // c._d))
               for key, c in terms.items()}


def _canonical(space: GradedSpace, den: int, rows: dict) -> "GradedPoly":
    """The polynomial with coefficient rows[key]/den, den > 0 and no row
    (0, 0), after one gcd pass divides gcd(den, every part) out."""
    if den != 1:
        g = den  # no rows: the zero polynomial, over 1
        if rows:
            # the first and last rows first: in a power they hold the pure
            # powers of the base's end terms, so g is usually 1 by then and
            # the whole pass, whose running gcd can shrink one row at a
            # time, is skipped
            g = math.gcd(den, *rows[next(iter(rows))],
                         *rows[next(reversed(rows))])
            if g != 1:
                g = math.gcd(g, *chain.from_iterable(rows.values()))
        if g != 1:
            den //= g
            rows = {key: (a // g, b // g) for key, (a, b) in rows.items()}
    return GradedPoly._raw(space, den, rows)


def _groups(rows: dict, mask: int) -> tuple[bool, dict]:
    """(real, groups): real says every imaginary part is zero, and groups
    maps key & mask (odd generators and hbar exponent) to the (key, a, b)
    of those rows."""
    real, groups = True, {}
    for key, (a, b) in rows.items():
        real = real and not b
        groups.setdefault(key & mask, []).append((key, a, b))
    return real, groups


def _products(space: GradedSpace,
              pairs: Sequence[tuple[int, dict, dict]]) -> dict:
    """The rows of the sum of scale * a * b over (scale, a, b): a and b
    numerator rows in one space, scale a nonzero int.  Nothing is capped
    and nothing is reduced; cancelled rows are dropped.

    The one multiply-accumulate kernel.  A term pair costs one key sum and
    one integer product (four with imaginary parts).  Terms are grouped by
    their odd generators and hbar exponent: a group pair whose odd
    generators collide, or past the space's hbar order, is skipped whole,
    and the reordering sign is one per group pair.  A lone pair with a
    one-row operand merges no keys, so its rows are multiplied without
    grouping.
    """
    layout = space._layout
    odd, hbar, limit = layout.odd, layout.hbar, layout.limit
    out: dict = {}
    if len(pairs) == 1 and min(len(pairs[0][1]), len(pairs[0][2])) == 1:
        s, a, b = pairs[0]
        for (ka, (x, y)), (kb, (u, v)) in product(a.items(), b.items()):
            key = ka + kb
            if ka & kb & odd or key & hbar > limit:
                continue
            f = -s if odd and _crossings(kb & odd, ka & odd) else s
            if f != 1:
                x, y = x * f, y * f
            out[key] = (x * u - y * v, x * v + y * u)
        return out
    re: dict = {}
    im: dict = {}
    re_get, im_get = re.get, im.get
    for s, a, b in pairs:
        real_a, groups_a = _groups(a, odd | hbar)
        real_b, groups_b = _groups(b, odd | hbar)
        for ga, terms_a in groups_a.items():
            for gb, terms_b in groups_b.items():
                if ga & gb & odd or (ga + gb) & hbar > limit:
                    continue
                f = -s if odd and _crossings(gb & odd, ga & odd) else s
                scaled = terms_a if f == 1 else \
                    [(k, x * f, y * f) for k, x, y in terms_a]
                if real_a and real_b:
                    for ka, x, _ in scaled:
                        for kb, u, _ in terms_b:
                            key = ka + kb
                            re[key] = re_get(key, 0) + x * u
                else:
                    for ka, x, y in scaled:
                        for kb, u, v in terms_b:
                            key = ka + kb
                            re[key] = re_get(key, 0) + (x * u - y * v)
                            im[key] = im_get(key, 0) + (x * v + y * u)
    for key, x in re.items():
        y = im_get(key, 0)
        if x or y:
            out[key] = (x, y)
    return out


def _mac(space: GradedSpace, pairs: Iterable[tuple[int, "GradedPoly",
                                                   "GradedPoly"]]
         ) -> "GradedPoly":
    """sum of sign * a * b over (sign, a, b), sign = 1 or -1, in one space:
    each product meets the term cap, as `*` does, and _products sums them
    over the lcm of their denominators, reduced once."""
    pairs = [(s, a.rows, b.rows, a.den * b.den) for s, a, b in pairs
             if a.rows and b.rows]
    for _, a, b, _ in pairs:
        _check_product(space, a, b)
    lcm = math.lcm(*[d for *_, d in pairs])
    return _canonical(space, lcm, _products(
        space, [(s * (lcm // d), a, b) for s, a, b, d in pairs]))


def _times(space: GradedSpace, den: int, rows: dict, d: int, other: dict
           ) -> tuple[int, dict]:
    """(den * d, the rows of rows * other): the product of two numerator
    rows over den and d, capped and not reduced; zero if either is."""
    if not (rows and other):
        return 1, {}
    _check_product(space, rows, other)
    return den * d, _products(space, [(1, rows, other)])


def _sum(space: GradedSpace, terms: Iterable[tuple[int, int, dict]]
         ) -> "GradedPoly":
    """The sum of scale * rows/den over the terms (scale, den, rows), scale
    a nonzero int: one dict over the lcm of the denominators, without
    cancelled rows, reduced once.  No term's rows are changed.  If no key
    is in two terms, terms in lowest terms with scales +-1 give a sum in
    lowest terms, not reduced: a prime power of the lcm is the full power
    in some term's den, lcm // den misses the prime, and the term has a
    part the prime does not divide.  Other callers reduce the result:
    expr's to_poly and wick's _Pieces.contract."""
    # no rows at all: the zero polynomial, over 1
    terms = [term for term in terms if term[2]] or [(1, 1, {})]
    lcm = math.lcm(*[d for _, d, _ in terms])
    (s, d, rows), *rest = terms
    g = s * (lcm // d)
    out = dict(rows) if g == 1 else \
        {key: (a * g, b * g) for key, (a, b) in rows.items()}
    get = out.get
    merged = False
    for s, d, rows in rest:
        g = s * (lcm // d)
        for key, (a, b) in rows.items():
            acc = get(key)
            if acc is None:
                out[key] = (a * g, b * g)
            else:
                merged = True
                x, y = acc[0] + a * g, acc[1] + b * g
                if x or y:
                    out[key] = (x, y)
                else:
                    del out[key]
    return (_canonical if merged else GradedPoly._raw)(space, lcm, out)


class GradedPoly:
    """Immutable-by-convention polynomial over a GradedSpace.

    The coefficient at a monomial is (a + b*i)/den with (a, b) = rows[key],
    key the monomial packed by space._layout: one positive denominator,
    Gaussian-integer numerator rows, no (0, 0) row and gcd(den, every a,
    every b) = 1.  terms is built on each read: the same coefficients as
    Scalars in a read-only mapping keyed by exponent tuples; the
    constructor takes such a mapping.
    """

    __slots__ = ("space", "den", "rows", "_derivatives")

    def __init__(self, space: GradedSpace, terms: Optional[Mapping[tuple, ScalarLike]] = None):
        normalized: dict[int, Scalar] = {}
        if terms:
            n = len(space)
            odd = space.odd_indices
            hidx = space.hbar_index
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) != n:
                    raise InputError("exponent tuple has the wrong length")
                for e in key:
                    require_int(e, "each exponent")
                if sum(key) > MAX_DEGREE:
                    raise ResourceLimitError(f"a monomial of degree "
                                             f"{sum(key)} exceeds the cap of "
                                             f"{MAX_DEGREE}")
                if any(key[i] > 1 for i in odd):
                    raise InputError("odd generators square to zero")
                if hidx is not None and key[hidx] > space.hbar_order:
                    continue
                c = Scalar.of(coeff)
                if c:
                    _accumulate(normalized, space._layout.pack(key), c)
        den, rows = _rows(normalized)
        _set_space(self, space)
        _set_den(self, den)
        _set_rows(self, rows)
        _set_derivatives(self, {})

    def __setattr__(self, *_):
        raise AttributeError("GradedPoly is immutable")

    @property
    def terms(self) -> Mapping[tuple[int, ...], Scalar]:
        """The coefficients as a read-only mapping from exponent tuples to
        Scalars, built on each read."""
        unpack, den = self.space._layout.unpack, self.den
        return MappingProxyType({unpack(key): _reduced(a, b, den)
                                 for key, (a, b) in self.rows.items()})

    # construction helpers

    @classmethod
    def zero(cls, space: GradedSpace) -> "GradedPoly":
        return cls._raw(space, 1, {})

    @classmethod
    def constant(cls, space: GradedSpace, value: ScalarLike) -> "GradedPoly":
        # a Scalar's own parts are already in lowest terms
        a, b, d = _ints(Scalar.of(value))
        return cls._raw(space, d, {0: (a, b)} if a or b else {})

    @classmethod
    def one(cls, space: GradedSpace) -> "GradedPoly":
        return cls.constant(space, 1)

    @classmethod
    def generator(cls, space: GradedSpace, name: str) -> "GradedPoly":
        k = space.index(name)
        if k == space.hbar_index and space.hbar_order < 1:
            return cls.zero(space)  # truncated away
        return cls._raw(space, 1, {space._layout.units[k]: (1, 0)})

    # predicates

    def is_zero(self) -> bool:
        return not self.rows

    def is_constant(self) -> bool:
        return not any(self.rows)  # the constant monomial's key is 0

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        row = self.rows.get(0)
        return _reduced(*row, self.den) if row else Scalar()

    def parity(self) -> Optional[int]:
        """0 or 1 when parity-homogeneous (zero counts as both; returns 0), else None."""
        odd = self.space._layout.odd
        seen = {(k & odd).bit_count() & 1 for k in self.rows}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def total_degree(self) -> int:
        return max(self.rows, default=0) >> self.space._layout.top

    # arithmetic

    def __add__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        _require_same_space(self, other)
        return _sum(self.space, [(1, self.den, self.rows),
                                 (1, other.den, other.rows)])

    __radd__ = __add__

    def __sub__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        _require_same_space(self, other)
        return _sum(self.space, [(1, self.den, self.rows),
                                 (-1, other.den, other.rows)])

    def __rsub__(self, other) -> "GradedPoly":
        return self._coerce(other) - self

    def __neg__(self) -> "GradedPoly":
        return self._raw(self.space, self.den,
                         {k: (-a, -b) for k, (a, b) in self.rows.items()})

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            u, v, f = _ints(other)
            if not (u or v):
                return GradedPoly.zero(self.space)
            return _canonical(self.space, self.den * f, {
                k: (a * u - b * v, a * v + b * u)
                for k, (a, b) in self.rows.items()})
        other = self._coerce(other)
        _require_same_space(self, other)
        return _canonical(self.space, *_times(self.space, self.den, self.rows,
                                              other.den, other.rows))

    # scalars are even, so they commute with every polynomial
    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedPoly":
        require_int(n, "a polynomial power's exponent")
        # odd elements square to zero, before a cap is read
        odd = self.space._layout.odd
        if n > 1 and self.rows and all((key & odd).bit_count() & 1
                                       for key in self.rows):
            return GradedPoly.zero(self.space)
        degree = self.total_degree()
        _require_power_degree(n * max(degree, 1))
        # the bits of the base's largest part in lowest terms, not of its
        # numerators over the shared denominator, which may be larger
        bits = n * max((part.bit_length() for row in self.rows.values()
                        for part in _parts(*row, self.den)), default=0)
        if bits > MAX_POWER_BITS:
            raise ResourceLimitError(f"a power with coefficients of about "
                                     f"{bits} bits exceeds the cap of "
                                     f"{MAX_POWER_BITS}")
        # a t-term base has at most C(n+t-1, t-1) terms in its n-th power,
        # which is 1 for t = 1, and a base in v generators at most the
        # C(degree+v, v) monomials of the power's degree or less
        if len(self.rows) > 1:
            t, v = len(self.rows), len(self.space._layout.present(self.rows))
            size = min(math.comb(n + t - 1, t - 1),
                       math.comb(n * degree + v, v))
            if size > MAX_POWER_TERMS:
                raise ResourceLimitError(f"a power with up to {size} terms "
                                         f"exceeds the cap of "
                                         f"{MAX_POWER_TERMS} terms")
        if len(self.rows) == 1:
            # one term: zero past the first power if an odd generator meets
            # itself or hbar passes the order, else the monomial's key
            # times n and the coefficient's parts to the n
            ((key, (a, b)),) = self.rows.items()
            layout = self.space._layout
            if n > 1 and (key & layout.odd
                          or key * n & layout.hbar > layout.limit):
                return GradedPoly.zero(self.space)
            return _canonical(self.space, self.den ** n,
                              {key * n: _gaussian_power(a, b, n)})
        # unchecked steps: one may pass the product estimate, but the power's
        # own estimate already bounds every step's result; as the bits
        # estimate assumes, each step's coefficients are reduced
        out = GradedPoly.one(self.space)
        for _ in range(n):
            out = _canonical(self.space, out.den * self.den,
                             _products(self.space, [(1, out.rows, self.rows)]))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            if isinstance(other, (Scalar, int, Fraction)):
                return self == GradedPoly.constant(self.space, other)
            return NotImplemented
        # the form is canonical: equal polynomials have equal den and rows
        return (self.space == other.space and self.den == other.den
                and self.rows == other.rows)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        from .expr import poly_to_expr
        return f"<GradedPoly {poly_to_expr(self)}>"

    @staticmethod
    def _raw(space: GradedSpace, den: int, rows: dict) -> "GradedPoly":
        """The polynomial of rows over den, already in canonical form."""
        p = _blank(GradedPoly)
        _set_space(p, space)
        _set_den(p, den)
        _set_rows(p, rows)
        _set_derivatives(p, {})
        return p

    def _coerce(self, other) -> "GradedPoly":
        if isinstance(other, GradedPoly):
            return other
        if isinstance(other, (Scalar, int, Fraction)):
            return GradedPoly.constant(self.space, other)
        raise TypeError(f"cannot combine GradedPoly with {type(other).__name__}")

    # derivatives

    def deriv_left(self, name: str) -> "GradedPoly":
        """Left derivative: move the generator to the front, then strike it."""
        return self._derivative(name, operator.lt)

    def deriv_right(self, name: str) -> "GradedPoly":
        """Right derivative: move the generator to the back, then strike it."""
        return self._derivative(name, operator.gt)

    def _derivative(self, name: str, crosses: Callable[[int, int], bool]
                    ) -> "GradedPoly":
        """The derivative in generator k = name, an odd k first moved past
        the odd generators i with crosses(i, k), a sign each: read from the
        table of derivatives, which _strike fills on first use (threads
        that race to fill an entry store equal polynomials)."""
        space = self.space
        k = space.index(name)
        crossed = sum(1 << space._layout.shifts[i] for i in space.odd_indices
                      if crosses(i, k)) if space.parities[k] else 0
        got = self._derivatives.get((k, crossed))
        if got is None:
            got = self._derivatives[k, crossed] = self._strike(k, crossed)
        return got

    def _strike(self, k: int, crossed: int) -> "GradedPoly":
        """One scan of the rows: the derivative in generator k, a sign for
        each row with an odd number of bits in crossed."""
        layout = self.space._layout
        shift, unit = layout.shifts[k], layout.units[k]
        out: dict[int, tuple[int, int]] = {}
        for key, (a, b) in self.rows.items():
            if e := key >> shift & _FIELD:  # an odd exponent is 1
                if e > 1:
                    a, b = a * e, b * e
                if (key & crossed).bit_count() & 1:
                    a, b = -a, -b
                out[key - unit] = a, b
        return _canonical(self.space, self.den, out)

    # substitution and evaluation

    def substitute_even(self, images: Mapping[str, Union["GradedPoly", ScalarLike]]) -> "GradedPoly":
        """Replace even generators by polynomials of the same space."""
        space = self.space
        full = {name: GradedPoly.generator(space, name) for name in space.names}
        for name, img in images.items():
            if space.parities[space.index(name)]:
                raise InputError(f"substitute_even cannot replace odd generator {name!r}")
            if not isinstance(img, GradedPoly):
                img = GradedPoly.constant(space, img)
            full[name] = img
        return self.map_into(space, full)

    def map_into(self, target: GradedSpace,
                 images: Mapping[str, "GradedPoly"]) -> "GradedPoly":
        """Ring map into another space; every generator present must have an image.

        Images are multiplied in the source monomial's canonical order, so odd
        reordering signs come out right for any parity-respecting assignment.
        """
        space = self.space
        img: dict[int, GradedPoly] = {}
        for name, p in images.items():
            idx = space.index(name)
            if p.space != target:
                raise InputError(f"image of {name!r} lives in the wrong space")
            par = p.parity()
            if par is None or (par != space.parities[idx] and not p.is_zero()):
                raise InputError(f"image of {name!r} does not respect parity")
            img[idx] = p
        unpack = space._layout.unpack
        one = GradedPoly.one(target)
        pieces = []  # (1, coefficient, product of images) per source term
        powers: dict[tuple[int, int], GradedPoly] = {}
        for key, row in self.rows.items():
            piece = None
            for idx, e in enumerate(unpack(key)):
                if not e:
                    continue
                if idx not in img:
                    raise InputError(f"no image given for generator "
                                     f"{space.names[idx]!r}")
                got = powers.get((idx, e))
                if got is None:
                    got = img[idx] ** e
                    powers[(idx, e)] = got
                piece = got if piece is None else piece * got
            pieces.append((1, _canonical(target, self.den, {0: row}),
                           one if piece is None else piece))
        return _mac(target, pieces)

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Scalar:
        """Full evaluation; every generator appearing in a term must be assigned."""
        space = self.space
        values: list[Optional[Scalar]] = [None] * len(space)
        for name, v in point.items():
            idx = space.index(name)
            if space.parities[idx]:
                raise InputError(f"cannot assign a number to odd generator {name!r}")
            values[idx] = Scalar.of(v)
        for idx in space._layout.present(self.rows):
            if values[idx] is None:
                raise InputError(f"no value given for generator "
                                 f"{space.names[idx]!r}")
        at, deg = _Point(values), self.total_degree()
        return _reduced(*at.value(self.rows, deg), self.den * at.q ** deg)

    # hbar views

    def hbar_coefficient(self, k: int) -> "GradedPoly":
        """The coefficient of hbar^k, returned with the hbar exponent cleared."""
        hidx = self.space.hbar_index
        if hidx is None:
            if k == 0:
                return self
            return GradedPoly.zero(self.space)
        layout = self.space._layout
        field, unit = k << layout.shifts[hidx], k * layout.units[hidx]
        return _canonical(self.space, self.den, {
            key - unit: row for key, row in self.rows.items()
            if key & layout.hbar == field})


# GradedPoly's own __setattr__ refuses every assignment, so its results are
# built through the slots' setters
_set_space, _set_den, _set_rows, _set_derivatives = (
    GradedPoly.__dict__[name].__set__ for name in GradedPoly.__slots__)
_blank = object.__new__


# spec-level operation surface ------------------------------------------------

def mul(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    """Graded-commutative product."""
    return a * b


def deriv_even(a: GradedPoly, i: int) -> GradedPoly:
    """Partial derivative in the i-th commuting superspace variable (1-based)."""
    return a.deriv_left(_indexed_name(a.space, "xi", i))


def deriv_odd_left(a: GradedPoly, i: int) -> GradedPoly:
    """Left derivative in the i-th odd variable (1-based)."""
    return a.deriv_left(_indexed_name(a.space, "eta", i))


def deriv_odd_right(a: GradedPoly, i: int) -> GradedPoly:
    """Right derivative in the i-th odd variable (1-based)."""
    return a.deriv_right(_indexed_name(a.space, "eta", i))


def _indexed_name(space: GradedSpace, prefix: str, i: int) -> str:
    """The generator prefix + i of the space ("xi2", "eta1"), or InputError."""
    name = f"{prefix}{i}"
    if name not in space._index:
        kind = "odd" if prefix == "eta" else "even"
        raise InputError(f"{kind} index {i} out of range for this space")
    return name


# even derivatives and point values ----------------------------------------------

def _deriv(layout: _Layout, rows: dict, counts: tuple[int, ...]) -> dict:
    """d^counts (counts[k] in even generator k) of numerator rows keyed in
    the layout, over their denominator; counts is packed once."""
    wanted = [(layout.shifts[k], m) for k, m in enumerate(counts) if m]
    if not wanted:
        return rows
    step = layout.pack(counts)
    out = {}
    for beta, (a, b) in rows.items():
        factor = 1  # beta!/(beta - counts)!
        for s, m in wanted:
            e = beta >> s & _FIELD
            if e < m:
                break
            factor *= math.perm(e, m)
        else:
            # distinct surviving monomials stay distinct; no factor is zero
            out[beta - step] = a * factor, b * factor
    return out


class _Point:
    """A point as Gaussian integers X_k over q, the lcm of the coordinates'
    denominators: a polynomial of degree deg or less, as rows over D, takes
    one over D q^deg there.  Each X^gamma is built once, from one below,
    in a table keyed by packed monomials."""

    __slots__ = ("q", "coords", "monomials", "layout")

    def __init__(self, values: Sequence[Optional[Scalar]]):
        self.q, self.coords = _rows({k: v for k, v in enumerate(values)
                                     if v is not None})
        self.monomials = {0: (1, 0)}
        self.layout = _layout_for(len(values))

    def value(self, rows: dict, deg: int) -> tuple[int, int]:
        re = im = 0  # the numerator over D q^deg
        top = self.layout.top
        for gamma, (a, b) in rows.items():
            x, y = self.monomials.get(gamma) or self._monomial(gamma)
            s = self.q ** (deg - (gamma >> top))
            re, im = re + (a * x - b * y) * s, im + (a * y + b * x) * s
        return re, im

    def _monomial(self, gamma: int) -> tuple[int, int]:
        layout = self.layout
        last = len(layout.shifts) - 1
        chain = []  # a loop, not recursion: degrees may run to thousands
        while gamma not in self.monomials:
            # the first generator present: its field holds the highest bit
            k = last - ((gamma & layout.rest).bit_length() - 1) // FIELD_BITS
            chain.append((gamma, self.coords[k]))
            gamma -= layout.units[k]
        x, y = self.monomials[gamma]
        for gamma, (a, b) in reversed(chain):
            x, y = self.monomials[gamma] = x * a - y * b, x * b + y * a
        return x, y


def _point_values(basepoint: Sequence[ScalarLike], d: int) -> list[Scalar]:
    """The basepoint as d exact scalars, or InputError."""
    values = [Scalar.of(v) for v in basepoint]
    if len(values) != d:
        raise InputError(f"basepoint has {len(values)} entries, expected {d}")
    return values


def taylor_shift(p: GradedPoly, basepoint: Sequence[ScalarLike],
                 hbar_order: int = DEFAULT_HBAR_ORDER) -> GradedPoly:
    """Shift a polynomial in x1..xd to the superspace: p(x0 + xi).

    The input lives in coeff_space(d); the result is an even polynomial in
    super_space(d, hbar_order).  Polynomials terminate, so the shift is exact.
    At x0 = 0 it relabels x_i as xi_i, each packed key moved up past the eta
    and hbar fields, den and rows kept; map_into's power xi_i ** e would
    refuse the first exponent past MAX_POWER_DEGREE, and so does this.
    """
    d = len(p.space)
    if p.space != coeff_space(d):
        raise InputError("taylor_shift expects a plain polynomial in x1..xd")
    pt = _point_values(basepoint, d)
    target = super_space(d, hbar_order)
    if not any(pt):
        if p.total_degree() > MAX_POWER_DEGREE:
            for e in chain.from_iterable(map(p.space._layout.unpack, p.rows)):
                _require_power_degree(e)
        up = target._layout.shifts[d - 1]
        return GradedPoly._raw(target, p.den,
                               {key << up: row for key, row in p.rows.items()})
    images = {}
    for i in range(1, d + 1):
        xi = GradedPoly.generator(target, f"xi{i}")
        images[f"x{i}"] = xi + GradedPoly.constant(target, pt[i - 1])
    return p.map_into(target, images)


def pairing_bracket(f: GradedPoly, g: GradedPoly,
                    pairs: Iterable[tuple[str, str]]) -> GradedPoly:
    """Odd bracket built from (even-side, odd-side) generator pairs.

    (f, g) = sum over pairs (u, w) of
             (right-deriv of f by u) * (left-deriv of g by w)
           - (right-deriv of f by w) * (left-deriv of g by u)

    This single core realizes both the superspace antibracket (u = xi_i,
    w = eta_i) and the field/antifield bracket (u = v_i, w = its antifield).
    """
    _require_same_space(f, g)
    return _mac(f.space, [term for u, w in pairs for term in (
        (1, f.deriv_right(u), g.deriv_left(w)),
        (-1, f.deriv_right(w), g.deriv_left(u)))])


@dataclass(frozen=True)
class HbarSeries:
    """Truncated hbar series with Scalar coefficients (orders 0..order)."""

    order: int
    coefficients: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coefficients) != self.order + 1:
            raise InternalError("hbar series length does not match its order")

    def coefficient(self, k: int) -> Scalar:
        if 0 <= k <= self.order:
            return self.coefficients[k]
        return Scalar()

    def as_strings(self) -> dict[str, str]:
        from .scalars import format_scalar
        return {str(k): format_scalar(c) for k, c in enumerate(self.coefficients)}
