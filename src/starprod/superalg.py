"""Exact graded-commutative polynomial algebra.

A GradedSpace declares named generators, each even (commuting) or odd
(anticommuting).  A GradedPoly is a polynomial over such a space with
Gaussian-rational coefficients, stored as a map from exponent tuples to
Scalar.  Odd generators square to zero, so their exponents are 0 or 1;
reordering signs are normalized into the coefficients (canonical form:
generators in declaration order).

The formal deformation parameter is modeled as a distinguished even
generator named "hbar".  Spaces that contain it carry a truncation order:
products drop every monomial whose hbar exponent exceeds it.

The standard working space is super_space(d): commuting xi1..xid, odd
eta1..etad, plus hbar.  Everything else (Batalin-Vilkovisky spaces, plain
coefficient rings) is the same machinery with different declarations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import InputError, InternalError, ResourceLimitError
from .scalars import ONE, Scalar, ScalarLike

HBAR = "hbar"
DEFAULT_HBAR_ORDER = 3
# caps on a power's estimated result, checked before multiplying: its total
# degree (the exponent times the base's degree, at least 1) and its
# coefficient size (the exponent times the bits of the base's largest part)
MAX_POWER_DEGREE = 1000
MAX_POWER_BITS = 100_000


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
            order = self.hbar_order
            if not isinstance(order, int) or isinstance(order, bool) or order < 0:
                raise InputError("spaces containing hbar need a nonnegative "
                                 "integer truncation order")

    @cached_property
    def _index(self) -> dict[str, int]:
        return {n: k for k, n in enumerate(self.names)}

    @cached_property
    def odd_indices(self) -> tuple[int, ...]:
        return tuple(k for k, p in enumerate(self.parities) if p)

    @cached_property
    def hbar_index(self) -> Optional[int]:
        return self._index.get(HBAR)

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise InputError(f"unknown generator {name!r}") from None


@lru_cache(maxsize=None)
def super_space(d: int, hbar_order: int = DEFAULT_HBAR_ORDER) -> GradedSpace:
    """The (xi, eta) superspace in dimension d with truncated hbar."""
    if d < 1:
        raise InputError("dimension must be positive")
    names = tuple(f"xi{i}" for i in range(1, d + 1)) \
        + tuple(f"eta{i}" for i in range(1, d + 1)) + (HBAR,)
    parities = (0,) * d + (1,) * d + (0,)
    return GradedSpace(names, parities, hbar_order)


@lru_cache(maxsize=None)
def coeff_space(d: int) -> GradedSpace:
    """Plain commuting polynomials in x1..xd (no hbar)."""
    if d < 1:
        raise InputError("dimension must be positive")
    return GradedSpace(tuple(f"x{i}" for i in range(1, d + 1)), (0,) * d)


def _accumulate(out: dict, key: tuple[int, ...], c: Scalar) -> None:
    """Add c to out[key], dropping the key when the sum cancels."""
    acc = out.get(key)
    if acc is None:
        out[key] = c
    else:
        s = acc + c
        if s:
            out[key] = s
        else:
            del out[key]


def _require_same_space(a: "GradedPoly", b: "GradedPoly") -> None:
    if a.space != b.space:
        raise InputError("operands live in different graded spaces "
                         "(generator set or hbar truncation mismatch)")


class GradedPoly:
    """Immutable-by-convention polynomial over a GradedSpace."""

    __slots__ = ("space", "terms")

    def __init__(self, space: GradedSpace, terms: Optional[Mapping[tuple, ScalarLike]] = None):
        normalized: dict[tuple[int, ...], Scalar] = {}
        if terms:
            n = len(space)
            odd = set(space.odd_indices)
            hidx = space.hbar_index
            for key, coeff in terms.items():
                key = tuple(key)
                if len(key) != n:
                    raise InputError("exponent tuple has the wrong length")
                if any(e < 0 for e in key):
                    raise InputError("negative exponents are not allowed")
                if any(key[i] > 1 for i in odd):
                    raise InputError("odd generators square to zero")
                if hidx is not None and key[hidx] > space.hbar_order:
                    continue
                c = Scalar.of(coeff)
                if c:
                    _accumulate(normalized, key, c)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "terms", normalized)

    def __setattr__(self, *_):
        raise AttributeError("GradedPoly is immutable")

    # construction helpers

    @classmethod
    def zero(cls, space: GradedSpace) -> "GradedPoly":
        return cls(space)

    @classmethod
    def constant(cls, space: GradedSpace, value: ScalarLike) -> "GradedPoly":
        return cls(space, {(0,) * len(space): Scalar.of(value)})

    @classmethod
    def one(cls, space: GradedSpace) -> "GradedPoly":
        return cls.constant(space, 1)

    @classmethod
    def generator(cls, space: GradedSpace, name: str) -> "GradedPoly":
        k = space.index(name)
        key = tuple(1 if i == k else 0 for i in range(len(space)))
        return cls(space, {key: ONE})

    # predicates

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        zero_key = (0,) * len(self.space)
        return all(k == zero_key for k in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise InputError("polynomial is not constant")
        return self.terms.get((0,) * len(self.space), Scalar())

    def term_parity(self, key: tuple[int, ...]) -> int:
        return sum(key[i] for i in self.space.odd_indices) & 1

    def parity(self) -> Optional[int]:
        """0 or 1 when parity-homogeneous (zero counts as both; returns 0), else None."""
        seen = {self.term_parity(k) for k in self.terms}
        if not seen:
            return 0
        if len(seen) == 1:
            return seen.pop()
        return None

    def homogeneous_part(self, parity: int) -> "GradedPoly":
        return GradedPoly(self.space, {k: c for k, c in self.terms.items()
                                       if self.term_parity(k) == parity})

    def total_degree(self) -> int:
        return max((sum(k) for k in self.terms), default=0)

    # arithmetic

    def __add__(self, other) -> "GradedPoly":
        other = self._coerce(other)
        _require_same_space(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return self._raw(self.space, out)

    __radd__ = __add__

    def __sub__(self, other) -> "GradedPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "GradedPoly":
        return self._coerce(other) + (-self)

    def __neg__(self) -> "GradedPoly":
        return self._raw(self.space, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "GradedPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            c = Scalar.of(other)
            if not c:
                return GradedPoly.zero(self.space)
            return self._raw(self.space, {k: v * c for k, v in self.terms.items()})
        other = self._coerce(other)
        _require_same_space(self, other)
        space = self.space
        odd = space.odd_indices
        hidx = space.hbar_index
        horder = space.hbar_order
        out: dict[tuple[int, ...], Scalar] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                # odd exponents collide -> zero; count inversions for the sign
                swaps = 0
                dead = False
                behind = 0  # odd generators of ka seen so far (scanning right to left)
                for i in reversed(odd):
                    if kb[i]:
                        if ka[i]:
                            dead = True
                            break
                        swaps += behind
                    if ka[i]:
                        behind += 1
                if dead:
                    continue
                key = tuple(a + b for a, b in zip(ka, kb))
                if hidx is not None and key[hidx] > horder:
                    continue
                c = ca * cb
                _accumulate(out, key, -c if swaps & 1 else c)
        return self._raw(space, out)

    def __rmul__(self, other) -> "GradedPoly":
        if isinstance(other, (Scalar, int, Fraction)):
            return self * other
        return self._coerce(other) * self

    def __pow__(self, n: int) -> "GradedPoly":
        if not isinstance(n, int) or n < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        degree = n * max(self.total_degree(), 1)
        if degree > MAX_POWER_DEGREE:
            raise ResourceLimitError(f"a power of degree {degree} exceeds the "
                                     f"cap of {MAX_POWER_DEGREE}")
        bits = n * max((max(q.numerator.bit_length(), q.denominator.bit_length())
                        for c in self.terms.values() for q in (c.re, c.im)),
                       default=0)
        if bits > MAX_POWER_BITS:
            raise ResourceLimitError(f"a power with coefficients of about "
                                     f"{bits} bits exceeds the cap of "
                                     f"{MAX_POWER_BITS}")
        out = GradedPoly.one(self.space)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPoly):
            if isinstance(other, (Scalar, int, Fraction)):
                return self == GradedPoly.constant(self.space, other)
            return NotImplemented
        return self.space == other.space and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        from .expr import poly_to_expr
        return f"<GradedPoly {poly_to_expr(self)}>"

    @staticmethod
    def _raw(space: GradedSpace, terms: dict) -> "GradedPoly":
        p = GradedPoly.__new__(GradedPoly)
        object.__setattr__(p, "space", space)
        object.__setattr__(p, "terms", terms)
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
        space = self.space
        k = space.index(name)
        out: dict[tuple[int, ...], Scalar] = {}
        if space.parities[k] == 0:
            for key, c in self.terms.items():
                e = key[k]
                if e == 0:
                    continue
                _accumulate(out, key[:k] + (e - 1,) + key[k + 1:], c * e)
        else:
            for key, c in self.terms.items():
                if not key[k]:
                    continue
                crossings = sum(key[i] for i in space.odd_indices if i < k)
                _accumulate(out, key[:k] + (0,) + key[k + 1:],
                            -c if crossings & 1 else c)
        return self._raw(space, out)

    def deriv_right(self, name: str) -> "GradedPoly":
        """Right derivative: move the generator to the back, then strike it."""
        space = self.space
        k = space.index(name)
        if space.parities[k] == 0:
            return self.deriv_left(name)
        out: dict[tuple[int, ...], Scalar] = {}
        for key, c in self.terms.items():
            if not key[k]:
                continue
            crossings = sum(key[i] for i in space.odd_indices if i > k)
            _accumulate(out, key[:k] + (0,) + key[k + 1:],
                        -c if crossings & 1 else c)
        return self._raw(space, out)

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
        out = GradedPoly.zero(target)
        powers: dict[tuple[int, int], GradedPoly] = {}
        for key, c in self.terms.items():
            piece = GradedPoly.constant(target, c)
            for idx, e in enumerate(key):
                if not e:
                    continue
                if idx not in img:
                    raise InputError(f"no image given for generator "
                                     f"{space.names[idx]!r}")
                got = powers.get((idx, e))
                if got is None:
                    got = img[idx] ** e
                    powers[(idx, e)] = got
                piece = piece * got
            out = out + piece
        return out

    def evaluate(self, point: Mapping[str, ScalarLike]) -> Scalar:
        """Full evaluation; every generator appearing in a term must be assigned."""
        space = self.space
        values: dict[int, Scalar] = {}
        for name, v in point.items():
            idx = space.index(name)
            if space.parities[idx]:
                raise InputError(f"cannot assign a number to odd generator {name!r}")
            values[idx] = Scalar.of(v)
        total = Scalar()
        for key, c in self.terms.items():
            term = c
            for idx, e in enumerate(key):
                if not e:
                    continue
                if idx not in values:
                    raise InputError(f"no value given for generator "
                                     f"{space.names[idx]!r}")
                term = term * values[idx] ** e
            total = total + term
        return total

    # hbar views

    def hbar_coefficient(self, k: int) -> "GradedPoly":
        """The coefficient of hbar^k, returned with the hbar exponent cleared."""
        hidx = self.space.hbar_index
        if hidx is None:
            if k == 0:
                return self
            return GradedPoly.zero(self.space)
        out = {}
        for key, c in self.terms.items():
            if key[hidx] == k:
                out[key[:hidx] + (0,) + key[hidx + 1:]] = c
        return self._raw(self.space, out)

    def hbar_support(self) -> tuple[int, ...]:
        hidx = self.space.hbar_index
        if hidx is None:
            return (0,) if self.terms else ()
        return tuple(sorted({key[hidx] for key in self.terms}))


# spec-level operation surface ------------------------------------------------

def mul(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    """Graded-commutative product."""
    return a * b


def deriv_even(a: GradedPoly, i: int) -> GradedPoly:
    """Partial derivative in the i-th commuting superspace variable (1-based)."""
    return a.deriv_left(_even_name(a.space, i))


def deriv_odd_left(a: GradedPoly, i: int) -> GradedPoly:
    """Left derivative in the i-th odd variable (1-based)."""
    return a.deriv_left(_odd_name(a.space, i))


def deriv_odd_right(a: GradedPoly, i: int) -> GradedPoly:
    """Right derivative in the i-th odd variable (1-based)."""
    return a.deriv_right(_odd_name(a.space, i))


def _even_name(space: GradedSpace, i: int) -> str:
    name = f"xi{i}"
    if name not in space._index:
        raise InputError(f"even index {i} out of range for this space")
    return name


def _odd_name(space: GradedSpace, i: int) -> str:
    name = f"eta{i}"
    if name not in space._index:
        raise InputError(f"odd index {i} out of range for this space")
    return name


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
    """
    d = len(p.space)
    if p.space != coeff_space(d):
        raise InputError("taylor_shift expects a plain polynomial in x1..xd")
    pt = _point_values(basepoint, d)
    target = super_space(d, hbar_order)
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
    out = GradedPoly.zero(f.space)
    for u, w in pairs:
        out = out + f.deriv_right(u) * g.deriv_left(w)
        out = out - f.deriv_right(w) * g.deriv_left(u)
    return out


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

    def is_zero(self) -> bool:
        return all(not c for c in self.coefficients)

    def as_strings(self) -> dict[str, str]:
        from .scalars import format_scalar
        return {str(k): format_scalar(c) for k, c in enumerate(self.coefficients)}
