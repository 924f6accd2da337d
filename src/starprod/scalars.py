"""Exact Gaussian-rational scalars.

Every coefficient in this package is a complex number (a + b*i)/d stored as
three ints, with d > 0 and gcd(a, b, d) = 1, so each value has one form and
an operation costs a few integer products and at most one gcd.  The real
and imaginary parts read back as `fractions.Fraction` values, so printed
results are ratios of integers.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .errors import InputError, ResourceLimitError

ScalarLike = Union["Scalar", int, Fraction]

# digits per numerator or denominator of a literal or a printed scalar:
# Python's default limit on int/str conversion, checked here so it holds
# whatever that setting is
MAX_DIGITS = 4300
_TOO_LONG = 10 ** MAX_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()


class Scalar:
    """The Gaussian rational (a + b*i)/d; immutable, like GradedPoly."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: Union[int, Fraction] = 0,
                im: Union[int, Fraction] = 0) -> "Scalar":
        if type(re) is int and type(im) is int:
            return _exact(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        # over the lcm of two reduced denominators gcd(a, b, d) is 1
        d = p * q // gcd(p, q)
        return _exact(re.numerator * (d // p), im.numerator * (d // q), d)

    def __setattr__(self, *_):
        raise AttributeError("Scalar is immutable")

    __delattr__ = __setattr__

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def parts(self) -> tuple[int, int, int, int]:
        """re and im in lowest terms: (re num, re den, im num, im den)."""
        return _parts(self._a, self._b, self._d)

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(value)
        raise TypeError(f"cannot interpret {type(value).__name__} as a Scalar")

    def __add__(self, other: ScalarLike) -> "Scalar":
        if (parts := _ints(other)) is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = parts
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        if (parts := _ints(other)) is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = parts
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return _exact(-self._a, -self._b, self._d)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        if (parts := _ints(other)) is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = parts
        return _reduced(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        if (parts := _ints(other)) is None:
            return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = parts
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), d * n)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("scalar powers must be nonnegative integers")
        # (1 + i)^2 / 2^2 is 2i/4: a power's parts may share a factor
        return _reduced(*_gaussian_power(self._a, self._b, n), self._d ** n)

    def __eq__(self, other) -> bool:
        if type(other) is not Scalar:
            return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self) -> int:
        # the parts are in lowest terms, so equal scalars have equal parts
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"

    def __reduce__(self):
        # copy and pickle rebuild from the parts, not through __setattr__
        return _exact, (self._a, self._b, self._d)


_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_d = Scalar._d.__set__
_blank = object.__new__


def _exact(a: int, b: int, d: int) -> Scalar:
    """The scalar (a + b*i)/d from parts already in lowest terms, d > 0."""
    z = _blank(Scalar)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The scalar (a + b*i)/d, d > 0, with gcd(a, b, d) divided out."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _exact(a, b, d)


def _gaussian_power(a: int, b: int, n: int) -> tuple[int, int]:
    """(x, y) with x + y*i = (a + b*i)^n, n >= 0, by squaring."""
    if not b:
        return a ** n, 0
    x, y = 1, 0
    while True:
        if n & 1:
            x, y = x * a - y * b, x * b + y * a
        if not (n := n >> 1):
            return x, y
        a, b = a * a - b * b, 2 * a * b


def _parts(a: int, b: int, d: int) -> tuple[int, int, int, int]:
    """a/d and b/d in lowest terms, d > 0: (re num, re den, im num, im den)."""
    if d == 1:
        return a, 1, b, 1
    g, h = gcd(a, d), gcd(b, d)
    return a // g, d // g, b // h, d // h


def _ints(value) -> Optional[tuple[int, int, int]]:
    """(a, b, d) of a Scalar, int or Fraction operand, else None."""
    if isinstance(value, Scalar):
        return value._a, value._b, value._d
    if isinstance(value, (int, Fraction)):
        return value.numerator, 0, value.denominator
    return None


ONE = Scalar(Fraction(1))
HALF_I = Scalar(Fraction(0), Fraction(1, 2))


def _render(parts: tuple[int, int, int, int], unit: str, parens: bool) -> str:
    """The one scalar printer, from the lowest-terms parts of a scalar: the
    real part, then the imaginary part as a multiple of unit ("i" or "*I",
    the sign kept, a coefficient of 1 dropped), in parentheses when both
    show and parens is set.  A part over MAX_DIGITS digits is refused
    before it is converted."""
    for n in parts:
        # the bit length clears every part that is not near the limit
        if n.bit_length() >= _TOO_LONG_BITS and abs(n) >= _TOO_LONG:
            raise ResourceLimitError(f"a result has a part over the cap of "
                                     f"{MAX_DIGITS} digits")
    a, p, b, q = parts
    re = str(a) if p == 1 else f"{a}/{p}"
    if not b:
        return re
    im = str(b) if q == 1 else f"{b}/{q}"
    # a coefficient of 1 or -1 keeps only its sign: "i", "-I"
    istr = im[:-1] + unit.lstrip("*") if im in ("1", "-1") else im + unit
    if not a:
        return istr
    # istr already starts with the minus sign
    text = f"{re}{istr}" if b < 0 else f"{re}+{istr}"
    return f"({text})" if parens else text


def format_scalar(z: Scalar) -> str:
    """Render a scalar in report style: "0", "3/2", "1/2i", "3/2-1/4i", "i"."""
    return _render(z.parts(), "i", False)


def parse_rational(text: str, where: str) -> Union[int, Fraction]:
    """A rational literal: an optional leading '-', digits, an optional '/digits'.

    This is the one reader for rationals in user text: the number tokens
    of expressions and the basepoint entries.  A literal without '/' is
    read as an int, one with it as a Fraction.  Decimals, exponents and
    '+' are refused, and so is a part longer than MAX_DIGITS digits; `where`
    places the literal in the InputError message.
    """
    negative = text.startswith("-")
    num, slash, den = text[negative:].partition("/")
    if not num.isdecimal() or (slash and not den.isdecimal()):
        raise InputError(f"bad rational {text!r} {where}; "
                         "use literals like 2 or -1/3")
    if max(len(num), len(den)) > MAX_DIGITS:
        raise InputError(f"literal {where} exceeds the cap of {MAX_DIGITS} digits")
    if not slash:
        value = int(num)
    elif not (d := int(den)):
        raise InputError(f"zero denominator {where}")
    else:
        value = Fraction(int(num), d)
    return -value if negative else value
