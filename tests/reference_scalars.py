"""The Scalar of two Fractions, kept as a reference for scalars.Scalar.

This is the frozen dataclass that held each Gaussian rational as two
`fractions.Fraction` parts before scalars.Scalar stored it as three ints
(a + b*i)/d, with the two printers that read those parts.  Every operation
here does its rational arithmetic through Fraction, independently of the
int kernels, so the library's scalar has an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from starprod.errors import ResourceLimitError
from starprod.scalars import MAX_DIGITS

ScalarLike = Union["Scalar", int, Fraction]

_TOO_LONG = 10 ** MAX_DIGITS
_TOO_LONG_BITS = _TOO_LONG.bit_length()


@dataclass(frozen=True, slots=True)
class Scalar:
    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        # exactness guard: int components would float-divide in __truediv__
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value: ScalarLike) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return Scalar(Fraction(value))
        raise TypeError(f"cannot interpret {type(value).__name__} as a Scalar")

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        return Scalar(self.re * o.re - self.im * o.im,
                      self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = Scalar.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar((self.re * o.re + self.im * o.im) / n,
                      (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        return Scalar.of(other) / self

    def __pow__(self, n: int) -> "Scalar":
        if not isinstance(n, int) or n < 0:
            raise ValueError("scalar powers must be nonnegative integers")
        if not n:
            return ONE
        # start from the base at the lowest set bit, square up to the highest
        base = self
        while not n & 1:
            base, n = base * base, n >> 1
        out = base
        while n := n >> 1:
            base = base * base
            if n & 1:
                out = out * base
        return out

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


ONE = Scalar(Fraction(1))
def _require_printable(z: Scalar) -> None:
    """Refuse a scalar with a part over MAX_DIGITS digits, before converting it."""
    for n in (z.re.numerator, z.re.denominator, z.im.numerator,
              z.im.denominator):
        # the bit length clears every part that is not near the limit
        if n.bit_length() >= _TOO_LONG_BITS and abs(n) >= _TOO_LONG:
            raise ResourceLimitError(f"a result has a part over the cap of "
                                     f"{MAX_DIGITS} digits")


def format_scalar(z: Scalar) -> str:
    """Render a scalar in report style: "0", "3/2", "1/2i", "3/2-1/4i", "i"."""
    _require_printable(z)
    re, im = z.re, z.im
    if im == 0:
        return str(re)
    if im == 1:
        istr = "i"
    elif im == -1:
        istr = "-i"
    else:
        istr = f"{im}i"
    if re == 0:
        return istr
    if im > 0:
        return f"{re}+{istr}"
    # istr already starts with the minus sign
    return f"{re}{istr}"


def scalar_to_expr(z: Scalar) -> str:
    """Render a scalar as a parseable expression: "3/2", "1/2*I", "(3/2-1/4*I)"."""
    _require_printable(z)
    re, im = z.re, z.im
    if im == 0:
        return str(re)
    if im == 1:
        istr = "I"
    elif im == -1:
        istr = "-I"
    else:
        istr = f"{im}*I"
    if re == 0:
        return istr
    if im > 0:
        return f"({re}+{istr})"
    return f"({re}{istr})"
