"""Exact Gaussian-rational scalars.

Every coefficient in this package is a complex number whose real and
imaginary parts are `fractions.Fraction` values, so all arithmetic is exact
and printed results are ratios of integers.  No floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InputError, ResourceLimitError

ScalarLike = Union["Scalar", int, Fraction]

# digits per numerator or denominator of a literal or a printed scalar:
# Python's default limit on int/str conversion, checked here so it holds
# whatever that setting is
MAX_DIGITS = 4300
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
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return not self

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"


ONE = Scalar(Fraction(1))
I = Scalar(Fraction(0), Fraction(1))
HALF_I = Scalar(Fraction(0), Fraction(1, 2))


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


def parse_rational(text: str, where: str) -> Fraction:
    """A rational literal: an optional leading '-', digits, an optional '/digits'.

    This is the one reader for rationals in user text: expression number
    tokens, basepoint entries and scalar strings.  Decimals, exponents and
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
    if slash and int(den) == 0:
        raise InputError(f"zero denominator {where}")
    value = Fraction(int(num), int(den) if slash else 1)
    return -value if negative else value


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar: "a", "bi", "a+bi" or "a-bi" with a, b rational."""
    s = text.strip()
    where = f"in {text!r}"
    if not s.endswith("i"):
        return Scalar(parse_rational(s, where))
    # the imaginary part starts at its sign, or at the start of the text
    cut = max(s.rfind("+"), s.rfind("-"), 0)
    im_text = s[cut:-1].removeprefix("+")
    im = {"": 1, "-": -1}.get(im_text)
    if im is None:
        im = parse_rational(im_text, where)
    return Scalar(parse_rational(s[:cut], where) if cut else 0, im)


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
