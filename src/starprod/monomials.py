"""Packed monomial keys, one int per monomial, as in Monagan and Pearce's
packed exponent vectors (CASC 2007): superalg keys its rows by them, and
expr, poisson and wick read their fields through the same layout."""

from __future__ import annotations

import operator
import struct
from functools import lru_cache, reduce
from typing import Iterable, Optional, Sequence

# bits of one field of a packed monomial (four bytes); degrees past
# MAX_DEGREE are refused, so the sum of two admitted exponents, or degrees,
# still fits its field
FIELD_BITS = 32
MAX_DEGREE = (1 << FIELD_BITS - 1) - 1
_FIELD = (1 << FIELD_BITS) - 1


class _Layout:
    """Monomials in n generators packed into one int key.  Generator i's
    exponent sits in the field at shifts[i], generator 0 highest, and the
    total degree in the field at top, above them all; units[i] is the key
    of generator i.  For the odd generators of a space, odd has the lowest
    bit of each of their fields set; hbar masks the field of its hbar and
    limit is its hbar order there (both 0 without hbar).

    While every degree stays within MAX_DEGREE, a product of monomials is
    the sum of their keys, and key ^ rest sorts a polynomial's terms in
    printed order: degree ascending, then exponents descending.
    """

    __slots__ = ("shifts", "units", "top", "rest", "odd", "hbar", "limit",
                 "_fields")

    def __init__(self, n: int, odd: tuple[int, ...] = (),
                 hidx: Optional[int] = None, horder: Optional[int] = None):
        self.shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self.top = FIELD_BITS * n
        self.units = tuple((1 << s) + (1 << self.top) for s in self.shifts)
        self.rest = (1 << self.top) - 1
        # the degree and the exponents as big-endian four-byte fields
        self._fields = struct.Struct(f">{n + 1}I")
        self.odd = sum(1 << self.shifts[i] for i in odd)
        self.hbar = self.limit = 0
        if hidx is not None:
            self.hbar = _FIELD << self.shifts[hidx]
            self.limit = horder << self.shifts[hidx]

    def pack(self, exponents: Sequence[int]) -> int:
        return int.from_bytes(self._fields.pack(sum(exponents), *exponents),
                              "big")

    def unpack(self, key: int) -> tuple[int, ...]:
        return self._fields.unpack(key.to_bytes(self._fields.size, "big"))[1:]

    def present(self, keys: Iterable[int]) -> list[int]:
        """The indices of the generators that occur in the keys."""
        bits = reduce(operator.or_, keys, 0)
        return [i for i, s in enumerate(self.shifts) if bits >> s & _FIELD]


_layout_for = lru_cache(maxsize=None)(_Layout)  # one per declaration
