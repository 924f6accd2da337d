"""Textual expressions for graded polynomials.

Grammar (the only operators are + - * ^):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' integer)*
    atom   := rational | name | '(' expr ')'

Rational literals are single tokens like 7 or 3/2 (there is no division
operator) with at most MAX_DIGITS (4300) digits per part.  'I' is the
imaginary unit.  Every other name must resolve to a generator of the target
space.  Exponents are nonnegative integer literals.  Parentheses and unary
minus nest at most MAX_NESTING (100) levels deep; deeper input raises
InputError naming the cap.

One regular-expression scan cuts the text into tokens, refusing the
first character that starts none; parse_expr builds a small term tree from
the tokens; to_poly interprets the tree over a GradedSpace straight into
numerator rows over one denominator, keyed by packed monomials as
GradedPoly stores them, and reduces the result once.  A number, I or a
generator is a value of one row.  Each run of + and - is summed once, by
GradedPoly's signed sum over the lcm of its denominators; products and
powers are GradedPoly's, with its caps, and an odd base to a power past
the first is zero before any cap.  A lexing error anywhere
comes first, then syntax errors from the left, then the first term that
fails to evaluate, the left operand before the right.

poly_to_expr prints a polynomial back in a canonical form that round-trips,
however many terms it has.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .errors import InputError
from .scalars import _parts, _render, parse_rational
from .superalg import GradedPoly, GradedSpace, _canonical, _sum, _times

# parenthesis and unary-minus levels; each costs the parser at most three
# stack frames, so the cap keeps parsing well inside the recursion limit
MAX_NESTING = 100

# AST ------------------------------------------------------------------------
# slotted nodes, built with plain assignments and not changed after; equal
# and hashed by class and fields.  Plain classes, not dataclasses: defining
# seven dataclasses costs a few milliseconds of every start


class _Node:
    """Equal and hashed by class and fields, the __slots__ in order, and
    printed as a dataclass prints them; pos, the last field, is 0 unless
    given."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in
            zip(self.__slots__, self._fields())) + ")"


class Num(_Node):
    __slots__ = ("value", "pos")

    def __init__(self, value: Union[int, Fraction], pos: int = 0):
        self.value, self.pos = value, pos


class Name(_Node):
    __slots__ = ("ident", "pos")

    def __init__(self, ident: str, pos: int = 0):
        self.ident, self.pos = ident, pos


class Neg(_Node):
    __slots__ = ("arg", "pos")

    def __init__(self, arg: "Node", pos: int = 0):
        self.arg, self.pos = arg, pos


class _Binary(_Node):
    __slots__ = ()  # each operator's own, so that it lists the fields

    def __init__(self, left: "Node", right: "Node", pos: int = 0):
        self.left, self.right, self.pos = left, right, pos


class Add(_Binary):
    __slots__ = ("left", "right", "pos")


class Sub(_Binary):
    __slots__ = ("left", "right", "pos")


class Mul(_Binary):
    __slots__ = ("left", "right", "pos")


class Pow(_Node):
    __slots__ = ("base", "exponent", "pos")

    def __init__(self, base: "Node", exponent: int, pos: int = 0):
        self.base, self.exponent, self.pos = base, exponent, pos


Node = Union[Num, Name, Neg, Add, Sub, Mul, Pow]

# lexer ----------------------------------------------------------------------

# a name as the grammar spells it; BVSpace refuses any other field or
# antifield name, and I
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_FULL_NAME = re.compile(_NAME).fullmatch
# whitespace, then a number, a name, an operator or the character that
# starts no token; a text is scanned once
_SCAN = re.compile(rf"(\s*)(?:(\d+(?:/\d+)?)|({_NAME})|([-+*^()])|(\S))")


def _is_name(text) -> bool:
    """True if text is a str that reads as one generator name."""
    return isinstance(text, str) and text != "I" and \
        _FULL_NAME(text) is not None


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, column) per token and a last ("end", "", len + 1); an
    operator's kind is its own character."""
    tokens = []
    col = 1
    for space, num, name, op, bad in _SCAN.findall(text):
        col += len(space)
        if op:
            tokens.append((op, op, col))
        elif name:
            tokens.append(("name", name, col))
        elif num:
            tokens.append(("num", num, col))
        else:
            raise InputError(f"unexpected character {bad!r} at column {col}")
        col += len(op or name or num)
    tokens.append(("end", "", len(text) + 1))
    return tokens


class _Parser:
    __slots__ = ("tokens", "k", "depth")

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError(f"expression nests deeper than the cap of "
                             f"{MAX_NESTING} levels at column {pos}")

    def expr(self) -> Node:
        node = self.term()
        tokens = self.tokens
        while True:
            kind, _, pos = tokens[self.k]
            if kind == "+":
                self.k += 1
                node = Add(node, self.term(), pos)
            elif kind == "-":
                self.k += 1
                node = Sub(node, self.term(), pos)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        tokens = self.tokens
        while True:
            kind, _, pos = tokens[self.k]
            if kind != "*":
                return node
            self.k += 1
            node = Mul(node, self.factor(), pos)

    def factor(self) -> Node:
        tokens = self.tokens
        kind, text, pos = tokens[self.k]
        self.k += 1
        if kind == "name":
            node = Name(text, pos)
        elif kind == "num":
            node = Num(parse_rational(text, f"at column {pos}"), pos)
        elif kind == "-":
            self.nest(pos)
            node = Neg(self.factor(), pos)
            self.depth -= 1
            return node
        elif kind == "(":
            self.nest(pos)
            node = self.expr()
            self.depth -= 1
            kind, text, pos = tokens[self.k]
            self.k += 1
            if kind != ")":
                raise InputError(f"expected ')' at column {pos}")
        elif kind == "end":
            raise InputError(f"unexpected end of expression at column {pos}")
        else:
            raise InputError(f"unexpected {text!r} at column {pos}")
        while tokens[self.k][0] == "^":
            pos = tokens[self.k][2]
            kind, text, at = tokens[self.k + 1]
            self.k += 2
            if kind != "num" or "/" in text:
                raise InputError("exponent must be a nonnegative integer "
                                 f"at column {at}")
            node = Pow(node, parse_rational(text, f"at column {at}"), pos)
        return node


def parse_expr(text: str) -> Node:
    """Parse an expression to its term tree.  Raises InputError with a column."""
    if not text or text.isspace():
        raise InputError("empty expression")
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, tok, pos = parser.tokens[parser.k]
    if kind != "end":
        raise InputError(f"unexpected {tok!r} at column {pos}")
    return node


# interpretation ---------------------------------------------------------------

# A value is (den, rows): the coefficient at each packed monomial key of rows
# is (a + b*i)/den, rows[key] = (a, b), with den > 0 and no row (0, 0), as
# GradedPoly stores it, but den and the rows may share a factor until
# to_poly reduces the result once.
Value = tuple[int, dict]


def to_poly(node: Node, space: GradedSpace) -> GradedPoly:
    """Interpret an AST over a graded space."""
    return _canonical(space, *_value(node, space))


def _value(node: Node, space: GradedSpace) -> Value:
    """The left spine of Add/Sub/Mul/Pow nodes is walked with a loop, so
    long sums and products cost no stack depth.  Each run of + and - on it
    is summed once, when it ends."""
    spine = []
    kind = type(node)
    while kind is Mul or kind is Add or kind is Sub or kind is Pow:
        spine.append(node)
        node = node.base if kind is Pow else node.left
        kind = type(node)
    den, rows = _leaf(node, space)
    run = []  # the signed right operands of the run of sums under way
    for op in reversed(spine):
        kind = type(op)
        if kind is Add or kind is Sub:
            run.append((1 if kind is Add else -1, *_value(op.right, space)))
            continue
        if run:
            p = _sum(space, [(1, den, rows), *run])
            den, rows, run = p.den, p.rows, []
        if kind is Pow:
            p = _canonical(space, den, rows) ** op.exponent
            den, rows = p.den, p.rows
        else:
            den, rows = _times(space, den, rows, *_value(op.right, space))
    if run:
        p = _sum(space, [(1, den, rows), *run])
        den, rows = p.den, p.rows
    return den, rows


def _leaf(node: Node, space: GradedSpace) -> Value:
    """The value of a number, I, a generator or a negation; hbar truncated
    away is zero."""
    kind = type(node)
    if kind is Name:
        if node.ident == "I":
            return 1, {0: (0, 1)}
        k = space._index.get(node.ident)
        if k is None:
            raise InputError(f"unknown generator {node.ident!r} "
                             f"at column {node.pos}")
        if k == space.hbar_index and space.hbar_order < 1:
            return 1, {}
        return 1, {space._layout.units[k]: (1, 0)}
    if kind is Num:
        value = node.value
        if not isinstance(value, (int, Fraction)):
            raise InputError(f"a number node's value must be an int or a "
                             f"Fraction, not {type(value).__name__}")
        a = value.numerator
        return value.denominator, {0: (a, 0)} if a else {}
    if kind is Neg:
        den, rows = _value(node.arg, space)
        return den, {key: (-a, -b) for key, (a, b) in rows.items()}
    raise InputError(f"unrecognized expression node {node!r}")


def parse_poly(text: str, space: GradedSpace) -> GradedPoly:
    return to_poly(parse_expr(text), space)


# printing ---------------------------------------------------------------------

def _monomial_body(space: GradedSpace, key: int) -> str:
    parts = []
    for name, e in zip(space.names, space._layout.unpack(key)):
        if e == 0:
            continue
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def poly_to_expr(p: GradedPoly) -> str:
    """Canonical text: ascending total degree, then generator order.

    parse_poly(poly_to_expr(p), p.space) == p, and printing is idempotent.
    Each coefficient is printed from its numerators over p.den.
    """
    if not p.rows:
        return "0"
    # degree ascending, then exponents descending: the packed keys with
    # every field below the degree flipped
    keys = sorted(p.rows, key=p.space._layout.rest.__xor__)
    rendered = []
    for key in keys:
        re, p_re, im, p_im = _parts(*p.rows[key], p.den)
        negative = (im == 0 and re < 0) or (re == 0 and im < 0)
        if negative:
            re, im = -re, -im
        body = _monomial_body(p.space, key)
        if not body:
            text = _render((re, p_re, im, p_im), "*I", True)
        elif re == p_re == 1 and im == 0:
            text = body
        else:
            text = f"{_render((re, p_re, im, p_im), '*I', True)}*{body}"
        rendered.append(("-" if negative else "+", text))
    sign, text = rendered[0]
    out = [text if sign == "+" else f"-{text}"]
    for sign, text in rendered[1:]:
        out.append(f" {sign} {text}")
    return "".join(out)
