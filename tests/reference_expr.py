"""The expression interpreter from before numerator rows, kept as a reference
for expr.

This is the tokenizer, parser and interpreter that parse_poly used when
every node of the term tree became a GradedPoly of its own: a loop that
matches one token at a time, frozen dataclass nodes, and to_poly building
and reducing a polynomial per node through GradedPoly's `+`, `-`, `*` and
`**`.  The library's parse_expr, to_poly and parse_poly must give an equal
polynomial, or the same exception class and message, on every text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from starprod.errors import InputError, require_int
from starprod.expr import MAX_NESTING
from starprod.scalars import Scalar, parse_rational
from starprod.superalg import GradedPoly, GradedSpace

# AST ------------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction
    pos: int = 0


@dataclass(frozen=True)
class Name:
    ident: str
    pos: int = 0


@dataclass(frozen=True)
class Neg:
    arg: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"
    pos: int = 0


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int
    pos: int = 0


Node = Union[Num, Name, Neg, Add, Sub, Mul, Pow]

# lexer ----------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*^()])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if m is None:
            raise InputError(f"unexpected character {text[pos]!r} "
                             f"at column {pos + 1}")
        kind = m.lastgroup
        tokens.append((kind, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def advance(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise InputError(f"expression nests deeper than the cap of "
                             f"{MAX_NESTING} levels at column {pos}")

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs, pos) if text == "+" else Sub(node, rhs, pos)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                node = Mul(node, self.factor(), pos)
            else:
                return node

    def factor(self) -> Node:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            self.nest(pos)
            node = Neg(self.factor(), pos)
            self.depth -= 1
            return node
        node = self.atom()
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Pow(node, self._exponent(), pos)
            else:
                return node

    def _exponent(self) -> int:
        kind, text, pos = self.advance()
        if kind != "num" or "/" in text:
            raise InputError("exponent must be a nonnegative integer "
                             f"at column {pos}")
        return int(parse_rational(text, f"at column {pos}"))

    def atom(self) -> Node:
        kind, text, pos = self.advance()
        if kind == "num":
            return Num(parse_rational(text, f"at column {pos}"), pos)
        if kind == "name":
            return Name(text, pos)
        if kind == "op" and text == "(":
            self.nest(pos)
            node = self.expr()
            self.depth -= 1
            kind, text, pos = self.advance()
            if not (kind == "op" and text == ")"):
                raise InputError(f"expected ')' at column {pos}")
            return node
        if kind == "end":
            raise InputError(f"unexpected end of expression at column {pos}")
        raise InputError(f"unexpected {text!r} at column {pos}")


def parse_expr(text: str) -> Node:
    """Parse an expression to its term tree.  Raises InputError with a column."""
    if not text or text.isspace():
        raise InputError("empty expression")
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, tok, pos = parser.peek()
    if kind != "end":
        raise InputError(f"unexpected {tok!r} at column {pos}")
    return node


# interpretation ---------------------------------------------------------------

def to_poly(node: Node, space: GradedSpace) -> GradedPoly:
    """Interpret an AST over a graded space.

    The left spine of Add/Sub/Mul/Pow nodes is walked with a loop, so long
    sums and products cost no stack depth.
    """
    spine = []
    while isinstance(node, (Add, Sub, Mul, Pow)):
        spine.append(node)
        node = node.base if isinstance(node, Pow) else node.left
    acc = _leaf_poly(node, space)
    for op in reversed(spine):
        if isinstance(op, Pow):
            require_int(op.exponent, "a polynomial power's exponent")
            if acc.parity() == 1 and op.exponent > 1:
                acc = GradedPoly.zero(space)
            else:
                acc = acc ** op.exponent
        elif isinstance(op, Add):
            acc = acc + to_poly(op.right, space)
        elif isinstance(op, Sub):
            acc = acc - to_poly(op.right, space)
        else:
            acc = acc * to_poly(op.right, space)
    return acc


def _leaf_poly(node: Node, space: GradedSpace) -> GradedPoly:
    if isinstance(node, Num):
        return GradedPoly.constant(space, node.value)
    if isinstance(node, Name):
        if node.ident == "I":
            return GradedPoly.constant(space, Scalar(0, 1))
        if node.ident in space._index:
            return GradedPoly.generator(space, node.ident)
        raise InputError(f"unknown generator {node.ident!r} "
                         f"at column {node.pos}")
    if isinstance(node, Neg):
        return -to_poly(node.arg, space)
    raise InputError(f"unrecognized expression node {node!r}")


def parse_poly(text: str, space: GradedSpace) -> GradedPoly:
    return to_poly(parse_expr(text), space)
