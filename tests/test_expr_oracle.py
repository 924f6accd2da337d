"""The expression interpreter against the node-by-node reference.

Texts are drawn from the grammar with random spacing, numbers that reach
the power caps and names the space does not declare, and some are mutated
into junk by inserting, deleting or replacing one character.  On every
text parse_poly must give the polynomial the reference gives, or raise the
same exception class with the same message, and parse_expr must build the
same tree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from starprod import BVSpace, coeff_space, parse_expr, parse_poly, super_space
from reference_expr import parse_expr as reference_parse_expr
from reference_expr import parse_poly as reference_parse_poly

SPACES = (coeff_space(3), super_space(2), super_space(2, 0),
          BVSpace.build([("v", 0), ("c", 1)]).space)
# what a text is built from: mostly the common choices, each rare one with
# probability RARE; a 46-digit number to the 700 passes the bits cap, a
# 4301-digit literal or exponent the digit cap
NUMBERS = ("0", "1", "1", "2", "7", "3/4", "6/4", "5/3", "0/5", "12345678901")
RARE_NUMBERS = ("1/0", "1" + "0" * 45, "1" * 4301)
EXPONENTS = ("0", "1", "2", "2", "2", "3", "3", "5", "8")
RARE_EXPONENTS = ("30", "1001", "700", "1/2", "-1", "x1", "", "1" * 4301)
RARE_NAMES = ("y", "hbar", "x1", "I1")
RARE = 0.03
SPACING = ("", "", "", " ", " ", "  ", "\t", "\n ")
JUNK = "$)(^/*+- 1xIé٣\t"


def pick(rng, common, rare):
    return rng.choice(rare if rng.random() < RARE else common)


def text(rng, names, depth=0):
    """An expression text: terms joined by + and -, of factors joined by *,
    each an atom or a negated factor, with powers."""
    out = []
    for k in range(rng.randint(1, 3)):
        if k:
            out.append(rng.choice("+-"))
        for j in range(rng.randint(1, 3)):
            if j:
                out.append("*")
            if rng.random() < 0.15:
                out.append("-")
            kind = rng.choice(("num", "name", "name", "group")[:4 - (depth > 1)])
            if kind == "num":
                out.append(pick(rng, NUMBERS, RARE_NUMBERS))
            elif kind == "name":
                out.append(pick(rng, names, RARE_NAMES))
            else:
                out.append(f"({text(rng, names, depth + 1)})")
            for _ in range(rng.choice((0, 0, 0, 1, 1, 2))):
                out.append(f"^{pick(rng, EXPONENTS, RARE_EXPONENTS)}")
    return "".join(token + rng.choice(SPACING) for token in out)


@st.composite
def cases(draw):
    """A space and a text over it, one in three mutated into junk: one to
    three characters inserted, deleted or replaced."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    space = rng.choice(SPACES)
    names = space.names + ("I",)
    out = rng.choice(SPACING) + text(rng, names)
    for _ in range(rng.choice((0, 0, 0, 0, 0, 0, 1, 2, 3))):
        at = rng.randint(0, len(out))
        edit = rng.choice(("insert", "delete", "replace"))
        skip = at + (edit != "insert")
        out = out[:at] + (rng.choice(JUNK) if edit != "delete" else "") \
            + out[skip:]
    return space, out


def outcome(parse, *args):
    """The result, or the exception's class and message."""
    try:
        return parse(*args)
    except Exception as exc:  # every refusal is compared, whatever its class
        return type(exc), str(exc)


FIELDS = ("value", "ident", "arg", "left", "right", "base", "exponent", "pos")


def shape(node):
    """A node as its class name and fields, nodes within it as shapes."""
    if not hasattr(node, "pos"):
        return node
    return (type(node).__name__,) + tuple(
        shape(getattr(node, f)) for f in FIELDS if hasattr(node, f))


@given(case=cases())
@settings(max_examples=500, deadline=None)
def test_parse_poly_matches_the_reference(case):
    space, text = case
    got = outcome(parse_poly, text, space)
    want = outcome(reference_parse_poly, text, space)
    assert got == want, text
    tree, reference_tree = outcome(parse_expr, text), \
        outcome(reference_parse_expr, text)
    if isinstance(reference_tree, tuple):
        assert tree == reference_tree, text
    else:
        assert shape(tree) == shape(reference_tree), text


def test_hand_built_powers_match_the_reference():
    # to_poly takes trees built by hand too: an exponent that is not an int
    # >= 0 is refused as `**` refuses it, before the odd-base rule
    from fractions import Fraction

    import reference_expr
    from starprod import expr

    space = super_space(2)
    bases = ("xi1", "2*xi1 + eta1*eta2", "eta1", "xi1*eta1 + eta2", "0")
    for text in bases:
        for n in (0, 1, 2, -1, 2.0, 1.0, True, Fraction(2), "2"):
            got = outcome(expr.to_poly, expr.Pow(parse_expr(text), n, 1),
                          space)
            want = outcome(reference_expr.to_poly, reference_expr.Pow(
                reference_parse_expr(text), n, 1), space)
            assert got == want, (text, n)


def test_hand_built_numbers_match_the_reference_or_are_refused():
    # a number node's value is read as an int or a Fraction, as the
    # reference reads it; any other value is refused with InputError
    from fractions import Fraction

    import reference_expr
    from starprod import InputError, Scalar
    from starprod import expr

    space = super_space(2)
    for value in (0, 3, -2, True, Fraction(3, 4), Fraction(0), Fraction(-6, 4)):
        for text in ("{}", "xi1*{}", "{}*eta1 + xi2", "({} + xi1)^2"):
            tree = parse_expr(text.format("n"))
            reference_tree = reference_parse_expr(text.format("n"))
            got = outcome(expr.to_poly, _with_number(tree, expr, value), space)
            want = outcome(reference_expr.to_poly, _with_number(
                reference_tree, reference_expr, value), space)
            assert got == want, (text, value)
    for value in (0.5, 2.0, Scalar(0, 1), "2", None):
        for text in ("{}", "xi1*{}", "xi1 - {}"):
            tree = _with_number(parse_expr(text.format("n")), expr, value)
            got = outcome(expr.to_poly, tree, space)
            assert got == (InputError, f"a number node's value must be an "
                           f"int or a Fraction, not {type(value).__name__}"), \
                (text, value)


def _with_number(node, module, value):
    """node with each name n replaced by a number node of value."""
    if isinstance(node, module.Name):
        return module.Num(value, node.pos) if node.ident == "n" else node
    if isinstance(node, module.Num):
        return node
    if isinstance(node, module.Neg):
        return module.Neg(_with_number(node.arg, module, value), node.pos)
    if isinstance(node, module.Pow):
        return module.Pow(_with_number(node.base, module, value),
                          node.exponent, node.pos)
    return type(node)(_with_number(node.left, module, value),
                      _with_number(node.right, module, value), node.pos)
