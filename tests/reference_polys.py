"""The per-generator polynomial kernels, kept as references for superalg.

These are the loops GradedPoly used before its derivatives and point values
went through one even-derivative kernel and one shared evaluator: each term
is raised to its exponents with ``**`` and each derivative strikes one
generator.  They are written out independently of those kernels, so the
library's `evaluate`, `deriv_left` and `deriv_right`, and the evaluator
behind `star` at a point, have an oracle.
"""

from typing import Mapping

from starprod.errors import InputError
from starprod.scalars import Scalar, ScalarLike
from starprod.superalg import GradedPoly, _accumulate


def evaluate(p: GradedPoly, point: Mapping[str, ScalarLike]) -> Scalar:
    """Full evaluation; every generator appearing in a term must be assigned."""
    space = p.space
    values: dict[int, Scalar] = {}
    for name, v in point.items():
        idx = space.index(name)
        if space.parities[idx]:
            raise InputError(f"cannot assign a number to odd generator {name!r}")
        values[idx] = Scalar.of(v)
    total = Scalar()
    for key, c in p.terms.items():
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


def deriv_left(p: GradedPoly, name: str) -> GradedPoly:
    """Left derivative: move the generator to the front, then strike it."""
    space = p.space
    k = space.index(name)
    out: dict[tuple[int, ...], Scalar] = {}
    if space.parities[k] == 0:
        for key, c in p.terms.items():
            e = key[k]
            if e == 0:
                continue
            _accumulate(out, key[:k] + (e - 1,) + key[k + 1:], c * e)
    else:
        for key, c in p.terms.items():
            if not key[k]:
                continue
            crossings = sum(key[i] for i in space.odd_indices if i < k)
            _accumulate(out, key[:k] + (0,) + key[k + 1:],
                        -c if crossings & 1 else c)
    return GradedPoly._raw(space, out)


def deriv_right(p: GradedPoly, name: str) -> GradedPoly:
    """Right derivative: move the generator to the back, then strike it."""
    space = p.space
    k = space.index(name)
    if space.parities[k] == 0:
        return deriv_left(p, name)
    out: dict[tuple[int, ...], Scalar] = {}
    for key, c in p.terms.items():
        if not key[k]:
            continue
        crossings = sum(key[i] for i in space.odd_indices if i > k)
        _accumulate(out, key[:k] + (0,) + key[k + 1:],
                    -c if crossings & 1 else c)
    return GradedPoly._raw(space, out)
