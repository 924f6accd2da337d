"""The per-generator polynomial kernels, kept as references for superalg.

These are the loops GradedPoly used before its derivatives and point values
went through one even-derivative kernel and one shared evaluator: each term
is raised to its exponents with ``**`` and each derivative strikes one
generator.  They are written out independently of those kernels, so the
library's `evaluate`, `deriv_left` and `deriv_right`, and the evaluator
behind `star` at a point, have an oracle.

`times`, `power`, `pairing_bracket` and `pairing` are the products and
bracket contractions from before the multiply-accumulate kernel: one
`Scalar` product per term pair, each partial sum added one `Scalar` at a
time.  The brackets multiply with `times`, never with `*`, so they share
no arithmetic with the kernel they check.

`plus`, `scaled`, `hbar_coefficient`, `map_into` and `unsymbol_terms` are
the coefficient-wise operations as they were when a polynomial stored one
`Scalar` per term, before it stored integer numerators over one
denominator: they read `terms` and build their results from `Scalar`s.
"""

from typing import Iterable, Mapping

from starprod.errors import InputError
from starprod.poisson import Multivector
from starprod.scalars import Scalar, ScalarLike
from starprod.superalg import GradedPoly, _accumulate


def times(a: GradedPoly, b: GradedPoly) -> GradedPoly:
    """The product of two polynomials of one space, with no size check."""
    space = a.space
    odd = space.odd_indices
    hidx = space.hbar_index
    horder = space.hbar_order
    out: dict[tuple[int, ...], Scalar] = {}
    right = list(b.terms.items())  # the view builds its Scalars on each read
    for ka, ca in a.terms.items():
        for kb, cb in right:
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
            key = tuple(x + y for x, y in zip(ka, kb))
            if hidx is not None and key[hidx] > horder:
                continue
            c = ca * cb
            _accumulate(out, key, -c if swaps & 1 else c)
    return GradedPoly(space, out)


def power(p: GradedPoly, n: int) -> GradedPoly:
    """p^n as n steps of `times`, with no cap."""
    out = GradedPoly.one(p.space)
    for _ in range(n):
        out = times(out, p)
    return out


def plus(a: GradedPoly, b: GradedPoly, sign: int = 1) -> GradedPoly:
    """a + sign * b, sign = 1 or -1, one Scalar sum per shared key."""
    out = dict(a.terms)
    for key, c in b.terms.items():
        _accumulate(out, key, c if sign > 0 else -c)
    return GradedPoly(a.space, out)


def scaled(p: GradedPoly, c: ScalarLike) -> GradedPoly:
    """c * p, one Scalar product per term."""
    c = Scalar.of(c)
    return GradedPoly(p.space, {key: v * c for key, v in p.terms.items()})


def hbar_coefficient(p: GradedPoly, k: int) -> GradedPoly:
    """The coefficient of hbar^k with the hbar exponent cleared."""
    h = p.space.hbar_index
    return GradedPoly(p.space, {key[:h] + (0,) + key[h + 1:]: c
                                for key, c in p.terms.items() if key[h] == k})


def map_into(p: GradedPoly, target, images: Mapping[str, GradedPoly]
             ) -> GradedPoly:
    """The ring map sending each generator to its image, term by term:
    the coefficient times the images in the monomial's order, by `times`."""
    total = GradedPoly.zero(target)
    for key, c in p.terms.items():
        term = GradedPoly(target, {(0,) * len(target): c})
        for name, e in zip(p.space.names, key):
            for _ in range(e):
                term = times(term, images[name])
        total = plus(total, term)
    return total


def unsymbol_terms(F: GradedPoly, dim: int) -> dict:
    """The components of an hbar-free superspace polynomial of one eta
    degree: eta index set -> {xi exponents: Scalar}."""
    comps: dict = {}
    for key, c in F.terms.items():
        index = tuple(i + 1 for i, e in enumerate(key[dim:2 * dim]) if e)
        comps.setdefault(index, {})[key[:dim]] = c
    return comps


def pairing_bracket(f: GradedPoly, g: GradedPoly,
                    pairs: Iterable[tuple[str, str]]) -> GradedPoly:
    """sum over pairs (u, w) of (right-deriv of f by u) * (left-deriv of g
    by w) - (right-deriv of f by w) * (left-deriv of g by u)."""
    out = GradedPoly.zero(f.space)
    for u, w in pairs:
        out = out + times(f.deriv_right(u), g.deriv_left(w))
        out = out - times(f.deriv_right(w), g.deriv_left(u))
    return out


def pairing(alpha: Multivector, u: Mapping[int, GradedPoly],
            v: Mapping[int, GradedPoly]) -> GradedPoly:
    """sum over components a^{ij} (u_i v_j - u_j v_i); u and v map
    coordinates to polynomials (gradients, one-form components), else zero."""
    zero = GradedPoly.zero(alpha.ring())
    total = zero
    for (i, j), a in alpha.components.items():
        total = total + times(a, times(u.get(i, zero), v.get(j, zero))
                              - times(u.get(j, zero), v.get(i, zero)))
    return total


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
    return GradedPoly(space, out)


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
    return GradedPoly(space, out)
