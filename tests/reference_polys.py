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

`tuple_products` is the multiply-accumulate kernel as it was before each
monomial was packed into one int: numerator rows keyed by exponent tuples,
a product's key built field by field, odd generators and the hbar
exponent read by index.
"""

import operator
from itertools import product
from typing import Iterable, Mapping, Sequence

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


def _odd_mask(key: tuple[int, ...], odd: tuple[int, ...]) -> int:
    """Bit t set when the t-th odd generator occurs in the monomial."""
    mask = 0
    for t, i in enumerate(odd):
        if key[i]:
            mask |= 1 << t
    return mask


def _crossings(ma: int, mb: int) -> int:
    """Parity of the pairs (i of ma, j of mb) with i after j: the swaps of
    odd generators that bring the monomial a b into canonical order."""
    n = 0
    while mb:
        low = mb & -mb
        n += (ma & -(low << 1)).bit_count()
        mb ^= low
    return n & 1


def _groups(rows: dict, odd: tuple[int, ...], hidx) -> tuple[bool, dict]:
    """(real, groups): real says every imaginary part is zero, and groups
    maps (odd mask, hbar exponent) to the (key, a, b) of those rows."""
    real, groups = True, {}
    for key, (a, b) in rows.items():
        group = (_odd_mask(key, odd) if odd else 0,
                 key[hidx] if hidx is not None else 0)
        real = real and not b
        groups.setdefault(group, []).append((key, a, b))
    return real, groups


def tuple_products(space, pairs: Sequence[tuple[int, dict, dict]]) -> dict:
    """The rows of the sum of scale * a * b over (scale, a, b), a and b
    numerator rows keyed by exponent tuples; cancelled rows are dropped."""
    odd = space.odd_indices
    hidx = space.hbar_index
    horder = space.hbar_order
    add = operator.add
    out: dict = {}
    if len(pairs) == 1 and min(len(pairs[0][1]), len(pairs[0][2])) == 1:
        s, a, b = pairs[0]
        for (ka, (x, y)), (kb, (u, v)) in product(a.items(), b.items()):
            key = tuple(map(add, ka, kb))
            if hidx is not None and key[hidx] > horder:
                continue
            f = s
            if odd:
                ma, mb = _odd_mask(ka, odd), _odd_mask(kb, odd)
                if ma & mb:
                    continue
                if _crossings(ma, mb):
                    f = -f
            if f != 1:
                x, y = x * f, y * f
            out[key] = (x * u - y * v, x * v + y * u)
        return out
    re: dict = {}
    im: dict = {}
    for s, a, b in pairs:
        real_a, groups_a = _groups(a, odd, hidx)
        real_b, groups_b = _groups(b, odd, hidx)
        for (ma, ha), terms_a in groups_a.items():
            for (mb, hb), terms_b in groups_b.items():
                if ma & mb or (hidx is not None and ha + hb > horder):
                    continue
                f = -s if odd and _crossings(ma, mb) else s
                scaled = terms_a if f == 1 else \
                    [(k, x * f, y * f) for k, x, y in terms_a]
                for ka, x, y in scaled:
                    for kb, u, v in terms_b:
                        key = tuple(map(add, ka, kb))
                        re[key] = re.get(key, 0) + (x * u - y * v)
                        if not (real_a and real_b):
                            im[key] = im.get(key, 0) + (x * v + y * u)
    for key, x in re.items():
        y = im.get(key, 0)
        if x or y:
            out[key] = (x, y)
    return out


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
