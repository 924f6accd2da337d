"""Seeded random sample builders shared across the test modules.

Everything here produces exact Gaussian-rational data, never floats,
so equality assertions in the tests are always tolerance-zero.
"""

from fractions import Fraction
from itertools import combinations

from starprod import DifferentialForm, GradedPoly, Multivector, Scalar


def random_rational(rng, span=3):
    return Fraction(rng.randint(-span, span), rng.randint(1, 3))


def random_scalar(rng, span=3, complex_ok=True):
    re = random_rational(rng, span)
    im = Fraction(0)
    if complex_ok and rng.random() < 0.3:
        im = random_rational(rng, span)
    return Scalar(re, im)


def random_poly(rng, space, max_degree=3, max_terms=4, span=3):
    """Random polynomial in the even coordinates of `space`."""
    names = [n for n, p in zip(space.names, space.parities)
             if p == 0 and n != "hbar"]
    poly = GradedPoly.zero(space)
    for _ in range(rng.randint(1, max_terms)):
        term = GradedPoly.constant(space, random_scalar(rng, span))
        for _ in range(rng.randint(0, max_degree)):
            term = term * GradedPoly.generator(space, rng.choice(names))
        poly = poly + term
    return poly


def random_basepoint(rng, dim, span=3):
    return [random_rational(rng, span) for _ in range(dim)]


def random_multivector(rng, dim, degree, ring, max_coeff_degree=2):
    comps = {}
    for key in combinations(range(1, dim + 1), degree):
        if rng.random() < 0.7:
            comps[key] = random_poly(rng, ring, max_degree=max_coeff_degree,
                                     max_terms=2)
    return Multivector(dim, degree, comps)


def random_one_form(rng, dim, ring, max_coeff_degree=2):
    comps = {}
    for i in range(1, dim + 1):
        if rng.random() < 0.7:
            comps[(i,)] = random_poly(rng, ring, max_degree=max_coeff_degree,
                                      max_terms=2)
    return DifferentialForm(dim, 1, comps)


def random_constant_bivector(rng, dim, span=3):
    comps = {}
    for key in combinations(range(1, dim + 1), 2):
        if rng.random() < 0.8:
            comps[key] = random_rational(rng, span)
    return Multivector(dim, 2, comps)


def odd_permutation(rng, dim):
    """A random permutation of 1..dim with sign -1 (det -1), as a dict."""
    while True:
        images = list(range(1, dim + 1))
        rng.shuffle(images)
        if sum(1 for a, b in combinations(images, 2) if a > b) & 1:
            return dict(zip(range(1, dim + 1), images))


def relabel(field, perm):
    """The field moved along the coordinate relabelling x_i -> x_perm[i].

    Component I goes to the sorted image of perm on I, times the sign of
    that sorting; coefficients are renamed through substitute_even.  For
    multivectors and for forms alike, since the Jacobian is a permutation.
    """
    ring = field.ring()
    rename = {f"x{i}": GradedPoly.generator(ring, f"x{j}")
              for i, j in perm.items()}
    out = {}
    for key, poly in field.components.items():
        image = [perm[i] for i in key]
        moved = poly.substitute_even(rename)
        swaps = sum(1 for a, b in combinations(image, 2) if a > b)
        out[tuple(sorted(image))] = -moved if swaps & 1 else moved
    return type(field)(field.dim, field.degree, out)


def record_scans(monkeypatch):
    """Every derivative scan (GradedPoly._strike) made from here on, as
    (polynomial, generator name, crossed fields).  The list keeps each
    scanned polynomial alive, so two entries with one id are one object."""
    scans = []
    strike = GradedPoly._strike

    def recording(self, k, crossed):
        scans.append((self, self.space.names[k], crossed))
        return strike(self, k, crossed)

    monkeypatch.setattr(GradedPoly, "_strike", recording)
    return scans


def repeated_scans(scans):
    """The scans that repeat an earlier one: same object, generator and
    crossed fields."""
    seen, repeats = set(), []
    for p, name, crossed in scans:
        key = (id(p), name, crossed)
        if key in seen:
            repeats.append((p, name, crossed))
        seen.add(key)
    return repeats
