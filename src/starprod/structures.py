"""Named bivector fixtures used by the test suite and the command line.

canonical2d   constant symplectic structure on the plane
so3           linear structure whose bracket table is the rotation algebra
nonpoisson4d  constant block plus one linear entry; fails Jacobi

The first two are Poisson; nonpoisson4d is the standard counterexample with
Jacobi defect 1 on the coordinate triple (2, 3, 4).  All three have vanishing
row divergence d_i A^{ij}, which several identities in the test suite rely on.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from .errors import InputError
from .poisson import Multivector
from .superalg import GradedPoly, coeff_space


def _x(d: int, i: int) -> GradedPoly:
    return GradedPoly.generator(coeff_space(d), f"x{i}")


# name -> builder, in catalog order
_BUILDERS: dict[str, Callable[[], Multivector]] = {
    "canonical2d": lambda: Multivector(2, 2, {(1, 2): 1}),
    "so3": lambda: Multivector(3, 2, {(1, 2): _x(3, 3), (2, 3): _x(3, 1),
                                      (1, 3): -_x(3, 2)}),
    "nonpoisson4d": lambda: Multivector(4, 2, {(1, 2): 1, (3, 4): _x(4, 1)}),
}
FIXTURE_NAMES = tuple(_BUILDERS)


@lru_cache(maxsize=None)
def fixture(name: str) -> Multivector:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputError(f"unknown structure {name!r}; available: "
                         + ", ".join(FIXTURE_NAMES)) from None
    return builder()


def all_fixtures() -> dict[str, Multivector]:
    return {name: fixture(name) for name in FIXTURE_NAMES}
