"""Every integer argument is read by errors.require_int: bools, values below
the bound and non-ints are refused alike, with InputError."""

import pytest

from starprod import (BVSpace, GradedPoly, GradedSpace, InputError,
                      Multivector, coeff_space, dim, facet_compositions,
                      fixture, star_poly, star_series, stratum_count,
                      super_space)


def _x(i):
    return GradedPoly.generator(coeff_space(3), f"x{i}")


# each site of a check, called with the value under test; the spaces are
# built with a valid argument first, so a bool cannot hit the cached space
# of 0 or 1
SITES = {
    "GradedSpace.hbar_order": lambda v: GradedSpace(("hbar",), (0,), v),
    "super_space.d": lambda v: (super_space(1), super_space(v)),
    "coeff_space.d": lambda v: (coeff_space(1), coeff_space(v)),
    "GradedPoly.__pow__.n": lambda v: _x(1) ** v,
    "star.order": lambda v: star_poly(fixture("so3"), _x(1), _x(2), v),
    "star.max_work": lambda v: star_poly(fixture("so3"), _x(1), _x(2), 1, v),
    "star_series.key": lambda v: star_series(fixture("so3"), {v: _x(1)},
                                             {0: _x(2)}, 1),
    "ComponentField.dim": lambda v: Multivector(v, 2),
    "ComponentField.degree": lambda v: Multivector(2, v),
    "ComponentField.index": lambda v: Multivector(2, 1, {(v,): 1}),
    "BVSpace.parity": lambda v: BVSpace.build([("v", v)]),
    "moduli.dim": dim,
    "moduli.stratum_count.codim": lambda v: stratum_count(5, v),
    "moduli.facet_compositions": facet_compositions,
}


@pytest.mark.parametrize("value", [True, -1, 1.5, "1"],
                         ids=["bool", "negative", "float", "str"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_integer_sites_refuse_bools_negatives_and_non_ints(site, value):
    with pytest.raises(InputError, match="must be an integer"):
        SITES[site](value)
