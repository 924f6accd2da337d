"""starprod: exact deformation products and graded bracket calculus.

Everything is computed over Gaussian rationals with hbar as a truncated
formal variable; there is no floating point anywhere.  The layers:

  superalg    graded-commutative polynomial engine (xi, eta, hbar)
  poisson     multivector fields, symbol map, odd bracket, bracket route
  wick        contraction-pattern deformation product, the order weight
              calibrated once from a probe, constant-coefficient reference
              product, associator
  koszul      bracket of one-forms, geometric and diagram routes
  bv          field/antifield bracket, odd laplacian, axiom checks, qme
  moduli      planar-tree strata of the associativity complex
  cli         "starprod" command line
"""

from .errors import (CalibrationError, InputError, InternalError,
                     ResourceLimitError, StarprodError)
from .scalars import Scalar, format_scalar, parse_scalar, scalar_to_expr
from .superalg import (DEFAULT_HBAR_ORDER, GradedPoly, GradedSpace,
                       HbarSeries, coeff_space, deriv_even, deriv_odd_left,
                       deriv_odd_right, mul, pairing_bracket, super_space,
                       taylor_shift)
from .expr import parse_expr, parse_poly, poly_to_expr, to_poly
from .poisson import (ComponentField, Multivector, antibracket, is_poisson,
                      jacobi_defect, jacobi_witness, poisson_bracket,
                      poisson_differential, schouten, symbol, unsymbol, wedge)
from .wick import (associator, associator_poly, calibrate, moyal, moyal_poly,
                   star, star_poly, star_series)
from .koszul import (DifferentialForm, anchor, bullet, bullet_diagrams,
                     exact_form, exterior_derivative, koszul_bracket,
                     lie_derivative, one_form_insertion, vector_insertion)
from .bv import (AxiomReport, BVSpace, QmeResult, bv_bracket, bv_laplacian,
                 check_bv_axioms, omega, qme_residual)
from .moduli import (FacetComposition, Stratum, dim, enumerate_strata,
                     facet_compositions)
from .structures import FIXTURE_NAMES, all_fixtures, fixture

__version__ = "0.1.0"

__all__ = [
    "AxiomReport", "BVSpace", "CalibrationError",
    "ComponentField", "DEFAULT_HBAR_ORDER", "DifferentialForm",
    "FIXTURE_NAMES", "FacetComposition", "GradedPoly", "GradedSpace",
    "HbarSeries", "InputError", "InternalError",
    "Multivector", "QmeResult", "ResourceLimitError", "Scalar",
    "StarprodError", "Stratum", "all_fixtures", "anchor", "antibracket",
    "associator", "associator_poly", "bullet", "bullet_diagrams",
    "bv_bracket", "bv_laplacian", "calibrate", "check_bv_axioms",
    "coeff_space", "deriv_even", "deriv_odd_left", "deriv_odd_right", "dim",
    "enumerate_strata", "exact_form", "exterior_derivative",
    "facet_compositions", "fixture", "format_scalar", "is_poisson",
    "jacobi_defect", "jacobi_witness", "koszul_bracket", "lie_derivative",
    "moyal", "moyal_poly", "mul", "omega", "one_form_insertion",
    "pairing_bracket", "parse_expr", "parse_poly", "parse_scalar",
    "poisson_bracket", "poisson_differential", "poly_to_expr", "qme_residual",
    "scalar_to_expr", "schouten", "star", "star_poly", "star_series",
    "super_space", "symbol", "taylor_shift", "to_poly", "unsymbol",
    "vector_insertion", "wedge",
]
