"""curvesgp: semigroups of values of curve subalgebras.

Given generators f_1, ..., f_s of a subalgebra of K[[x]] (or K[x]), the
package computes the semigroup of orders (degrees) of the algebra, a
reduced basis realising it, binomial presentations of the associated
monomial curve, and the explicit flat deformation of the curve onto it.
Two-generator inputs get the sharper plane-branch treatment through
resultants and approximate roots.
"""

from .fields import GF, QQ, MixedFieldError, PrimeField, Rationals
from .poly import Poly
from .mpoly import MPoly, curve_resultant, eval_bipoly, resultant_eliminate
from .series import (
    SeriesApprox,
    compose_series,
    inverse_series,
    nth_root_series,
    reverse_series,
)
from .numsgp import (
    NumSgp,
    Presentation,
    RelationPair,
    ci_relations,
    is_free,
    presentation_for_generators,
)
from .reduction import (
    BasisElement,
    LimitExceeded,
    ReductionContext,
    ReductionOutcome,
    ValueBasis,
    global_basis,
    local_basis,
    minimal_basis,
    reduce_poly,
    reduced_basis,
    value_of,
)
from .planebranch import (
    CharSequence,
    NotOnePlaceAtInfinity,
    approximate_root,
    char_sequence_from_support,
    delta_check,
    delta_sequence,
    gamma_at_infinity,
    gamma_curve_infinity,
    gamma_local_pair,
    plane_local,
    reparametrize,
)
from .deformation import (
    DeformationSet,
    deform,
    deform_from_basis,
    homogenize,
    plane_deformation,
)
from .parsing import ParseError, parse_mpoly, parse_poly, parse_poly_list

__version__ = "0.1.0"
