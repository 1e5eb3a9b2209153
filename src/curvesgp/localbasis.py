"""Bases of subalgebras of the power series ring, indexed by orders.

``local_basis`` grows a generating set until the orders of its elements
generate the whole semigroup of orders of the algebra: whenever some
relation element fails to divide to zero, its monic normalisation joins
the basis and the loop restarts.  ``reduced_basis`` then pushes every
tail onto the gaps of the semigroup, which makes the result canonical
(there is exactly one minimal reduced basis).
"""

from __future__ import annotations

from .numsgp import NumSgp, presentation_for_generators
from .poly import Poly
from .reduction import (
    BasisElement,
    ReductionContext,
    ReductionOutcome,
    ValueBasis,
    build_basis,
    reduce_poly,
    reduced_basis,
)


def reduce_order(f: Poly, basis: list[BasisElement], mode: str = "algorithmic",
                 bound: int | None = None) -> ReductionOutcome:
    """Order-division of f by a basis.

    ``algorithmic`` follows the conductor-truncated procedure used while
    building bases; ``expression`` performs the full division, recording
    f = sum c_theta f^theta + remainder until the running order passes
    ``bound``.
    """
    ctx = ReductionContext(list(basis), "local")
    return reduce_poly(f, ctx, mode, bound)


def local_basis(gens: list[Poly]) -> ValueBasis:
    """Basis of K[[f_1, ..., f_s]] together with its semigroup of orders.

    Raises :class:`~curvesgp.reduction.LimitExceeded` when the growth
    guards trip, which is the expected outcome when the integral closure
    of the algebra is smaller than the full power series ring.
    """
    return build_basis(gens, "local")


def minimal_basis(basis: ValueBasis) -> ValueBasis:
    """Drop elements whose value the others already generate, then reduce."""
    minimal_values = set(basis.semigroup.minimal_generators())
    kept: list[BasisElement] = []
    seen: set[int] = set()
    for elem in basis.elements:
        if elem.value in minimal_values and elem.value not in seen:
            kept.append(elem)
            seen.add(elem.value)
    values = tuple(e.value for e in kept)
    trimmed = ValueBasis(basis.setting, kept, NumSgp(values),
                         presentation_for_generators(values),
                         n_input=min(basis.n_input, len(kept)))
    return reduced_basis(trimmed)
