"""Bases of polynomial subalgebras, indexed by degrees.

The degree-valued twin of :mod:`curvesgp.localbasis`: leading monomials
play the role of trailing ones and every division terminates on its own
because degrees strictly decrease (constants are always reducible, the
ground field being part of the algebra).
"""

from __future__ import annotations

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


def reduce_degree(f: Poly, basis: list[BasisElement],
                  mode: str = "algorithmic") -> ReductionOutcome:
    """Degree-division of f by a basis; expressions are always complete."""
    ctx = ReductionContext(list(basis), "global")
    return reduce_poly(f, ctx, mode)


def global_basis(gens: list[Poly]) -> ValueBasis:
    """Basis of K[f_1, ..., f_s] together with its semigroup of degrees."""
    return build_basis(gens, "global")


# tails moved onto the gaps of the degree semigroup; the shared
# reduced_basis reads the setting off the basis
reduced_basis_global = reduced_basis
