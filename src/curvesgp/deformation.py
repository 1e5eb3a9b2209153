"""Flat deformation data: toric binomials, exact relators, u-homogenisation.

Every series f = sum c_i x^i of order p lifts to H_f = sum c_i u^{i-p} x^i,
homogeneous for the weight b - a on (u, x); polynomials of degree p lift
with u^{p-i} instead, so both lifts are u^{|i-p|} with p the value of f.
Feeding the reduction expressions of the relation elements through the
same lift yields, for each presentation pair, one stored relator in the
u and the X_i,

* ``homogenized``  H_i = X^alpha - kappa X^beta - sum u^{|D_theta - p_i|} c_theta X^theta

(kappa from the relation step), and the quotient by all H_i is the flat
family joining the curve to its monomial degeneration.  Its two ends are
read off H_i:

* ``toric``  F_i = H_i(u = 0) = X^alpha - kappa X^beta, the monomial curve's binomial
* ``exact``  G_i = H_i(u = 1), which vanishes on the generators
"""

from __future__ import annotations

from typing import NamedTuple

from .mpoly import MPoly
from .numsgp import Presentation, ci_relations
from .planebranch import gamma_at_infinity, plane_local
from .poly import Poly
from .reduction import (BasisElement, ReductionContext, ValueBasis, reduce_poly,
                        relation_element, value_of)


class Relator(NamedTuple):
    """The relator H of one presentation pair alpha ~ beta of value p.

    Only H is stored; F and G are its views at u = 0 and u = 1.  Both are
    exact: the steps of one division have distinct leads, so distinct
    theta, none of value p and so none equal to alpha or beta; and each
    sits at u^{|D_theta - p|}, an exponent >= 1.  So H's terms at u^0 are
    the two of F, and setting u = 1 merges no two terms.
    """

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    value: int
    homogenized: MPoly
    complete: bool

    @property
    def toric(self) -> MPoly:
        return self.homogenized.coeff_in("u", 0)

    @property
    def exact(self) -> MPoly:
        h = self.homogenized
        return MPoly(h.vars, h.field, {(0,) + e[1:]: c for e, c in h.coeffs.items()})


class DeformationSet(NamedTuple):
    """The relators of a deformation, with the generators they relate.

    Each term u^a X^theta of a homogenised relator has the relator's value
    as -a + sum theta_i v_i locally and a + sum theta_i v_i globally, v_i
    the value of generator i.
    """

    setting: str
    variables: tuple[str, ...]  # ("u", "X0", ..., "X{s-1}")
    generators: list[Poly]
    homogenized_generators: list[MPoly]  # in (u, x)
    relators: list[Relator]

    @property
    def toric(self) -> list[MPoly]:
        return [r.toric for r in self.relators]

    @property
    def exact(self) -> list[MPoly]:
        return [r.exact for r in self.relators]

    @property
    def homogenized(self) -> list[MPoly]:
        return [r.homogenized for r in self.relators]

    @property
    def complete(self) -> list[bool]:
        return [r.complete for r in self.relators]


def homogenize(f: Poly, setting: str) -> MPoly:
    """H_f(u, x) = sum c_i u^{|i-p|} x^i, for p = o(f) in the local setting
    and p = d(f) in the global one."""
    if f.is_zero:
        raise ValueError("cannot homogenise the zero polynomial")
    p = value_of(f, setting)
    return MPoly(("u", "x"), f.field,
                 {(abs(i - p), i): c for i, c in f.coeffs.items()})


def deform(basis: ReductionContext, presentation: Presentation) -> DeformationSet:
    """Deformation data for basis elements whose values generate the
    semigroup, over ``presentation`` of their values.

    Each relation element is divided by ``basis`` itself, so a
    ``ValueBasis`` lends the powers cached while it was built.  The
    elements need not be monic: unit coefficients are absorbed into the
    toric binomials, which is exactly what rescaling the ambient variables
    does.  Each binomial's kappa is the one that
    ``reduction.relation_element`` read off the leads its step cancelled.
    Expressions that do not close up within the default bound of the
    expression division (a local one; a degree division always ends)
    leave their relator flagged incomplete (``Relator.complete`` false),
    since the order-valued division may genuinely be an infinite
    series.  A term c X^theta of an expression
    is lifted with u^{|D - p|}, D = sum theta_i v_i weighed by the
    generators' values ``basis.values`` and p the relation's value.  Each
    relator is built as H alone, one dict and one ``MPoly``; F and G are
    its views (:class:`Relator`).
    """
    setting = basis.setting
    elements = [e.poly for e in basis.elements]
    variables = ("u",) + tuple(f"X{i}" for i in range(len(elements)))
    field = basis.field

    relators = []
    for alpha, beta, value in presentation.pairs:
        s_poly, kappa = relation_element(basis, alpha, beta)
        out = reduce_poly(s_poly, basis, "expression")
        if not out.remainder.is_zero:
            raise ValueError(
                f"relation {alpha} ~ {beta} does not reduce to zero: "
                "the given elements are not a basis")
        # every key is distinct (see Relator), so nothing accumulates
        homog = {(0,) + tuple(alpha): 1, (0,) + tuple(beta): -kappa}
        for coeff, theta in out.expression:
            u_exp = abs(sum(t * v for t, v in zip(theta, basis.values)) - value)
            homog[(u_exp,) + theta] = -coeff
        relators.append(Relator(alpha, beta, value,
                                MPoly(variables, field, homog), out.complete))
    relators.sort(key=lambda r: (r.value, r.alpha))
    return DeformationSet(setting, variables, elements,
                          [homogenize(p, setting) for p in elements], relators)


def deform_from_basis(basis: ValueBasis) -> DeformationSet:
    """Deformation of a computed basis, over its own minimal presentation."""
    return deform(basis, basis.presentation)


def _sign_normalized(p: Poly, setting: str) -> Poly:
    """Flip the sign so the extremal coefficient is positive; the plane
    pipelines run over the rationals only."""
    return -p if p.coeffs[value_of(p, setting)] < 0 else p


def plane_deformation(f: Poly, g: Poly, setting: str) -> DeformationSet:
    """Deformation of K[[f, g]] (local) or K[f, g] (global) through the
    approximate-root basis.

    Uses the complete-intersection presentation of the free arrangement
    (r_0, ..., r_h), with the raw g_k = G_k(f, g) as generators, so the
    relators match the classical displays for plane branches.
    """
    result = (plane_local if setting == "local" else gamma_at_infinity)(f, g)
    elements = result.generators + [
        _sign_normalized(p, setting) for p in result.evaluated[1:]]
    # raw values, not basis_element: the unit coefficients go into kappa
    basis = ReductionContext(
        [BasisElement(p, value_of(p, setting)) for p in elements], setting)
    return deform(basis, ci_relations(result.sequence.r))
