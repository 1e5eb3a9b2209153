"""Flat deformation data: toric binomials, exact relators, u-homogenisation.

Every series f = sum c_i x^i of order p lifts to H_f = sum c_i u^{i-p} x^i,
homogeneous for the weight b - a on (u, x); polynomials of degree p lift
with u^{p-i} instead, so both lifts are u^{|i-p|} with p the value of f.
Feeding the reduction expressions of the relation elements through the
same lift yields, for each presentation pair, three relators in the X_i:

* ``toric``        F_i = X^alpha - kappa X^beta   (kappa fixes unit coefficients)
* ``exact``        G_i = F_i - sum c_theta X^theta  (vanishes on the generators)
* ``homogenized``  H_i = F_i - sum u^{|D_theta - p_i|} c_theta X^theta

so H_i at u=1 is G_i, at u=0 is F_i, and the quotient by all H_i is the
flat family joining the curve to its monomial degeneration.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .mpoly import MPoly
from .numsgp import Presentation, ci_relations, presentation_for_generators
from .planebranch import gamma_at_infinity, plane_local
from .poly import Poly
from .reduction import BasisElement, ReductionContext, ValueBasis, reduce_poly, relation_element


@dataclass(frozen=True)
class GradedWeights:
    """Values of the generators plus the setting's homogenisation rule."""

    values: tuple[int, ...]
    setting: str  # local | global

    def plain(self, exps: tuple[int, ...]) -> int:
        """O/D of a monomial in the X_i alone."""
        return sum(t * v for t, v in zip(exps, self.values))

    def lifted(self, u_exp: int, exps: tuple[int, ...]) -> int:
        """O_h/D_h of u^a X^theta: -a + O(theta) locally, a + D(theta) globally."""
        base = self.plain(exps)
        return base - u_exp if self.setting == "local" else base + u_exp

    def homogeneous_value(self, relator: MPoly) -> int:
        """The single O_h/D_h value of all terms; raises if mixed."""
        vals = {self.lifted(e[0], e[1:]) for e in relator.coeffs}
        if len(vals) != 1:
            raise ValueError(f"relator is not homogeneous: values {sorted(vals)}")
        return vals.pop()


@dataclass(frozen=True)
class Relator:
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    value: int
    toric: MPoly
    exact: MPoly
    homogenized: MPoly
    complete: bool


@dataclass
class DeformationSet:
    setting: str
    variables: tuple[str, ...]  # ("u", "X0", ..., "X{s-1}")
    weights: GradedWeights
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
    p = int(f.order if setting == "local" else f.degree)
    return MPoly(("u", "x"), f.field,
                 {(abs(i - p), i): c for i, c in f.coeffs.items()})


def deform(elements: list[Poly], setting: str,
           presentation: Presentation | None = None,
           bound: int | None = None) -> DeformationSet:
    """Deformation data for generators whose values generate the semigroup.

    The elements need not be monic: unit coefficients are absorbed into
    the toric binomials, which is exactly what rescaling the ambient
    variables does.  Expressions that do not close up within ``bound``
    leave their relator flagged incomplete (with a warning), since the
    order-valued division may genuinely be an infinite series.
    """
    if setting not in ("local", "global"):
        raise ValueError(f"unknown setting {setting!r}")
    basis = [BasisElement(p, int(p.order if setting == "local" else p.degree))
             for p in elements]
    ctx = ReductionContext(basis, setting)
    if presentation is None:
        presentation = presentation_for_generators(ctx.values)
    weights = GradedWeights(ctx.values, setting)
    s = len(elements)
    variables = ("u",) + tuple(f"X{i}" for i in range(s))
    field = ctx.field

    relators = []
    for alpha, beta, value in presentation.pairs:
        s_poly = relation_element(ctx, alpha, beta)
        out = reduce_poly(s_poly, ctx, "expression", bound=bound)
        if not out.remainder.is_zero:
            raise ValueError(
                f"relation {alpha} ~ {beta} does not reduce to zero: "
                "the given elements are not a basis")
        kappa = field.div(ctx.unit_product(alpha), ctx.unit_product(beta))
        toric = MPoly(variables, field, {(0,) + tuple(alpha): field.one,
                                         (0,) + tuple(beta): field.neg(kappa)})
        # one accumulation per relator; MPoly drops the zeros once
        exact = dict(toric.coeffs)
        homog = dict(toric.coeffs)
        for coeff, theta in out.expression:
            u_exp = abs(weights.plain(theta) - value)
            for acc, key in ((exact, (0,) + theta), (homog, (u_exp,) + theta)):
                acc[key] = field.sub(acc.get(key, field.zero), coeff)
        exact = MPoly(variables, field, exact)
        homog = MPoly(variables, field, homog)
        if not out.complete:
            warnings.warn(
                f"expression for relation at value {value} was truncated; "
                "its relators are inexact", stacklevel=2)
        relators.append(Relator(alpha, beta, value, toric, exact, homog,
                                out.complete))
    relators.sort(key=lambda r: (r.value, r.alpha))
    return DeformationSet(setting, variables, weights, list(elements),
                          [homogenize(p, setting) for p in elements], relators)


def deform_from_basis(basis: ValueBasis, bound: int | None = None) -> DeformationSet:
    """Deformation of a computed basis, over its own minimal presentation."""
    return deform([e.poly for e in basis.elements], basis.setting,
                  presentation=basis.presentation, bound=bound)


def _sign_normalized(p: Poly, setting: str) -> Poly:
    """Flip the sign so the extremal coefficient is positive (rationals)."""
    if p.field.char != 0:
        return p
    c = p.trailing_coeff if setting == "local" else p.leading_coeff
    return -p if c < 0 else p


def plane_deformation(f: Poly, g: Poly, setting: str,
                      bound: int | None = None) -> DeformationSet:
    """Deformation of K[[f, g]] (local) or K[f, g] (global) through the
    approximate-root basis.

    Uses the complete-intersection presentation of the free arrangement
    (r_0, ..., r_h), with the raw g_k = G_k(f, g) as generators, so the
    relators match the classical displays for plane branches.
    """
    result = (plane_local if setting == "local" else gamma_at_infinity)(f, g)
    elements = result.generators + [
        _sign_normalized(p, setting) for p in result.evaluated[1:]]
    return deform(elements, setting, presentation=ci_relations(result.sequence.r),
                  bound=bound)
