"""Shared reduction engine for the order-valued and degree-valued settings.

Both settings cancel the extremal monomial of a working polynomial against
products of basis elements whenever its value (order, respectively degree)
lies in the monoid generated by the basis values, recording the subtracted
terms as an expression.  They differ in which end of the polynomial leads,
in which direction values move, and in the truncation rules that keep the
order-valued division finite.

Reduction modes
---------------
``algorithmic``
    The basis-building procedure: stop at the first value outside the
    monoid and hand back the whole residual (it becomes the next basis
    element).  With gcd 1, residuals of value >= conductor are dropped to
    zero.  With gcd > 1 the membership loop is cut off by an escape bound
    so that divergent inputs surface as adjoined elements instead of
    hanging.
``expression``
    The division of the remainder proposition: terms with value outside
    the monoid migrate into the remainder one at a time and the division
    continues.  No conductor shortcut; a value beyond ``bound`` abandons
    the residual with ``complete=False``.
``reduced``
    Like ``expression`` but with the gcd-1 conductor shortcut, which makes
    tail reduction exact and finite: whatever is dropped has value past
    the conductor and already belongs to the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .fields import check_same_field
from .numsgp import NumSgp, least_factorization_over, presentation_for_generators
from .poly import Poly


class LimitExceeded(RuntimeError):
    """Basis computation hit a growth guard (the closure is likely too big)."""


@dataclass(frozen=True)
class BasisElement:
    poly: Poly
    value: int


@dataclass
class ReductionOutcome:
    remainder: Poly
    expression: list[tuple[object, tuple[int, ...]]]
    complete: bool
    consumed_conductor_shortcut: bool = False


class ReductionContext:
    """Basis elements plus the caches reduction steps share."""

    def __init__(self, elements: list[BasisElement], setting: str):
        if not elements:
            raise ValueError("basis must be nonempty")
        if setting not in ("local", "global"):
            raise ValueError(f"unknown setting {setting!r}")
        self.setting = setting
        self.elements = list(elements)
        self.field = elements[0].poly.field
        for e in elements:
            check_same_field(self.field, e.poly.field)
            if e.poly.is_zero:
                raise ValueError("zero basis element")
        self.values = tuple(e.value for e in elements)
        self.monoid = NumSgp(self.values)
        # extremal coefficient of each element in this setting's sense
        if setting == "local":
            self.unit_coeffs = tuple(e.poly.trailing_coeff for e in elements)
        else:
            self.unit_coeffs = tuple(e.poly.leading_coeff for e in elements)
        # positions ordered by (value, adjoin time), most expensive first;
        # factorisations are chosen to spend high-value generators last
        self._prio_desc = sorted(range(len(elements)),
                                 key=lambda i: (self.values[i], i), reverse=True)
        self._theta_cache: dict[int, tuple[int, ...]] = {}
        self._power_cache: dict[tuple[int, int], Poly] = {}

    def value_of(self, p: Poly):
        return p.order if self.setting == "local" else p.degree

    def lead_of(self, p: Poly):
        if self.setting == "local":
            return p.support[0], p.trailing_coeff
        return p.support[-1], p.leading_coeff

    def pick_factorization(self, n: int) -> tuple[int, ...]:
        """The factorisation of n (a member of the value monoid) that is
        lex-least in ``_prio_desc`` order, so it spends high-value
        generators last: the greedy least factorisation over the values
        in that order, mapped back to index order."""
        if n not in self._theta_cache:
            self._theta_cache[n] = least_factorization_over(
                n, self.values, self._prio_desc)
        return self._theta_cache[n]

    def element_power(self, i: int, k: int) -> Poly:
        tag = (i, k)
        if tag not in self._power_cache:
            self._power_cache[tag] = self.elements[i].poly ** k
        return self._power_cache[tag]

    def product(self, theta: tuple[int, ...]) -> Poly:
        out = None
        for i, k in enumerate(theta):
            if k:
                p = self.element_power(i, k)
                out = p if out is None else out * p
        return Poly.constant(1, self.field) if out is None else out

    def unit_product(self, theta: tuple[int, ...]):
        f = self.field
        out = f.one
        for i, k in enumerate(theta):
            if k:
                out = f.mul(out, f.pow(self.unit_coeffs[i], k))
        return out

    def default_bound(self) -> int:
        maxdeg = max(int(e.poly.degree) for e in self.elements)
        return self.monoid.scaled_conductor + maxdeg

    def escape_bound(self, f: Poly) -> int:
        top = max(int(f.degree), max(int(e.poly.degree) for e in self.elements))
        return self.monoid.scaled_conductor + 2 * top + 1


def reduce_poly(f: Poly, ctx: ReductionContext, mode: str,
                bound: int | None = None) -> ReductionOutcome:
    """Divide f by the basis of ``ctx`` according to ``mode``."""
    if mode not in ("algorithmic", "expression", "reduced"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    check_same_field(f.field, ctx.field)
    field = ctx.field
    monoid = ctx.monoid
    local = ctx.setting == "local"
    # the conductor shortcut is Prop-2.5 territory: order >= conductor puts an
    # element in the algebra; there is no degree analogue, so global runs
    # never drop residuals
    shortcut_ok = local and monoid.is_numerical
    c = monoid.scaled_conductor
    if mode == "expression" and bound is None:
        bound = ctx.default_bound()
        if not local and not f.is_zero:
            bound = max(bound, int(f.degree))
    escape = ctx.escape_bound(f) if (local and not f.is_zero) else None

    expression: list[tuple[object, tuple[int, ...]]] = []
    collected: dict[int, object] = {}
    work = f
    complete = True
    used_shortcut = False

    def subtract(p: int) -> Poly:
        theta = ctx.pick_factorization(p)
        _, lead_c = ctx.lead_of(work)
        coeff = field.div(lead_c, ctx.unit_product(theta))
        expression.append((coeff, theta))
        return work - ctx.product(theta).scale(coeff)

    def strip_lead() -> Poly:
        exp, lead_c = ctx.lead_of(work)
        collected[exp] = lead_c
        return work - Poly(field, {exp: lead_c})

    while not work.is_zero:
        p = ctx.value_of(work)
        if mode == "algorithmic":
            if shortcut_ok and p >= c:
                used_shortcut, complete = True, False
                work = Poly.zero(field)
                break
            if not monoid.contains(p):
                break  # residual handed back whole: it is the next element
            if local and not shortcut_ok and p >= escape:
                break  # membership loop cut off: adjoin "just in case"
            work = subtract(p)
        elif mode == "reduced":
            if shortcut_ok and p >= c:
                used_shortcut, complete = True, False
                work = Poly.zero(field)
                break
            if local and not shortcut_ok and p >= escape:
                complete = False
                break  # residual kept below, to preserve the element exactly
            work = subtract(p) if monoid.contains(p) else strip_lead()
        else:  # expression
            if p > bound:
                complete = False
                break
            work = subtract(p) if monoid.contains(p) else strip_lead()

    if mode == "algorithmic":
        remainder = work
    else:
        remainder = Poly(field, collected)
        if mode == "reduced" and not work.is_zero:
            remainder = remainder + work
    return ReductionOutcome(remainder, expression, complete, used_shortcut)


@dataclass
class ValueBasis:
    """A validated basis: elements whose values generate the value monoid."""

    setting: str
    elements: list[BasisElement]
    semigroup: NumSgp
    presentation: object
    n_input: int

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.elements)

    @property
    def field(self):
        return self.elements[0].poly.field

    def context(self) -> ReductionContext:
        return ReductionContext(self.elements, self.setting)


DEFAULT_MAX_ELEMENTS = 64


def default_limits(gens: list[Poly], setting: str) -> dict:
    vals = [g.order if setting == "local" else g.degree for g in gens]
    top = max(int(v) for v in vals)
    return {"max_elements": DEFAULT_MAX_ELEMENTS, "max_value": 4 * top * top}


def relation_element(ctx: ReductionContext, alpha, beta) -> Poly:
    """S = f^alpha - kappa f^beta, with kappa fixing the unit coefficients.

    For a monic basis kappa is 1 and this is the plain binomial difference;
    in general kappa makes the extremal monomials cancel exactly, so the
    value of S is strictly past the relation's value.
    """
    f = ctx.field
    kappa = f.div(ctx.unit_product(alpha), ctx.unit_product(beta))
    return ctx.product(alpha) - ctx.product(beta).scale(kappa)


def build_basis(gens: list[Poly], setting: str, limits: dict | None = None) -> ValueBasis:
    """The adjoin-and-restart loop shared by both settings."""
    if not gens:
        raise ValueError("at least one generator is required")
    field = gens[0].field
    prepared: list[Poly] = []
    for g in gens:
        check_same_field(field, g.field)
        if setting == "local":
            g = g - Poly.constant(g.coeff(0), field)
        if g.is_zero or g.degree == 0:
            raise ValueError("zero or constant generator")
        monic = g.monic_trailing()[0] if setting == "local" else g.monic_leading()[0]
        prepared.append(monic)

    lim = default_limits(prepared, setting)
    if limits:
        lim.update(limits)

    elements = [BasisElement(p, int(p.order if setting == "local" else p.degree))
                for p in prepared]
    while True:
        ctx = ReductionContext(elements, setting)
        pres = presentation_for_generators(ctx.values)
        adjoined = False
        for alpha, beta, _value in pres.pairs:
            s_poly = relation_element(ctx, alpha, beta)
            if s_poly.is_zero:
                continue
            out = reduce_poly(s_poly, ctx, "algorithmic")
            if out.remainder.is_zero:
                continue
            monic = (out.remainder.monic_trailing()[0] if setting == "local"
                     else out.remainder.monic_leading()[0])
            value = int(monic.order if setting == "local" else monic.degree)
            if value > lim["max_value"]:
                raise LimitExceeded(
                    f"adjoined value {value} exceeds max_value={lim['max_value']}")
            if len(elements) + 1 > lim["max_elements"]:
                raise LimitExceeded(
                    f"basis grew past max_elements={lim['max_elements']}")
            elements.append(BasisElement(monic, value))
            adjoined = True
            break
        if not adjoined:
            return ValueBasis(setting, elements, ctx.monoid, pres,
                              n_input=len(prepared))


def reduced_basis(basis: ValueBasis) -> ValueBasis:
    """Replace every tail by its division remainder, supported on gaps.

    The extremal monomial (trailing in the local setting, leading in the
    global one) stays; reduction keeps every value, so the semigroup and
    presentation carry over unchanged.
    """
    ctx = basis.context()
    new_elements = []
    for elem in basis.elements:
        head = (elem.poly.trailing_monomial() if basis.setting == "local"
                else elem.poly.leading_monomial())
        tail = elem.poly - head
        if tail.is_zero:
            new_elements.append(elem)
            continue
        out = reduce_poly(tail, ctx, "reduced")
        new_elements.append(BasisElement(head + out.remainder, elem.value))
    return replace(basis, elements=new_elements)

