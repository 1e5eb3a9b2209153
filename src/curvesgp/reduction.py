"""Shared reduction engine for the order-valued and degree-valued settings.

Both settings cancel the extremal monomial of a working polynomial against
products of basis elements whenever its value (order, respectively degree)
lies in the monoid generated by the basis values, recording the subtracted
terms as an expression.  They differ in which end of the polynomial leads,
in which direction values move, and in the truncation rules that keep the
order-valued division finite.  A degree division ends on its own: degrees
strictly decrease, and constants always reduce, the ground field being part
of the algebra.  An order division need not end (rule 3 below).

Bases
-----
``local_basis`` and ``global_basis`` grow a generating set until the values
of its elements generate the whole value semigroup of the algebra: whenever
a relation element fails to divide to zero, its normalisation (monic at the
extremal term) joins the basis and the loop restarts.  ``reduced_basis``
then pushes every tail onto the gaps of the semigroup, which makes the
result canonical: there is exactly one minimal reduced basis
(``minimal_basis``).

Reduction modes
---------------
The three modes are one subduction loop.  Each pass takes the lead
exponent e of the working polynomial and applies these rules in order:

1. ``expression`` stops past ``bound``, with ``complete=False``.
2. ``algorithmic`` and ``reduced`` stop at the gcd-1 conductor shortcut
   (local setting only): a residual with e >= conductor lies in the
   algebra, so it is dropped to zero.
3. A lead in the monoid is subtracted, except that with gcd > 1 (local
   setting) ``algorithmic`` and ``reduced`` raise :class:`LimitExceeded`
   at or past the escape bound, since such a division need not end.
4. A lead outside the monoid ends ``algorithmic``, which hands back the
   whole residual, the next basis element (the basis-building procedure);
   ``expression`` (the division of the remainder proposition) and
   ``reduced`` (tail reduction) move it into the remainder and go on.

The lifted step
---------------
Every step is f <- f - c * f^theta, where f^theta = prod f_i^theta_i for a
factorisation theta of the value of f's lead term (its lowest term
locally, its highest globally) and c makes the two leads cancel.  It runs
on integers, fraction-free in the manner of Bareiss elimination (E. H.
Bareiss, *Sylvester's identity and multistep integer-preserving Gaussian
elimination*, Math. Comp. 22, 1968) and of pseudo-division (D. E. Knuth,
TAOCP vol. 2, 4.6.1).  Over Q the working polynomial is W / D, integer
numerators over one denominator, and each power f_i^k is cached once as
an integer polynomial over its own denominator; a product P / d_P of
powers is built per step by the integer kernel of :mod:`curvesgp.poly`.
Over GF(p) the residues are the numerators and every denominator is 1.

With lead exponent e, w = W[e] and u = P[e], the step records the
coefficient c = (w / D) / (u / d_P) and sets W / D <- (a W - b P) / (a D)
for a = u / g, b = w / g, g = gcd(w, u), signed so that a > 0; the lead
term cancels.  W is updated in place, only at the exponents of P, and
zeros are deleted.  Only a step with a != 1 grows D, and only then are W
and D divided by gcd(D, content(W)).  After that division D is the lcm L
of the denominators of the coefficients W_k / D in lowest terms: each of
them divides D, so D = L m, and then m divides every W_k, hence divides
gcd(D, content(W)) = 1.  The lift of f starts from that lcm, and a step
with a = 1 leaves D as it was, so D is always the lcm reached at the start
or at the last step that grew it.  Over GF(p) the step is W <- W - c P mod
p with c = w u^(-1).  Fractions are built only for what the caller sees:
the recorded coefficients, the terms moved into the remainder and the
remainder itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .fields import check_same_field
from .numsgp import NumSgp, least_factorization_over, presentation_for_generators
from .poly import Poly, _int_mul, _int_pow, _lift, _unlift


class LimitExceeded(RuntimeError):
    """A growth guard tripped (exit 3): the escape bound of a local division
    with gcd > 1, ``MAX_ELEMENTS`` or ``planebranch.PRECISION_CAP``."""


@dataclass(frozen=True)
class BasisElement:
    poly: Poly
    value: int


@dataclass
class ReductionOutcome:
    remainder: Poly
    expression: list[tuple[object, tuple[int, ...]]]
    complete: bool  # False only past the expression bound or at the shortcut
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
        # extremal coefficient of each element: its value is that exponent
        self.unit_coeffs = tuple(e.poly.coeffs[e.value] for e in elements)
        # positions ordered by (value, adjoin time), most expensive first;
        # factorisations are chosen to spend high-value generators last
        self._prio_desc = sorted(range(len(elements)),
                                 key=lambda i: (self.values[i], i), reverse=True)
        self._theta_cache: dict[int, tuple[int, ...]] = {}
        # (i, k) -> f_i^k lifted: (integer numerators, denominator)
        self._powers: dict[tuple[int, int], tuple[dict, int]] = {}

    def pick_factorization(self, n: int) -> tuple[int, ...]:
        """The factorisation of n (a member of the value monoid) that is
        lex-least in ``_prio_desc`` order, so it spends high-value
        generators last: the greedy least factorisation over the values
        in that order, mapped back to index order."""
        if n not in self._theta_cache:
            self._theta_cache[n] = least_factorization_over(
                n, self.values, self._prio_desc)
        return self._theta_cache[n]

    def _power(self, i: int, k: int) -> tuple[dict, int]:
        """f_i^k lifted, by binary powering on the integer kernel."""
        tag = (i, k)
        if tag not in self._powers:
            p = self.field.char
            coeffs = self.elements[i].poly.coeffs
            base, d = (coeffs, 1) if p else _lift(coeffs)
            self._powers[tag] = (_int_pow(base, k, p), d ** k)
        return self._powers[tag]

    def _lifted_product(self, theta: tuple[int, ...]) -> tuple[dict, int]:
        """f^theta lifted; built per call from the cached powers, and
        shared with the cache when theta has one nonzero entry, so it must
        not be mutated."""
        p = self.field.char
        out, d = None, 1
        for i, k in enumerate(theta):
            if k:
                a, da = self._power(i, k)
                out = a if out is None else _int_mul(out, a, p)
                d *= da
        return ({0: 1}, 1) if out is None else (out, d)

    def product(self, theta: tuple[int, ...]) -> Poly:
        return _unlift(self.field, *self._lifted_product(theta))

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


def _sub_scaled(w: dict, b: int, q: dict, p: int) -> None:
    """w <- w - b q in place at the exponents of q, mod p when p is nonzero;
    zeros are deleted.  b q has no zero term, so a zero sum was in w."""
    get = w.get
    for k, c in q.items():
        v = get(k, 0) - b * c
        if p:
            v %= p
        if v:
            w[k] = v
        else:
            del w[k]


def reduce_poly(f: Poly, ctx: ReductionContext, mode: str,
                bound: int | None = None) -> ReductionOutcome:
    """Divide f by the basis of ``ctx`` according to ``mode``.

    f is lifted once to W / D, integer numerators over one denominator
    (residues over GF(p), D = 1).  Each step is fraction-free, as in
    Bareiss elimination and pseudo-division: W / D <- (a W - b P) / (a D)
    against the lifted product P / d_P, in place, with the common factor
    of W and D cancelled only when D grew, which keeps D the lcm of the
    denominators (module docstring).  Fractions are built for the recorded
    coefficients and, once at the end, for the remainder.
    """
    if mode not in ("algorithmic", "expression", "reduced"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    check_same_field(f.field, ctx.field)
    field = ctx.field
    p = field.char
    monoid = ctx.monoid
    local = ctx.setting == "local"
    lead = min if local else max
    # the conductor shortcut is Prop-2.5 territory: order >= conductor puts an
    # element in the algebra; there is no degree analogue, so global runs
    # never drop residuals
    shortcut_ok = local and monoid.is_numerical
    c = monoid.scaled_conductor
    if mode == "expression" and bound is None:
        bound = ctx.default_bound()
        if not local and not f.is_zero:
            bound = max(bound, int(f.degree))
    escape = (ctx.escape_bound(f) if local and not shortcut_ok
              and mode != "expression" and not f.is_zero else None)

    expression: list[tuple[object, tuple[int, ...]]] = []
    collected: dict[int, object] = {}
    work, den = (dict(f.coeffs), 1) if p else _lift(f.coeffs)
    complete = True
    used_shortcut = False

    def subtract(e: int) -> None:
        nonlocal work, den
        theta = ctx.pick_factorization(e)
        prod, dp = ctx._lifted_product(theta)
        u, w = prod[e], work[e]
        if p:
            b = field.div(w, u)
            expression.append((b, theta))
            _sub_scaled(work, b, prod, p)
            return
        expression.append((Fraction(w * dp, den * u), theta))
        g = math.gcd(w, u)
        a, b = u // g, w // g
        if a < 0:
            a, b = -a, -b
        if a != 1:
            work = {k: a * v for k, v in work.items()}
            den *= a
        _sub_scaled(work, b, prod, 0)
        if a != 1:
            g = math.gcd(den, *work.values())
            if g != 1:
                work = {k: v // g for k, v in work.items()}
                den //= g

    def strip_lead(e: int) -> None:
        v = work.pop(e)
        collected[e] = v if p else Fraction(v, den)

    while work:
        e = lead(work)
        if mode == "expression":
            if e > bound:
                complete = False
                break
        elif shortcut_ok and e >= c:
            used_shortcut, complete = True, False
            work = {}
            break
        if not monoid.contains(e):
            if mode == "algorithmic":
                break  # residual handed back whole: it is the next element
            strip_lead(e)
        elif escape is not None and e >= escape:
            raise LimitExceeded(
                f"local division reached the escape bound {escape} at exponent "
                f"{e}, in the value monoid of gcd {monoid.d}")
        else:
            subtract(e)

    # algorithmic keeps the residual; every exponent left in it lies past
    # the stripped ones, so the two never share a term
    if mode == "algorithmic":
        for k, v in work.items():
            collected[k] = v if p else Fraction(v, den)
    return ReductionOutcome(Poly._of(field, collected), expression, complete,
                            used_shortcut)


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


MAX_ELEMENTS = 64


def basis_element(p: Poly, setting: str) -> BasisElement:
    """p made monic at its extremal term (trailing locally, leading
    globally), valued at that term's exponent."""
    if setting == "local":
        return BasisElement(p.monic_trailing()[0], int(p.order))
    return BasisElement(p.monic_leading()[0], int(p.degree))


def relation_element(ctx: ReductionContext, alpha, beta) -> Poly:
    """S = f^alpha - kappa f^beta, with kappa fixing the unit coefficients.

    For a monic basis kappa is 1 and this is the plain binomial difference;
    in general kappa makes the extremal monomials cancel exactly, so the
    value of S is strictly past the relation's value.  From the lifted
    products A / d_alpha and B / d_beta with lead numerators u_alpha and
    u_beta, S = (u_beta A - u_alpha B) / (d_alpha u_beta); over GF(p),
    S = A - u_alpha u_beta^(-1) B.
    """
    field = ctx.field
    p = field.char
    a, da = ctx._lifted_product(alpha)
    b, _ = ctx._lifted_product(beta)
    e = min(a) if ctx.setting == "local" else max(a)
    ua, ub = a[e], b[e]
    if p:
        s = dict(a)
        _sub_scaled(s, field.div(ua, ub), b, p)
        return Poly._of(field, s)
    s = {k: ub * v for k, v in a.items()}
    _sub_scaled(s, ua, b, 0)
    return _unlift(field, s, da * ub)


def build_basis(gens: list[Poly], setting: str) -> ValueBasis:
    """The adjoin-and-restart loop shared by both settings.  Two guards
    raise :class:`LimitExceeded`: the escape bound of :func:`reduce_poly`
    and a basis past ``MAX_ELEMENTS`` elements."""
    if not gens:
        raise ValueError("at least one generator is required")
    field = gens[0].field
    elements: list[BasisElement] = []
    for g in gens:
        check_same_field(field, g.field)
        if setting == "local":
            g = g - Poly.constant(g.coeff(0), field)
        if g.is_zero or g.degree == 0:
            raise ValueError("zero or constant generator")
        elements.append(basis_element(g, setting))

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
            if len(elements) + 1 > MAX_ELEMENTS:
                raise LimitExceeded(
                    f"basis grew past max_elements={MAX_ELEMENTS}")
            elements.append(basis_element(out.remainder, setting))
            adjoined = True
            break
        if not adjoined:
            return ValueBasis(setting, elements, ctx.monoid, pres, len(gens))


def local_basis(gens: list[Poly]) -> ValueBasis:
    """Basis of K[[f_1, ..., f_s]] together with its semigroup of orders.

    Raises :class:`LimitExceeded` when the growth guards trip, which is the
    expected outcome when the integral closure of the algebra is smaller
    than the full power series ring.
    """
    return build_basis(gens, "local")


def global_basis(gens: list[Poly]) -> ValueBasis:
    """Basis of K[f_1, ..., f_s] together with its semigroup of degrees."""
    return build_basis(gens, "global")


def reduced_basis(basis: ValueBasis) -> ValueBasis:
    """Replace every tail by its division remainder, supported on gaps.

    The extremal monomial (trailing in the local setting, leading in the
    global one) stays; reduction keeps every value, so the semigroup and
    presentation carry over unchanged.
    """
    ctx = basis.context()
    new_elements = []
    for elem in basis.elements:
        head = Poly(ctx.field, {elem.value: elem.poly.coeffs[elem.value]})
        tail = elem.poly - head
        if tail.is_zero:
            new_elements.append(elem)
            continue
        out = reduce_poly(tail, ctx, "reduced")
        new_elements.append(BasisElement(head + out.remainder, elem.value))
    return replace(basis, elements=new_elements)


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
