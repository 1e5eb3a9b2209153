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
extremal term) joins the basis and the loop restarts.  A round walks the
minimal presentation of its values, shared with every later reader of
the same values, and stops at the first relation at or past a value read
off the value monoid, past which none can divide to anything but zero
(``build_basis``): 0 for two values of gcd 1 in either setting, where the
values already generate the semigroup; and otherwise c - 1 locally, for
gcd 1 and conductor c, by rule 2 below.  A round whose bound is 0 asks
for no presentation at all.  ``reduced_basis`` then pushes every tail
onto the gaps of the semigroup, which makes the result canonical: there
is exactly one minimal reduced basis (``minimal_basis``).  A basis
(``ValueBasis``) is its own reduction context, so the powers cached while
it was built serve every later division by it.

Reduction modes
---------------
The three modes are one subduction loop.  Each pass takes the lead
exponent e of the working polynomial and applies these rules in order:

1. ``expression`` stops past ``bound``, with ``complete=False``.  With no
   ``bound`` given, a local division stops past ``default_bound``, and a
   global one runs to its end.
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

With lead exponent e, w = W[e] and u = P[e], one function, ``_step``,
sets W / D <- (a W - b P) / (a D), with a = u / g, b = w / g for
g = gcd(w, u), signed so that a > 0, and over GF(p) with a = 1 and
b = w u^(-1); the lead term cancels.  W is updated in place, only at the
exponents of P, and zeros are deleted, by ``poly._sub_scaled``.  A
relation element f^alpha - kappa f^beta is one such step, of a copy of the
lifted f^alpha against f^beta, and the two leads it cancels give kappa,
the toric binomial's coefficient, to ``deformation.deform``.  A division
records the coefficient c = (w / D) / (u / d_P) of each step.  Only a step with a != 1 grows D, and only then does the
division divide W and D by gcd(D, content(W)).  After that division D is
the lcm L of the denominators of the coefficients W_k / D in lowest terms:
each of them divides D, so D = L m, and then m divides every W_k, hence
divides gcd(D, content(W)) = 1.  The lift of f starts from that lcm, and a
step with a = 1 leaves D as it was, so D is always the lcm reached at the
start or at the last step that grew it.  Coefficients over Q are rebuilt
(``fields.rational``: an ``int`` when integral, else a ``Fraction``) only
for what the caller sees: the recorded coefficients (for a caller that
reads them), the terms moved into the remainder and the remainder itself.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .fields import check_same_field, rational
from .numsgp import (Presentation, _monoid, least_factorization_over,
                     presentation_for_generators)
from .poly import Poly, _int_mul, _int_pow, _lift, _sub_scaled, _unlift


class LimitExceeded(RuntimeError):
    """A growth guard tripped (exit 3): the escape bound of a local division
    with gcd > 1, ``MAX_ELEMENTS``, ``planebranch.PRECISION_CAP`` or the
    parser's size cap on a power or a product of sums, ``parsing._SIZE_CAP``."""


class BasisElement(NamedTuple):
    poly: Poly
    value: int


class ReductionOutcome(NamedTuple):
    remainder: Poly
    expression: list[tuple[object, tuple[int, ...]]]
    complete: bool  # False only past the expression bound or at the shortcut
    consumed_conductor_shortcut: bool = False


class ReductionContext:
    """Basis elements, the ``semigroup`` (a :class:`~curvesgp.numsgp.NumSgp`)
    their values generate, and the caches reduction steps share.  The
    elements must be nonzero and over one field."""

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
        self.semigroup = _monoid(self.values)  # shared with the presentation
        # the lead term of a working polynomial is its extremal one
        self.lead = min if setting == "local" else max
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
            base, d = _lift(self.field, self.elements[i].poly.coeffs)
            self._powers[tag] = (_int_pow(base, k, self.field.char), d ** k)
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
        a, d = self._lifted_product(theta)
        return _unlift(self.field, dict(a), d)  # a may be a cached power

    def default_bound(self):
        """The bound of an ``expression`` division that names none: none
        globally, where degrees only fall, and locally the scaled
        conductor plus the largest degree of the basis."""
        if self.setting == "global":
            return math.inf
        maxdeg = max(int(e.poly.degree) for e in self.elements)
        return self.semigroup.scaled_conductor + maxdeg

    def escape_bound(self, f: Poly) -> int:
        top = max(int(f.degree), max(int(e.poly.degree) for e in self.elements))
        return self.semigroup.scaled_conductor + 2 * top + 1


def _step(work: dict, den: int, prod: dict, e: int, p: int) -> tuple[dict, int]:
    """One fraction-free step: (a W - b P, a D) for W / D against a lifted
    product P, with the terms at e cancelling.  Over Q, a = u / g and
    b = w / g for w = W[e], u = P[e], g = gcd(w, u), signed so that a > 0;
    over GF(p), a = 1 and b = w u^(-1).  W is written in place when a = 1
    and replaced by a new dict otherwise, then updated by
    ``poly._sub_scaled`` (b P has no zero term, as b != 0); P is only
    read."""
    w, u = work[e], prod[e]
    if p:
        _sub_scaled(work, w * pow(u, -1, p) % p, prod, p)
        return work, den
    g = math.gcd(w, u)
    a, b = u // g, w // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        work = {k: a * v for k, v in work.items()}
        den *= a
    _sub_scaled(work, b, prod, 0)
    return work, den


def reduce_poly(f: Poly, ctx: ReductionContext, mode: str,
                bound: int | None = None, record: bool = True) -> ReductionOutcome:
    """Divide f by the basis of ``ctx`` according to ``mode``.

    f is lifted once to W / D, integer numerators over one denominator
    (residues over GF(p), D = 1).  Each step is one :func:`_step`,
    fraction-free as in Bareiss elimination and pseudo-division:
    W / D <- (a W - b P) / (a D) against the lifted product P / d_P, in
    place, with the common factor of W and D cancelled only when D grew,
    which keeps D the lcm of the denominators (module docstring).  A
    ``ValueBasis`` is a context too.  Over Q the recorded coefficients and,
    once at the end, the remainder are rebuilt by ``fields.rational``.  With
    ``record=False`` no step is recorded and the expression is left empty:
    the basis builders read only the remainder, and over Q each recorded
    coefficient costs a gcd of two large integers.
    """
    if mode not in ("algorithmic", "expression", "reduced"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    check_same_field(f.field, ctx.field)
    field = ctx.field
    p = field.char
    semigroup = ctx.semigroup
    local = ctx.setting == "local"
    lead = ctx.lead
    # the conductor shortcut is Prop-2.5 territory: order >= conductor puts an
    # element in the algebra; there is no degree analogue, so global runs
    # never drop residuals
    shortcut_ok = local and semigroup.is_numerical
    c = semigroup.scaled_conductor
    if mode == "expression" and bound is None:
        bound = ctx.default_bound()
    escape = (ctx.escape_bound(f) if local and not shortcut_ok
              and mode != "expression" and not f.is_zero else None)

    expression: list[tuple[object, tuple[int, ...]]] = []
    collected: dict[int, object] = {}
    # a private copy: the steps write into it, and over GF(p), or over Q
    # with int coefficients, the lift hands back f's own dict
    work, den = _lift(field, dict(f.coeffs))
    complete = True
    used_shortcut = False

    def subtract(e: int) -> None:
        nonlocal work, den
        theta = ctx.pick_factorization(e)
        prod, dp = ctx._lifted_product(theta)
        if record:
            w, u = work[e], prod[e]
            expression.append((field.div(w, u) if p else rational(w * dp, den * u),
                               theta))
        before = den
        work, den = _step(work, den, prod, e, p)
        if den != before:
            g = math.gcd(den, *work.values())
            if g != 1:
                work = {k: v // g for k, v in work.items()}
                den //= g

    def strip_lead(e: int) -> None:
        v = work.pop(e)
        collected[e] = v if p else rational(v, den)

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
        if not semigroup.contains(e):
            if mode == "algorithmic":
                break  # residual handed back whole: it is the next element
            strip_lead(e)
        elif escape is not None and e >= escape:
            raise LimitExceeded(
                f"local division reached the escape bound {escape} at exponent "
                f"{e}, in the value monoid of gcd {semigroup.d}")
        else:
            subtract(e)

    # algorithmic never strips a term: its remainder is the whole residual
    remainder = (_unlift(field, work, den) if mode == "algorithmic"
                 else Poly._of(field, collected))
    return ReductionOutcome(remainder, expression, complete, used_shortcut)


class ValueBasis(ReductionContext):
    """A validated basis: elements whose values generate the value monoid.
    It is its own reduction context, so the powers cached while it was
    built serve every later division."""

    def __init__(self, elements: list[BasisElement], setting: str,
                 n_input: int):
        super().__init__(elements, setting)
        self.n_input = n_input

    @property
    def presentation(self) -> Presentation:
        """A minimal presentation of the values, memoised per value tuple
        by ``presentation_for_generators``."""
        return presentation_for_generators(self.values)


MAX_ELEMENTS = 64


def value_of(p: Poly, setting: str) -> int:
    """The valuation of the setting: the order of p in the local setting,
    its degree in the global one."""
    return int(p.order if setting == "local" else p.degree)


def basis_element(p: Poly, setting: str) -> BasisElement:
    """p made monic at its extremal term (trailing locally, leading
    globally), valued at that term's exponent.  Locally the constant term
    goes first, since constants lie in the algebra; a zero or constant p is
    refused.  The constant is dropped from the coefficient dict, and p is
    scaled only when its coefficient at the value is not already 1."""
    field = p.field
    if setting == "local" and 0 in p.coeffs:
        p = Poly._of(field, {e: c for e, c in p.coeffs.items() if e})
    if p.is_zero or p.degree == 0:
        raise ValueError("zero or constant generator")
    value = value_of(p, setting)
    lead = p.coeffs[value]
    return BasisElement(p if lead == field.one else p.scale(field.inv(lead)),
                        value)


def relation_element(ctx: ReductionContext, alpha, beta) -> tuple[Poly, object]:
    """(S, kappa) for S = f^alpha - kappa f^beta, kappa the ratio of the
    extremal coefficients of f^alpha and f^beta.

    For a monic basis kappa is 1 and S is the plain binomial difference;
    in general kappa makes the extremal monomials cancel exactly, so the
    value of S is strictly past the relation's value.  S is one
    :func:`_step` of a copy of the lifted f^alpha, A / d_alpha, against
    f^beta = B / d_beta, and kappa is read off the two leads it cancels:
    A[e] d_beta / (d_alpha B[e]) over Q, A[e] B[e]^(-1) over GF(p).
    """
    a, da = ctx._lifted_product(alpha)
    b, db = ctx._lifted_product(beta)
    e = ctx.lead(a)
    p = ctx.field.char
    kappa = a[e] * pow(b[e], -1, p) % p if p else rational(a[e] * db, da * b[e])
    # the cache may share a with a power, so the step gets a copy
    return _unlift(ctx.field, *_step(dict(a), da, b, e, p)), kappa


def build_basis(gens: list[Poly], setting: str) -> ValueBasis:
    """The adjoin-and-restart loop shared by both settings.  Two guards
    raise :class:`LimitExceeded`: the escape bound of :func:`reduce_poly`
    and a basis past ``MAX_ELEMENTS`` elements.

    Each round divides the relation elements of the minimal presentation
    of its values in increasing value, adjoining the first nonzero
    remainder, and stops at the first pair at or past ``past``: no
    relation there can have a nonzero remainder.  The presentation is
    ``basis.presentation``, memoised per value tuple, so the last round's
    is the one that ``deform`` and the reports read; a round with
    ``past <= 0`` asks for none:

    - With two values n, a of gcd 1, in either setting, ``past = 0``.
      Globally, the resultant F = Res_t(X - f, Y - g) has Y-degree n with a
      nonzero constant leading coefficient, and F(f, g) = 0.  So every
      P(f, g) is sum_{j<n} p_j(f) g^j, whose terms have degrees
      n deg p_j + a j, distinct mod n: the degree of P(f, g) is one of
      them, in <n, a>.  The value semigroup is <n, a>, every lead of a
      division by {f, g} lies in it, and every relation divides to zero.
      Locally the one relation has value n a > (n - 1)(a - 1) - 1 = c - 1,
      so the next rule already divides nothing.
    - Otherwise locally, with gcd 1 and conductor c, ``past = c - 1``.  The
      relation element S = f^alpha - kappa f^beta of a pair of value v has
      order > v, its two trailing terms cancelling.  For v >= c - 1 that
      order is >= c, so S is zero or rule 2 of :func:`reduce_poly` drops it
      at once.
    - Otherwise ``past`` is infinite and every pair is divided.
    """
    if not gens:
        raise ValueError("at least one generator is required")
    elements = [basis_element(g, setting) for g in gens]
    while True:
        basis = ValueBasis(elements, setting, len(gens))
        semigroup = basis.semigroup
        if not semigroup.is_numerical:
            past = math.inf
        elif len(basis.values) == 2:
            past = 0
        elif setting == "local":
            past = semigroup.conductor - 1
        else:
            past = math.inf
        if past <= 0:
            return basis  # every relation has a positive value
        for alpha, beta, value in basis.presentation.pairs:
            if value >= past:
                return basis
            s_poly, _kappa = relation_element(basis, alpha, beta)
            if s_poly.is_zero:
                continue
            out = reduce_poly(s_poly, basis, "algorithmic", record=False)
            if out.remainder.is_zero:
                continue
            if len(elements) + 1 > MAX_ELEMENTS:
                raise LimitExceeded(
                    f"basis grew past max_elements={MAX_ELEMENTS}")
            elements.append(basis_element(out.remainder, setting))
            break
        else:
            return basis


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
    field = basis.field
    new_elements = []
    for elem in basis.elements:
        coeffs, value = elem.poly.coeffs, elem.value
        if len(coeffs) == 1:
            new_elements.append(elem)
            continue
        tail = Poly._of(field, {e: c for e, c in coeffs.items() if e != value})
        out = reduce_poly(tail, basis, "reduced", record=False)
        # the remainder lies on gaps and the value in the semigroup, so the
        # two supports are disjoint and one dict holds the new element
        new_elements.append(BasisElement(
            Poly._of(field, {value: coeffs[value], **out.remainder.coeffs}),
            value))
    return ValueBasis(new_elements, basis.setting, basis.n_input)


def minimal_basis(basis: ValueBasis) -> ValueBasis:
    """Drop elements whose value the others already generate, then reduce."""
    minimal_values = set(basis.semigroup.minimal_generators())
    kept: list[BasisElement] = []
    seen: set[int] = set()
    for elem in basis.elements:
        if elem.value in minimal_values and elem.value not in seen:
            kept.append(elem)
            seen.add(elem.value)
    trimmed = ValueBasis(kept, basis.setting, min(basis.n_input, len(kept)))
    return reduced_basis(trimmed)
