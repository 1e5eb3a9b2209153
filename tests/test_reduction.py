"""The lifted reduction step against the reference division on Poly values."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from curvesgp import (GF, QQ, BasisElement, MixedFieldError, Poly,
                      deform_from_basis, global_basis, local_basis)
from curvesgp.numsgp import presentation_for_generators
from curvesgp.reduction import (LimitExceeded, ReductionContext, build_basis,
                                reduce_poly, reduced_basis, relation_element)
import oracles
from util import deadline, reference_reduce

MODES = ("algorithmic", "expression", "reduced")
FIELDS = (QQ, GF(7), GF(2**61 - 1))
COEFFS = (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4),
          Fraction(7, 9))


def _coeff(rng, field):
    while True:
        c = rng.choice(COEFFS)
        if field.char == 0 or Fraction(c).denominator % field.char:
            c = field.coerce(c)
            if c:
                return c


def _poly(rng, field, lo, hi, terms):
    return Poly(field, {rng.randrange(lo, hi + 1): _coeff(rng, field)
                        for _ in range(terms)})


def _generator(rng, field, setting, value):
    """Value `value` in the setting: a lowest term locally, a top term
    globally, plus a random tail on the other side."""
    lead = {value: _coeff(rng, field)}
    if setting == "local":
        tail = _poly(rng, field, value + 1, value + 9, rng.randrange(0, 3))
    else:
        tail = _poly(rng, field, 0, value - 1, rng.randrange(0, 3))
    return Poly(field, lead) + tail


def _elements(polys, setting):
    return [BasisElement(p, int(p.order if setting == "local" else p.degree))
            for p in polys]


def _contexts(rng, field, setting):
    """Monic bases from the basis loop, the same elements rescaled by
    non-unit and fractional constants (as ``deform`` gets them from the
    plane pipelines), and a value set of gcd 2 with divergent divisions."""
    out = []
    while len(out) < 2:
        values = sorted(rng.sample(range(3, 9), 2))
        gens = [_generator(rng, field, setting, v) for v in values]
        try:
            basis = build_basis(gens, setting)
        except ValueError:
            continue  # an imprimitive global pair, say
        out.append(basis)
        raw = [e.poly.scale(_coeff(rng, field)) for e in basis.elements]
        out.append(ReductionContext(_elements(raw, setting), setting))
    x = lambda e, c=1: Poly.x_power(e, field, c)  # noqa: E731
    if setting == "local":
        even = [x(4) + x(6, 2), x(6, 3) + x(8) + x(9, Fraction(1, 2))]
    else:
        even = [x(4, 3) + x(2), x(6) + x(1, Fraction(-2, 3)) + x(0, 5)]
    out.append(ReductionContext(_elements(even, setting), setting))
    return out


def _inputs(rng, field, ctx):
    top = max(int(e.poly.degree) for e in ctx.elements)
    fs = [Poly.zero(field),
          Poly.constant(_coeff(rng, field), field) + _poly(rng, field, 1, 12, 3),
          ctx.elements[0].poly ** 2,
          ctx.elements[-1].poly * ctx.elements[0].poly + _poly(rng, field, 0, 9, 2)]
    fs += [_poly(rng, field, 0, 2 * top + 6, rng.randrange(1, 6)) for _ in range(6)]
    return fs


def _outcome(divide, f, ctx, mode, bound):
    """The outcome of a division, or the ``LimitExceeded`` it raised."""
    try:
        return divide(f, ctx, mode, bound)
    except LimitExceeded as err:
        return err


def _check(f, ctx, mode, bound=None):
    """Both routes give the same outcome or raise the same error."""
    got = _outcome(reduce_poly, f, ctx, mode, bound)
    want = _outcome(reference_reduce, f, ctx, mode, bound)
    assert type(got) is type(want), (f, mode, got, want)
    if isinstance(want, LimitExceeded):
        assert str(got) == str(want), (f, mode)
        return got
    assert got.remainder == want.remainder, (f, mode)
    assert got.expression == want.expression, (f, mode)
    assert got.complete == want.complete, (f, mode)
    assert got.consumed_conductor_shortcut == want.consumed_conductor_shortcut
    return got


def test_lifted_reduction_matches_reference_division():
    rng = random.Random(8)
    seen = {"shortcut": 0, "escape": 0, "bound": 0, "constant": 0}
    with deadline(10):
        for field in FIELDS:
            for setting in ("local", "global"):
                for ctx in _contexts(rng, field, setting):
                    for f in _inputs(rng, field, ctx):
                        for mode in MODES:
                            out = _check(f, ctx, mode)
                            if isinstance(out, LimitExceeded):
                                seen["escape"] += 1
                                continue
                            seen["shortcut"] += out.consumed_conductor_shortcut
                            seen["constant"] += any(
                                not any(theta) for _, theta in out.expression)
                        if not f.is_zero:
                            out = _check(f, ctx, "expression",
                                         bound=int(f.order) + 2)
                            seen["bound"] += not out.complete
    assert all(seen.values()), seen


def test_products_match_powers_of_the_elements():
    rng = random.Random(9)
    for field in FIELDS:
        for setting in ("local", "global"):
            for ctx in _contexts(rng, field, setting):
                for _ in range(4):
                    theta = tuple(rng.randrange(0, 4) for _ in ctx.elements)
                    want = Poly.constant(1, field)
                    for e, k in zip(ctx.elements, theta):
                        want = want * e.poly ** k
                    assert ctx.product(theta) == want


def test_escape_bound_stops_divergent_local_divisions():
    # every term even: K[[x^2 + 3x^4]] = K[[x^2]], so dividing an even
    # series never ends; algorithmic and reduced mode raise LimitExceeded
    # at the escape bound, and expression mode stops at its own bound
    with deadline(10):
        for field in FIELDS:
            x = lambda e, c=1: Poly.x_power(e, field, c)  # noqa: E731
            ctx = ReductionContext(_elements(
                [x(2) + x(4, 3), x(4) + x(6, Fraction(-2, 3))], "local"), "local")
            for f in (x(6), x(8, 5) + x(10), x(6) + x(7)):
                escape = ctx.escape_bound(f)
                for mode in MODES:
                    out = _check(f, ctx, mode)
                    if mode == "expression":
                        assert not out.complete
                    elif mode == "algorithmic" and 7 in f.support:
                        # x^7 leads once x^6 is gone: the residual comes back
                        assert out.remainder.order == 7
                    else:
                        assert isinstance(out, LimitExceeded), (f, mode)
                        assert f"escape bound {escape} " in str(out)


def test_relation_elements_match_their_formula():
    # S = f^alpha - kappa f^beta for kappa = u_alpha / u_beta, u the
    # extremal coefficient of a product, for generators that are not monic
    # at their values
    rng = random.Random(10)
    for field in FIELDS:
        for setting in ("local", "global"):
            for _ in range(4):
                values = sorted(rng.sample(range(2, 10), 3))
                gens = []
                for v in values:
                    c = _coeff(rng, field)
                    while c == field.one:
                        c = _coeff(rng, field)
                    gens.append(_generator(rng, field, setting, v).scale(c))
                ctx = ReductionContext(_elements(gens, setting), setting)
                pairs = presentation_for_generators(ctx.values).pairs
                assert pairs
                for alpha, beta, _value in pairs:
                    fa, fb = ctx.product(alpha), ctx.product(beta)
                    kappa = (field.div(fa.trailing_coeff, fb.trailing_coeff)
                             if setting == "local" else
                             field.div(fa.leading_coeff, fb.leading_coeff))
                    want = fa - fb.scale(kappa)
                    assert relation_element(ctx, alpha, beta) == (want, kappa), (
                        field, setting, gens, alpha, beta)


def test_a_reused_basis_keeps_its_caches_intact():
    # a basis is its own reduction context: the powers cached while it was
    # built, then by reduced_basis, serve later divisions, which must agree
    # with a fresh context on the same elements
    rng = random.Random(11)
    with deadline(30):
        for field in (QQ, GF(101)):
            for setting in ("local", "global"):
                built = 0
                while built < 3:
                    values = sorted(rng.sample(range(3, 10), 2))
                    gens = [_generator(rng, field, setting, v) for v in values]
                    try:
                        basis = build_basis(gens, setting)
                    except (ValueError, LimitExceeded):
                        continue
                    if not basis.semigroup.is_numerical:
                        continue
                    built += 1
                    reduced_basis(basis)
                    deform_from_basis(basis)
                    fresh = ReductionContext(basis.elements, setting)
                    for f in _inputs(rng, field, basis):
                        for mode in ("reduced", "expression"):
                            got = reduce_poly(f, basis, mode)
                            want = reduce_poly(f, fresh, mode)
                            assert got.remainder == want.remainder, (f, mode)
                            assert got.expression == want.expression, (f, mode)


def _built(loop, gens, setting):
    """(value, element) of each basis element, in order, or the guard that
    the loop raised."""
    try:
        return [(e.value, e.poly) for e in loop(gens, setting).elements]
    except LimitExceeded as err:
        return str(err)


def test_basis_loop_skips_only_relations_that_divide_to_zero():
    # build_basis divides only the relations below the bound it reads off
    # the value monoid (c - 1 locally, 0 for two coprime degrees); the
    # oracle's loop divides every pair of the full presentation, and both
    # must adjoin the same elements in the same order, or raise the same
    # guard.  73 of the 160 cases adjoin, 3 raise, and 23 end as a global
    # basis of two coprime degrees
    rng = random.Random(4089)
    seen = Counter()
    with deadline(10):
        for field in (QQ, GF(101)):
            for setting in ("local", "global"):
                for _ in range(40):
                    values = [rng.randint(2, 9) for _ in range(rng.randint(2, 4))]
                    gens = [_generator(rng, field, setting, v) for v in values]
                    want = _built(oracles.basis_loop, gens, setting)
                    assert _built(build_basis, gens, setting) == want, (
                        field, setting, gens)
                    if isinstance(want, str):
                        seen["raised"] += 1
                        continue
                    seen["adjoined"] += len(want) > len(gens)
                    seen["two coprime"] += (setting == "global" and len(want) == 2
                                            and math.gcd(*(v for v, _ in want)) == 1)
    assert seen == {"adjoined": 73, "raised": 3, "two coprime": 23}


def test_bases_refuse_generators_over_two_fields():
    # the basis's first context is where the fields are compared
    gens = [Poly.x_power(2), Poly.x_power(3, GF(5))]
    for build in (local_basis, global_basis):
        with pytest.raises(MixedFieldError):
            build(gens)
