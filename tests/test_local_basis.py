import math
import random
from fractions import Fraction

import pytest

from curvesgp import (
    GF,
    QQ,
    BasisElement,
    LimitExceeded,
    NumSgp,
    Poly,
    local_basis,
    ReductionContext,
    minimal_basis,
    reduce_poly,
    reduced_basis,
)
from curvesgp.cli import main
from oracles import local_apery, local_echelon
from test_global_basis import _atoms
from util import P, deadline, xp


def elems(*polys):
    return [BasisElement(p, int(p.order)) for p in polys]


def test_reduce_order_stops_at_first_gap_value():
    # S1 = f1^3 - f2^2 over {x^4+x^5, x^6, x^15+x^16}: order 13 is not in <4,6,15>
    basis = elems(xp(4) + xp(5), xp(6), xp(15) + xp(16))
    f = P((13, 3), (14, 3), (15, 1))
    out = reduce_poly(f, ReductionContext(basis, "local"), "algorithmic")
    assert out.remainder == f


def test_reduce_order_of_basis_element_itself():
    basis = elems(xp(4) + xp(5), xp(6), xp(15) + xp(16))
    out = reduce_poly(xp(4) + xp(5), ReductionContext(basis, "local"), "algorithmic")
    assert out.remainder.is_zero
    assert out.expression == [(Fraction(1), (1, 0, 0))]


def test_reduce_order_deterministic_with_gap_support():
    # the example whose intermediate expressions depend on the step-2 choice
    basis = elems(xp(6), xp(4) + xp(5), xp(2) + xp(5))
    first = reduce_poly(xp(4), ReductionContext(basis, "local"), "expression", bound=40)
    second = reduce_poly(xp(4), ReductionContext(basis, "local"), "expression", bound=40)
    assert first.remainder == second.remainder
    assert first.expression == second.expression
    assert not first.complete  # the true expression is an infinite series
    assert all(e % 2 for e in first.remainder.support)  # gaps of the even monoid


def test_reduce_order_requires_nonempty_basis():
    with pytest.raises(ValueError):
        reduce_poly(xp(4), ReductionContext([], "local"), "algorithmic")


def test_local_basis_paper_example():
    basis = local_basis([xp(4) + xp(5), xp(6), xp(15) + xp(16)])
    assert basis.semigroup.minimal_generators() == [4, 6, 13, 15]
    assert basis.values == (4, 6, 15, 13)
    # the adjoined element is the monic S1
    assert basis.elements[3].poly == P((13, 1), (14, 1), (15, "1/3"))


def test_local_basis_8_12():
    basis = local_basis([xp(8), P((12, 1), (14, 1), (15, 1))])
    assert basis.semigroup.minimal_generators() == [8, 12, 26, 53]
    assert len(basis.elements) == 4
    assert basis.semigroup.genus == 42


def test_local_basis_battery_entry():
    basis = local_basis([xp(6), xp(8) + xp(9), xp(19)])
    assert basis.semigroup.minimal_generators() == [6, 8, 19, 29]


def test_local_basis_rejects_constants():
    with pytest.raises(ValueError):
        local_basis([Poly.constant(3)])
    with pytest.raises(ValueError):
        local_basis([xp(2), Poly.zero()])


def test_local_basis_strips_constant_terms():
    basis = local_basis([xp(4) + Poly.constant(1), xp(6) + xp(7)])
    assert basis.semigroup.minimal_generators() == [4, 6, 13]


def test_local_basis_divergence_guard():
    # K[[x^2+x^4, x^4]] = K[[x^2]]: the closure is not all of K[[x]]
    with pytest.raises(LimitExceeded):
        local_basis([xp(2) + xp(4), xp(4)])


def _order_2_degree_3_generators(rng, count):
    """count generators a*x^2 + b*x^3 (a != 0) whose coefficient vectors
    span a plane, so the algebra holds x^2 and x^3 and its semigroup of
    orders is <2, 3>: D = 3, hence (D - 1)(D - 2) = 2."""
    coeffs = [Fraction(c) for c in ("1", "2", "-1", "1/2", "-1/2", "3/5", "7/3")]
    while True:
        pairs = [(rng.choice(coeffs), rng.choice(coeffs + [Fraction(0)]))
                 for _ in range(count)]
        if any(a1 * b2 != a2 * b1 for a1, b1 in pairs for a2, b2 in pairs):
            return pairs


def _render(a, b):
    return f"{a}*x^2" + (f"{'+' if b > 0 else '-'}{abs(b)}*x^3" if b else "")


def test_order_2_degree_3_generators_give_2_3(capsys):
    # the value monoid <2> of the input has gcd 2 while the lead 3 of the
    # relation element is past (D - 1)(D - 2) = 2: a conductor cap applied
    # before the membership test would drop it and answer <2>
    rng = random.Random(23)
    cases = [[(Fraction(1), Fraction(0)), (Fraction(1), Fraction(1))],
             [(Fraction(2), Fraction(-1, 2)), (Fraction(2), Fraction(0))]]
    cases += [_order_2_degree_3_generators(rng, rng.choice((2, 3)))
              for _ in range(30)]
    for pairs in cases:
        gens = [P((2, a), (3, b)) for a, b in pairs]
        assert local_basis(gens).semigroup.minimal_generators() == [2, 3]
        text = ",".join(_render(a, b) for a, b in pairs)
        assert main(["local", "--", text]) == 0, text
        assert "minimal generators: [2, 3]" in capsys.readouterr().out, text


def test_monomial_algebra_needs_no_relations():
    basis = local_basis([xp(4), xp(6)])
    assert basis.values == (4, 6)
    assert basis.semigroup.d == 2


def test_reduced_basis_example():
    basis = local_basis([xp(4), xp(6) + xp(7)])
    red = reduced_basis(basis)
    assert [e.poly for e in red.elements] == [
        xp(4), xp(6) + xp(7), P((13, 1), (15, "-1/2"))]


def test_reduced_basis_value_13_element():
    red = reduced_basis(local_basis([xp(4) + xp(5), xp(6), xp(15) + xp(16)]))
    by_value = {e.value: e.poly for e in red.elements}
    assert by_value[13] == xp(13)
    assert by_value[15] == xp(15)


def test_reduced_basis_idempotent():
    red = reduced_basis(local_basis([xp(4), xp(6) + xp(7)]))
    again = reduced_basis(red)
    assert [e.poly for e in again.elements] == [e.poly for e in red.elements]


def test_minimal_basis_drops_generated_values():
    basis = local_basis([xp(4), xp(6) + xp(7), xp(13), xp(18)])
    assert 18 in basis.values
    assert minimal_basis(basis).values == (4, 6, 13, 15)


def test_minimal_basis_singleton():
    basis = local_basis([xp(3)])
    assert minimal_basis(basis).values == (3,)


def test_minimal_basis_sum_of_two():
    basis = local_basis([xp(2), xp(7), xp(9)])
    assert minimal_basis(basis).values == (2, 7)


def test_char_two_changes_the_semigroup():
    F2 = GF(2)
    gens = [Poly.x_power(4, F2),
            Poly.x_power(6, F2) + Poly.x_power(7, F2),
            Poly.x_power(13, F2)]
    basis = local_basis(gens)
    assert basis.semigroup.minimal_generators() == [4, 6, 13, 15]
    assert basis.semigroup.genus == 7


def test_expression_mode_reconstructs_the_input():
    # when complete, f = sum c_theta * f^theta + remainder identically
    import random

    from curvesgp.reduction import ReductionContext, reduce_poly

    rng = random.Random(41)
    basis = local_basis([xp(4), xp(6) + xp(7)])
    ctx = basis
    checked = 0
    while checked < 40:
        f = Poly.from_terms([(rng.randrange(1, 20), rng.randrange(-3, 4))
                             for _ in range(rng.randrange(1, 4))])
        if f.is_zero:
            continue
        out = reduce_poly(f, ctx, "expression", bound=120)
        if not out.complete:
            continue
        rebuilt = out.remainder
        for c, theta in out.expression:
            rebuilt = rebuilt + ctx.product(theta).scale(c)
        assert rebuilt == f
        checked += 1
    assert checked == 40


def test_reduced_basis_unique_across_generating_sets():
    b1 = reduced_basis(local_basis([xp(4), xp(6) + xp(7)]))
    extra = (xp(4)) ** 2  # adding f1^2 must not change the minimal reduced basis
    b2 = minimal_basis(local_basis([xp(4), xp(6) + xp(7), extra]))
    assert sorted(str(e.poly) for e in b1.elements) == sorted(
        str(e.poly) for e in b2.elements)


def _random_local_generator(rng, field) -> Poly:
    """A polynomial of order 2 to 8 and degree at most 9, with a few
    terms between."""
    def coeff():
        if field.char:
            return rng.randrange(1, field.char)
        return Fraction(rng.choice((1, -1, 2, -3, 5)), rng.choice((1, 2, 3)))

    o = rng.randint(2, 8)
    d = rng.randint(o, 9)
    return Poly(field, {o: coeff(), d: coeff(),
                        **{e: coeff() for e in range(o + 1, d)
                           if rng.random() < 0.3}})


def test_local_semigroup_matches_apery_closure():
    # the basis loop against the K[[f]]-module Apery closure of the oracles,
    # which finds its own cap: two generators over Q, two or three over
    # GF(13) and GF(101); the orders have gcd 1, so neither route needs
    # the escape bound
    rng = random.Random(67)
    with deadline(3):
        for k in range(600):
            field = (QQ, GF(13), GF(101))[k % 3]
            count = 2 if field is QQ else rng.randint(2, 3)
            gens = []
            while not gens or math.gcd(*(g.order for g in gens)) != 1:
                gens = [_random_local_generator(rng, field) for _ in range(count)]
            got = local_basis(gens).semigroup.minimal_generators()
            assert got == _atoms(*local_apery(gens)), gens


def test_local_semigroup_matches_apery_closure_three_generators_over_q():
    # three generators over Q with fractional coefficients, orders of gcd
    # 1: 56 of the 200 cases adjoin an element whose order is not in the
    # semigroup of the input orders, which two generators of coprime
    # orders never do
    rng = random.Random(89)
    adjoined = 0
    with deadline(3):
        for _ in range(200):
            gens = []
            while not gens or math.gcd(*(g.order for g in gens)) != 1:
                gens = [_random_local_generator(rng, QQ) for _ in range(3)]
            got = local_basis(gens).semigroup.minimal_generators()
            assert got == _atoms(*local_apery(gens)), gens
            adjoined += got != NumSgp([int(g.order) for g in gens]).minimal_generators()
    assert adjoined == 56


def test_minimal_basis_matches_echelon_route():
    # the loop against exact linear algebra on the truncated span of the
    # monomials in the generators, which shares no step with a
    # subduction: with N = max(c - 1, largest minimal generator), the
    # pivots are the semigroup up to N and the row at each minimal
    # generator is the minimal reduced basis element there
    rng = random.Random(5)
    answered = 0
    with deadline(3):
        for k in range(300):
            field = (QQ, GF(2), GF(3), GF(101))[k % 4]
            # orders 2 to 8 often share a factor; a constant is dropped
            gens = [_random_local_generator(rng, field)
                    + Poly.constant(rng.randrange(2), field)
                    for _ in range(rng.randint(2, 4))]
            try:
                basis = local_basis(gens)
            except LimitExceeded:
                continue
            S = basis.semigroup
            if not S.is_numerical:
                continue
            N = max(S.conductor - 1, S.minimal_generators()[-1])
            rows = local_echelon(gens, N)
            assert list(rows) == [n for n in range(N + 1) if S.contains(n)], gens
            for e in minimal_basis(basis).elements:
                assert e.poly == rows[e.value], (gens, e.value)
            answered += 1
    assert answered == 291
