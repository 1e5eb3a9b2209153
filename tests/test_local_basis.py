import random
from fractions import Fraction

import pytest

from curvesgp import (
    GF,
    BasisElement,
    LimitExceeded,
    Poly,
    local_basis,
    ReductionContext,
    minimal_basis,
    reduce_poly,
    reduced_basis,
)
from curvesgp.cli import main
from util import P, xp


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
    ctx = basis.context()
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
