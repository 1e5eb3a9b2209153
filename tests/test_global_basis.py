from fractions import Fraction

import pytest

from curvesgp import (BasisElement, Poly, ReductionContext, deform_from_basis, global_basis,
                      reduce_poly, reduced_basis)
from util import P, xp


def elems(*polys):
    return [BasisElement(p, int(p.degree)) for p in polys]


def test_reduce_degree_gap_degree_returns_whole():
    basis = elems(xp(6) + xp(1), xp(4))
    f = P((7, -2), (2, -1))  # g^3 - f^2 for f = x^6+x, g = x^4
    out = reduce_poly(f, ReductionContext(basis, "global"), "algorithmic")
    assert out.remainder == f


def test_reduce_degree_basis_element():
    basis = elems(xp(6) + xp(1), xp(4))
    out = reduce_poly(xp(6) + xp(1), ReductionContext(basis, "global"), "algorithmic")
    assert out.remainder.is_zero
    assert out.expression == [(Fraction(1), (1, 0))]


def test_reduce_degree_product():
    basis = elems(xp(6) + xp(1), xp(4))
    f = (xp(4) ** 2) * (xp(6) + xp(1))
    out = reduce_poly(f, ReductionContext(basis, "global"), "algorithmic")
    assert out.remainder.is_zero
    assert out.expression == [(Fraction(1), (1, 2))]
    assert out.complete


def test_reduce_degree_handles_constants():
    basis = elems(xp(2), xp(3))
    out = reduce_poly(xp(2) + Poly.constant(5), ReductionContext(basis, "global"),
                      "expression")
    assert out.remainder.is_zero
    assert out.complete
    assert (Fraction(5), (0, 0)) in out.expression


def test_global_basis_x6x3_x4():
    basis = global_basis([xp(6) + xp(3), xp(4)])
    assert basis.semigroup.minimal_generators() == [4, 6, 9]
    assert basis.values == (6, 4, 9)


def test_global_basis_x6x_x4():
    basis = global_basis([xp(6) + xp(1), xp(4)])
    assert basis.semigroup.minimal_generators() == [4, 6, 7]


def test_global_basis_single_variable():
    basis = global_basis([xp(1)])
    assert basis.semigroup.minimal_generators() == [1]
    assert [e.poly for e in basis.elements] == [xp(1)]


def test_global_basis_rejects_constants():
    with pytest.raises(ValueError):
        global_basis([Poly.constant(2)])


def test_coprime_degrees_are_already_a_basis():
    # gcd(3,2) = 1: the pair is a basis even though x is not in the algebra
    basis = global_basis([xp(2), xp(3) + xp(1)])
    assert basis.values == (2, 3)
    assert basis.semigroup.minimal_generators() == [2, 3]


def test_global_basis_whole_ring_detection():
    # (x^4+x) - (x^2)^2 = x: the algebra is all of K[x], conductor 0
    basis = global_basis([xp(4) + xp(1), xp(2)])
    assert basis.semigroup.minimal_generators() == [1]
    assert basis.semigroup.conductor == 0


def test_global_expressions_always_complete():
    basis = global_basis([xp(6) + xp(3), xp(4)])
    assert all(deform_from_basis(basis).complete)


def test_two_generator_cardinality_bound():
    # gcd(n, m) a product of l primes bounds the basis size by l + 2
    import math
    import random

    rng = random.Random(31)
    checked = 0
    while checked < 40:
        n = rng.randrange(3, 13)
        m = rng.randrange(2, n)
        g = math.gcd(n, m)
        if g == 1 or g == m == n:
            continue
        l = 0
        gg = g
        for p in (2, 3, 5, 7, 11):
            while gg % p == 0:
                l += 1
                gg //= p
        f_poly = P(*([(n, 1)] + [(rng.randrange(1, n), rng.randrange(-2, 3))
                                 for _ in range(2)]))
        g_poly = xp(m)
        if math.gcd(math.gcd(*f_poly.support), m) != 1:
            continue
        basis = global_basis([f_poly, g_poly])
        assert 2 <= len(basis.elements) <= l + 2
        checked += 1


def test_reduced_basis_global():
    basis = global_basis([xp(6) + xp(3), xp(4)])
    red = reduced_basis(basis)
    gaps = set(basis.semigroup.gaps())
    for e in red.elements:
        tail = e.poly - e.poly.leading_monomial()
        assert set(tail.support) <= gaps
