import random
from fractions import Fraction

import pytest

from curvesgp import (
    GF,
    QQ,
    Poly,
    SeriesApprox,
    compose_series,
    inverse_series,
    nth_root_series,
    reverse_series,
)
from util import P, deadline, substitute, xp


def series(p, prec):
    return SeriesApprox(p, prec)


def binomial_root_oracle(alpha: Fraction, prec: int) -> Poly:
    """(1+x)^alpha via the generalised binomial series."""
    coeffs = {}
    term = Fraction(1)
    for k in range(prec):
        if term:
            coeffs[k] = term
        term = term * (alpha - k) / (k + 1)
    return Poly.from_terms(coeffs.items())


def reversion_oracle(u: SeriesApprox) -> Poly:
    """Solve u(t(x)) = x coefficient by coefficient (independent of Newton)."""
    prec = u.prec
    t = xp(1)
    for k in range(2, prec):
        comp = substitute(u.poly, t).truncate(k + 1)
        err = comp.coeff(k)
        t = t + xp(k, -err)
    return t


def test_nth_root_trivial():
    one = series(Poly.constant(1), 6)
    assert nth_root_series(one, 3).poly == Poly.constant(1)


def test_nth_root_exact_square():
    f = series((Poly.constant(1) + xp(1)) ** 2, 8)
    assert nth_root_series(f, 2).poly == Poly.constant(1) + xp(1)


def test_nth_root_binomial_oracle():
    f = series(Poly.constant(1) + xp(1), 4)
    got = nth_root_series(f, 2)
    assert got.poly == binomial_root_oracle(Fraction(1, 2), 4)
    assert got.poly == P((0, 1), (1, "1/2"), (2, "-1/8"), (3, "1/16"))


def test_nth_root_requires_unit_constant_term():
    with pytest.raises(ValueError):
        nth_root_series(series(xp(1), 4), 2)


def test_nth_root_char_p():
    F3 = GF(3)
    one = Poly.constant(1, F3)
    f = series((one + Poly.x_power(1, F3)) ** 2, 6)
    got = nth_root_series(f, 2)
    assert got.poly == one + Poly.x_power(1, F3)
    with pytest.raises(ValueError):
        nth_root_series(f, 3)  # characteristic divides the index


def test_nth_root_power_identity_random():
    rng = random.Random(7)
    for _ in range(25):
        prec = rng.randrange(4, 12)
        n = rng.randrange(2, 5)
        f = Poly.from_terms(
            [(0, 1)] + [(k, rng.randrange(-3, 4)) for k in range(1, prec)])
        got = nth_root_series(series(f, prec), n)
        assert got.power(n).poly == f.truncate(prec)
    # fractional coefficients over Q, and GF(101) with 101 not dividing n
    fractions = (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 3, -1)
    for field in (QQ, GF(101)):
        for _ in range(25):
            prec = rng.randrange(2, 16)
            n = rng.randrange(2, 7)
            f = Poly.from_terms(
                [(0, 1)] + [(k, rng.choice(fractions)) for k in range(1, prec)
                            if rng.random() < 0.6], field)
            got = nth_root_series(series(f, prec), n)
            assert got.power(n).poly == f.truncate(prec), (field, f, n)
            assert got.coeff(0) == 1


def test_power_rejects_a_negative_exponent():
    with deadline(2):
        with pytest.raises(ValueError, match="negative power"):
            series(Poly.constant(1) + xp(1), 6).power(-1)


def test_reverse_trivial():
    u = series(xp(1), 6)
    assert reverse_series(u).poly == xp(1)


def test_reverse_example():
    u = series(xp(1) + xp(2), 5)
    t = reverse_series(u)
    assert t.poly == reversion_oracle(u)
    assert t.poly == P((1, 1), (2, -1), (3, 2), (4, -5))


def test_reverse_requires_unit_linear_part():
    with pytest.raises(ValueError):
        reverse_series(series(xp(2), 5))
    with pytest.raises(ValueError):
        reverse_series(series(xp(1, 2), 5))


def test_reverse_round_trip_random():
    rng = random.Random(11)
    for _ in range(25):
        prec = rng.randrange(4, 14)
        u = series(Poly.from_terms(
            [(1, 1)] + [(k, rng.randrange(-2, 3)) for k in range(2, prec)]), prec)
        t = reverse_series(u)
        assert compose_series(u, t).poly == xp(1)
        assert reverse_series(t).poly == u.poly


def test_compose_example():
    g = series(xp(2), 5)
    t = series(xp(1) + xp(2), 5)
    assert compose_series(g, t).poly == P((2, 1), (3, 2), (4, 1))


def test_compose_identities():
    g = series(P((1, 2), (3, -1), (6, 5)), 9)
    assert compose_series(g, series(xp(1), 9)).poly == g.poly
    t = series(P((1, 1), (2, 4)), 9)
    assert compose_series(series(xp(1), 9), t).poly == t.poly


def test_compose_rejects_constant_inner():
    with pytest.raises(ValueError):
        compose_series(series(xp(2), 5), series(Poly.constant(1), 5))


def test_inverse_series():
    s = series(Poly.constant(1) + xp(1), 8)
    v = inverse_series(s)
    assert (s * v).poly == Poly.constant(1)
    with pytest.raises(ZeroDivisionError):
        inverse_series(series(xp(1), 4))
