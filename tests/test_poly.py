import math

import pytest

from curvesgp import GF, QQ, MixedFieldError, Poly, mul, order, trailing_normalize
from util import P, xp


def test_order_of_zero_is_infinite():
    assert order(Poly.zero()) == math.inf


def test_order_examples():
    assert order(xp(4) + xp(5)) == 4
    assert order(xp(15) + xp(16)) == 15


def test_degree_of_zero():
    assert Poly.zero().degree == -math.inf
    assert (xp(3) + xp(7)).degree == 7


def test_mul_by_zero():
    assert mul(xp(4) + xp(5), Poly.zero()).is_zero


def test_mul_cube():
    # (x^4+x^5)^3 expands binomially
    assert (xp(4) + xp(5)) ** 3 == P((12, 1), (13, 3), (14, 3), (15, 1))


def test_mul_square_feeds_deformation_example():
    f = xp(13, 2) + xp(14)
    assert f * f == P((26, 4), (27, 4), (28, 1))


def test_trailing_normalize_paper_example():
    f = P((13, 3), (14, 3), (15, 1))
    monic, a = trailing_normalize(f)
    assert a == 3
    assert monic == P((13, 1), (14, 1), (15, "1/3"))


def test_trailing_normalize_monomial():
    monic, a = trailing_normalize(xp(6))
    assert (monic, a) == (xp(6), 1)


def test_trailing_normalize_negative():
    monic, a = trailing_normalize(P((7, -2), (2, -1)))
    assert a == -1
    assert monic == P((2, 1), (7, 2))


def test_trailing_normalize_zero_rejected():
    with pytest.raises(ValueError):
        trailing_normalize(Poly.zero())


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldError):
        mul(xp(2), Poly.x_power(2, GF(5)))


def test_gf_arithmetic_is_exact():
    F2 = GF(2)
    f = Poly.x_power(6, F2) + Poly.x_power(7, F2)
    assert f * f == Poly.from_terms([(12, 1), (14, 1)], F2)  # cross term kills itself


def test_gf_requires_prime():
    with pytest.raises(ValueError):
        GF(6)


def test_primality_matches_trial_division_and_rejects_strong_pseudoprimes():
    from curvesgp.fields import _is_prime

    def trial(n):
        return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))

    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if trial(n)]
    # the least strong pseudoprimes to the bases 2; 2, 3; ...; 2, ..., 37
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n), n
    assert _is_prime(2 ** 61 - 1) and _is_prime(10 ** 18 + 3)
    assert not _is_prime((2 ** 31 - 1) ** 2)


def test_division_by_zero_is_an_error():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(QQ.zero)
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_substitute():
    g = xp(1) + xp(2)
    assert xp(2).substitute(g) == P((2, 1), (3, 2), (4, 1))
    assert (xp(3) + xp(1)).substitute(xp(1)) == xp(3) + xp(1)


def test_shift_guard():
    with pytest.raises(ValueError):
        (xp(1) + xp(3)).shift(-2)


def test_render_descending_terms():
    assert str(P((13, 1), (15, "-1/2"))) == "-1/2*x^15+x^13"
    assert str(Poly.zero()) == "0"
    assert str(P((0, -3), (1, 1))) == "x-3"
