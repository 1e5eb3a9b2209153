import math
import random
from fractions import Fraction

import pytest

from curvesgp import GF, QQ, MixedFieldError, Poly
from curvesgp import poly as poly_module
from util import P, schoolbook_mul, substitute, xp


def test_power_is_binary_powering():
    """x^n by floor(log2 n) squarings and popcount(n) - 1 other products."""
    for n in range(1, 10):
        calls = []

        def mul(a, b):
            calls.append(None)
            return a * b

        assert poly_module._power(3, n, mul) == 3 ** n
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_order_of_zero_is_infinite():
    assert Poly.zero().order == math.inf


def test_order_examples():
    assert (xp(4) + xp(5)).order == 4
    assert (xp(15) + xp(16)).order == 15


def test_degree_of_zero():
    assert Poly.zero().degree == -math.inf
    assert (xp(3) + xp(7)).degree == 7


def test_mul_by_zero():
    assert ((xp(4) + xp(5)) * Poly.zero()).is_zero


def test_mul_cube():
    # (x^4+x^5)^3 expands binomially
    assert (xp(4) + xp(5)) ** 3 == P((12, 1), (13, 3), (14, 3), (15, 1))
    # powers on the integer kernel against repeated multiplication
    for field in (QQ, GF(7), GF(2**61 - 1)):
        f = P((2, "-2/3"), (3, 5), (7, "1/2"), (11, -1), field=field)
        one = Poly.constant(1, field)
        want = one
        for n in range(9):
            assert f ** n == want, (field, n)
            want = want * f
        assert f ** 0 == one and f ** 1 == f
        zero = Poly.zero(field)
        assert zero ** 0 == one
        assert (zero ** 1).is_zero and (zero ** 5).is_zero
    with pytest.raises(ValueError):
        xp(2) ** -1


def test_mul_square_feeds_deformation_example():
    f = xp(13, 2) + xp(14)
    assert f * f == P((26, 4), (27, 4), (28, 1))


def test_mixed_fields_rejected():
    with pytest.raises(MixedFieldError):
        xp(2) * Poly.x_power(2, GF(5))


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
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)


def test_substitute():
    g = xp(1) + xp(2)
    assert substitute(xp(2), g) == P((2, 1), (3, 2), (4, 1))
    assert substitute(xp(3) + xp(1), xp(1)) == xp(3) + xp(1)


def test_shift_guard():
    with pytest.raises(ValueError):
        (xp(1) + xp(3)).shift(-2)


def test_render_descending_terms():
    assert str(P((13, 1), (15, "-1/2"))) == "-1/2*x^15+x^13"
    assert str(Poly.zero()) == "0"
    assert str(P((0, -3), (1, 1))) == "x-3"


# -- the integer product kernel against the schoolbook oracle -----------

_KERNEL_FIELDS = (QQ, GF(7), GF(2 ** 61 - 1))


def _random_poly(rng, field, terms, span, lo=0, big=False):
    """terms nonzero coefficients on distinct exponents in [lo, lo + span)."""
    out = {}
    for e in rng.sample(range(lo, lo + span), terms):
        if field.char:
            c = rng.randrange(1, field.char)
        elif big:
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 40),
                         rng.randint(1, 10 ** 30))
        else:
            c = Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 4, 6, 9, 12)))
        out[e] = field.coerce(c)
    return Poly(field, out)


def _check_product(a, b):
    prod = a * b
    assert prod == schoolbook_mul(a, b)
    assert prod.support == tuple(sorted(prod.coeffs))
    assert all(prod.coeffs.values())
    return prod


@pytest.fixture
def packed_calls(monkeypatch):
    """Counts the operands packed by the Kronecker route."""
    calls = []
    pack = poly_module._pack

    def counting(*args):
        calls.append(args[0])
        return pack(*args)

    monkeypatch.setattr(poly_module, "_pack", counting)
    return calls


def test_mul_matches_schoolbook_on_random_operands(packed_calls):
    rng = random.Random(71)
    for field in _KERNEL_FIELDS:
        for _ in range(40):
            na, nb = rng.randrange(1, 70), rng.randrange(1, 70)
            # dense, sparse and very sparse (span >> terms) supports
            sa, sb = (n * rng.choice((1, 1, 3, 1000)) for n in (na, nb))
            a = _random_poly(rng, field, na, sa, rng.randrange(5), rng.random() < 0.3)
            b = _random_poly(rng, field, nb, sb, rng.randrange(5), rng.random() < 0.3)
            _check_product(a, b)
            _check_product(a, a)
    assert packed_calls


def test_mul_threshold_boundary(packed_calls):
    """The slot rule alone picks the path: a dense na x nb product has
    na + nb - 1 slots and is packed when 8 slots cost no more than its
    na * nb term pairs, so 15 x 15 stays on the schoolbook loop and
    15 x 16 is packed; both paths agree with the oracle."""
    rng = random.Random(73)
    assert poly_module._PAIRS_PER_SLOT == 8
    for field in _KERNEL_FIELDS:
        for na, nb, packed in ((15, 15, False), (15, 16, True), (16, 16, True),
                               (17, 16, True), (32, 7, False)):
            del packed_calls[:]
            _check_product(_random_poly(rng, field, na, na),
                           _random_poly(rng, field, nb, nb))
            assert bool(packed_calls) == packed, (field, na, nb)
        # very sparse: many pairs, but more slots than the packing pays for
        del packed_calls[:]
        _check_product(_random_poly(rng, field, 40, 40 * 1000),
                       _random_poly(rng, field, 40, 40 * 1000))
        assert not packed_calls
    del packed_calls[:]
    _check_product(xp(1009) + xp(0), xp(1013) + xp(1))
    assert not packed_calls


def test_mul_coefficients_reaching_the_slot_bound(packed_calls):
    """Equal coefficients +-M on n consecutive exponents make the middle
    coefficient of the product exactly +-M^2 n, the bound the slots are
    sized for, across every bit length of the bound modulo 8."""
    # n = 2 * _PAIRS_PER_SLOT: the n x n product has 2n - 1 slots, and
    # (2n - 1) * _PAIRS_PER_SLOT < n * n term pairs, so it is packed
    n = 2 * poly_module._PAIRS_PER_SLOT
    ones = range(n)
    for k in range(1, 80):
        for m in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            for sign in (1, -1):
                a = Poly(QQ, {e: Fraction(m) for e in ones})
                b = Poly(QQ, {e + 3: Fraction(sign * m, 5) for e in ones})
                prod = _check_product(a, b)
                assert prod.coeff(n + 2) == Fraction(sign * m * m * n, 5)
    p = 2 ** 61 - 1
    a = Poly(GF(p), {e: p - 1 for e in ones})
    assert _check_product(a, a).coeff(n - 1) == n % p
    assert len(packed_calls) == 2 * (79 * 3 * 2 + 1)


def test_mul_cancellation(packed_calls):
    # C (1 - x) times 1 + x + ... + x^39 is C (1 - x^40): with deg C < 40
    # every coefficient from deg C + 1 to 39 cancels
    rng = random.Random(79)
    C = _random_poly(rng, QQ, 20, 20)
    A = schoolbook_mul(C, P((0, 1), (1, -1)))
    B = Poly(QQ, {e: Fraction(1) for e in range(40)})
    assert _check_product(A, B) == C - C.shift(40)
    # in GF(7), (1 + x)^171 (1 + x)^172 = (1 + x)^343 = 1 + x^343
    F7 = GF(7)
    one_x = P((0, 1), (1, 1), field=F7)
    A7 = B7 = Poly.constant(1, F7)
    for _ in range(171):
        A7 = schoolbook_mul(A7, one_x)
    B7 = schoolbook_mul(A7, one_x)
    assert _check_product(A7, B7) == P((0, 1), (343, 1), field=F7)
    assert len(packed_calls) == 4


def test_mul_zero_and_constants():
    rng = random.Random(83)
    for field in _KERNEL_FIELDS:
        f = _random_poly(rng, field, 30, 40)
        zero = Poly.zero(field)
        c = Poly.constant(field.coerce(Fraction(-7, 3)) if not field.char else 3,
                          field)
        assert _check_product(f, zero).is_zero
        assert _check_product(zero, f).is_zero
        assert _check_product(zero, zero).is_zero
        assert _check_product(c, f) == f.scale(c.coeff(0))
        assert _check_product(f, c) == f.scale(c.coeff(0))
        assert _check_product(c, c) == Poly.constant(
            field.coerce(c.coeff(0) * c.coeff(0)), field)
