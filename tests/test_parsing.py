import random
from fractions import Fraction

import pytest

from curvesgp import GF, QQ, MPoly, ParseError, Poly, parse_mpoly, parse_poly, parse_poly_list
from curvesgp.poly import render_poly
from util import XY, P, deadline, xp


def test_parse_simple_support():
    assert parse_poly("x^15+x^16") == xp(15) + xp(16)


def test_parse_t_variable():
    assert parse_poly("t^4+t^2") == xp(4) + xp(2)


def test_parse_mixed_variables_rejected():
    with pytest.raises(ParseError):
        parse_poly("x^2+t^3")


def test_parse_rational_coefficients():
    p = parse_poly("-135/32*x^83-15/16*x^75")
    assert p.coeff(83) == Fraction(-135, 32)
    assert p.coeff(75) == Fraction(-15, 16)


def test_parse_bivariate_transcript():
    F = parse_mpoly("y^6-2*x^2*y^3-4*x*y^3-y^3+x^4", ("x", "y"))
    assert F == XY({(0, 6): 1, (2, 3): -2, (1, 3): -4, (0, 3): -1, (4, 0): 1})


def test_parse_unary_minus_binds_looser_than_power():
    assert parse_poly("-x^2") == xp(2, -1)
    assert parse_poly("3-x") == P((0, 3), (1, -1))


def test_parse_parentheses():
    assert parse_poly("(x+1)*(x-1)") == P((2, 1), (0, -1))


def test_parse_char_p():
    p = parse_poly("x^2+2*x+5", char=5)
    assert p == Poly.from_terms([(2, 1), (1, 2)], GF(5))


def test_parse_rejects_nonprime_char():
    with pytest.raises(ValueError):
        parse_poly("x", char=4)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x^")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_poly("x+y")
    assert err.value.position == 2
    with pytest.raises(ParseError) as err:
        parse_poly("x~2")
    assert err.value.position == 1


def test_implicit_multiplication_rejected():
    with pytest.raises(ParseError):
        parse_poly("2x")


def test_division_only_by_constants():
    with pytest.raises(ParseError):
        parse_poly("x/x")
    with pytest.raises(ParseError):
        parse_poly("1/0*x")


def test_parse_poly_list():
    polys = parse_poly_list("x^4+x^5,x^6,x^15+x^16")
    assert [p.support for p in polys] == [(4, 5), (6,), (15, 16)]
    with pytest.raises(ParseError):
        parse_poly_list("  ,, ")


def test_print_parse_round_trip():
    rng = random.Random(13)
    for _ in range(50):
        terms = [(rng.randrange(0, 30),
                  Fraction(rng.randrange(-9, 10), rng.randrange(1, 8)))
                 for _ in range(rng.randrange(1, 6))]
        p = Poly.from_terms(terms)
        assert parse_poly(render_poly(p, "x")) == p


def _signed_sum(terms) -> str:
    """``c/d*mono`` terms joined by their signs."""
    text = "".join(f"{'-' if c < 0 else '+'}{abs(c.numerator)}/{c.denominator}*{m}"
                   for m, c in terms)
    return text.lstrip("+")


def test_long_sums_parse_in_linear_time():
    # one coefficient dict per sum: copying the sum at every sign made an
    # 8000-term input take seconds; exponents repeat, so terms combine
    rng = random.Random(14)

    def coeff():
        return Fraction(rng.choice([-7, -3, -1, 1, 2, 5, 9]), rng.randrange(1, 9))

    terms = [(rng.randrange(0, 3000), coeff()) for _ in range(8000)]
    text = _signed_sum((f"x^{k}", c) for k, c in terms)
    with deadline(3):
        assert parse_poly(text) == Poly.from_terms(terms)
    terms = [((rng.randrange(0, 60), rng.randrange(0, 60)), coeff())
             for _ in range(4000)]
    want: dict = {}
    for e, c in terms:
        want[e] = want.get(e, 0) + c
    text = _signed_sum((f"x^{i}*y^{j}", c) for (i, j), c in terms)
    with deadline(3):
        assert parse_mpoly(text, ("x", "y")) == MPoly(("x", "y"), QQ, want)
