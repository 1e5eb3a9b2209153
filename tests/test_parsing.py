import math
import random
import re
import sys
from fractions import Fraction

import pytest

from curvesgp import GF, QQ, MPoly, ParseError, Poly, parse_mpoly, parse_poly, parse_poly_list
from curvesgp.cli import main
from curvesgp.reduction import LimitExceeded
from curvesgp.poly import render_poly
import oracles
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


def test_powers_of_number_literals():
    assert parse_poly("2^10*x") == xp(1, 1024)
    assert parse_poly("0^0*x+0^3") == xp(1)
    assert parse_poly("x/2^3-2^3*x^2") == P((1, "1/8"), (2, -8))
    assert parse_poly("7^1000*x^2+13^5*x", char=13) == P((2, 9), field=GF(13))


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


def test_powers_of_sums_run_on_the_integer_kernel(capsys):
    # (x+1)^1600 took seconds as MPoly products of Fractions
    with deadline(3):
        assert parse_poly("(x+1)^1500") == Poly(QQ, {
            k: Fraction(math.comb(1500, k)) for k in range(1501)})
    with deadline(10):
        assert main(["local", "(x+1)^1600"]) == 0
    assert "minimal generators: [1]" in capsys.readouterr().out
    with deadline(3):
        F = parse_mpoly("(x+y+1)^60", ("x", "y"))
    f = math.factorial
    assert F == XY({(i, j): f(60) // (f(i) * f(j) * f(60 - i - j))
                    for i in range(61) for j in range(61 - i)})
    assert len(F.coeffs) == 1891


def test_products_of_sums_past_the_size_cap_stop_before_multiplying(capsys):
    # (x+1)^N holds about N^2 / 2 bits; past the cap the parser raises
    # LimitExceeded at once, and the CLI exits 3
    with deadline(3):
        for text in ("(x+1)^20000", "(x+1)^2048", "(1/3*x+2)^3000",
                     "(x+1)^600*(x+1)^600*(x+1)^600*(x+1)^600",
                     "(x+1)^" + "9" * 4000, "(x+y+1)^3000"):
            with pytest.raises(LimitExceeded, match="past the cap of 2"):
                parse_mpoly(text, ("x", "y"))
        assert main(["local", "(x+1)^20000"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error[LimitExceeded]: ") and "Traceback" not in err
    # a power of a number literal passes the same cap: 7^3000000 would
    # hold 8.4 Mbit
    with deadline(2):
        assert main(["local", "x^2+7^3000000*x"]) == 3
    assert capsys.readouterr().err.startswith(
        "error[LimitExceeded]: a power ^3000000 of a constant in the input")
    # the message names what was estimated: a power of a sum, or a product
    with deadline(3):
        for text, what in (("(x+1)^20000", "a power ^20000 of a sum of 2 terms"),
                           ("(x+1)^600*(x+1)^600*(x+1)^600*(x+1)^600",
                            "a product of sums of 1801 and 601 terms")):
            with pytest.raises(LimitExceeded, match=re.escape(
                    f"{what} in the input would hold up to 2^")):
                parse_poly(text)
    # the estimate is a bound, not a guess: (y^3-x^2)^300 has 301 terms,
    # and over GF(p) every coefficient is below p
    with deadline(3):
        assert len(parse_mpoly("(y^3-x^2)^300", ("x", "y")).coeffs) == 301
        assert parse_poly("(x+1)^16807", 7) == P((0, 1), (16807, 1), field=GF(7))


def test_over_long_literal_is_read_before_the_grammar():
    # a literal int() refuses is found with the tokens, like a bad character:
    # after any bad character, and before any error of the grammar
    cap = sys.get_int_max_str_digits()
    long = "9" * (cap + 1)
    with pytest.raises(ParseError, match=f"literal of {cap + 1} digits exceeds "
                                         f"the limit of {cap} digits") as err:
        parse_poly(f"x^2 )({long}")
    assert err.value.position == 6
    with pytest.raises(ParseError, match="unexpected character '~'"):
        parse_poly(f"{long}+x~")


def _random_expr(rng, names, depth=0) -> str:
    """A random sum over the grammar; numbers that vanish mod 5 or 13, zero
    divisors such as (x-x) and names outside the variable tuple included."""
    text = ""
    for j in range(rng.randint(1, 3)):
        term = _random_factor(rng, names, depth)
        for _ in range(rng.randint(0, 2)):
            op = rng.choice("***/")
            # a divisor is mostly a number, so that most terms parse
            term += op + _random_factor(rng, names, depth,
                                        op == "/" and rng.random() < 0.7)
        text += ("" if j == 0 else rng.choice("+-")) + term
    return text


def _random_factor(rng, names, depth, number=False) -> str:
    r = 0 if number else rng.random()
    if r < 0.35:
        atom = str(rng.choice([0, 1, 2, 3, 5, 7, 10, 13, 26, 100]))
    elif r < 0.75 or depth >= 2:
        atom = rng.choice(names)
    else:
        atom = "(" + _random_expr(rng, names, depth + 1) + ")"
    if rng.random() < 0.4:
        atom += f"^{rng.randint(0, 4)}"
    return "-" * rng.choice([0, 0, 0, 1, 2]) + atom


def _mutate(rng, text: str) -> str:
    """text with one character deleted, or one inserted at a random place:
    an operator, a name or digit character (the Arabic-Indic three
    included, which ``\\d`` reads as a digit), a space, or a bad
    character."""
    k = rng.randrange(len(text) + 1)
    if text and rng.random() < 0.4:
        return text[:k] + text[k + 1:]
    return text[:k] + rng.choice("+-*/^()x2 ~$,é_\u0663") + text[k:]


def _outcome(parse, *args):
    """The parsed value with its coefficient types, or the exception's type,
    message and position."""
    try:
        value = parse(*args)
    except Exception as err:
        return type(err), str(err), getattr(err, "position", None)
    polys = value if isinstance(value, list) else [value]
    return value, [sorted({type(c).__name__ for c in p.coeffs.values()})
                   for p in polys]


MALFORMED = ["x^", "x~2", "2x", "x/x", "1/0*x", "x^2^3", "()", "x*/2", "(x",
             "x)", "z", "1/(2-2)", "3/(x-x+0)", ""]


@pytest.mark.parametrize("char", [0, 5, 13])
def test_parser_matches_the_mpoly_reference(char):
    # the one-pass integer parser against the MPoly parser it replaced:
    # equal values and coefficient types, or equal errors
    rng = random.Random(31 + char)
    for vars in (("x", "y"), ("x", "t")):
        names = vars * 8 + ("z", "t", "y")
        texts = MALFORMED + [" - x ^ 2 +\t3 * ( y - 1 ) "]
        for _ in range(3000):
            text = _random_expr(rng, names)
            texts.append(_mutate(rng, text) if rng.random() < 0.3 else text)
        for k, text in enumerate(texts):
            assert (_outcome(parse_mpoly, text, vars, char)
                    == _outcome(oracles.parse_mpoly, text, vars, char)), text
            if vars == ("x", "t"):
                assert (_outcome(parse_poly, text, char)
                        == _outcome(oracles.parse_poly, text, char)), text
                pair = f"{texts[k - 1]},{text}"
                assert (_outcome(parse_poly_list, pair, char)
                        == _outcome(oracles.parse_poly_list, pair, char)), pair


def test_field_is_checked_before_any_token():
    # --char 4 is refused as a field, whatever the text holds
    for parse in (parse_poly, parse_poly_list, oracles.parse_poly):
        with pytest.raises(ValueError, match="4 is not prime"):
            parse("x~2", 4)
