import random
from fractions import Fraction

import pytest

from curvesgp import (GF, QQ, MixedFieldError, MPoly, Poly, curve_resultant,
                      eval_bipoly, mpoly, resultant_eliminate)
from curvesgp.mpoly import _symmetric_of_values, sylvester_resultant
from curvesgp.poly import _integral_roots
from curvesgp.planebranch import intersection_degree
from util import XY, P, deadline, schoolbook_mul, xp


def test_resultant_t7_vs_t4_plus_t2():
    F = curve_resultant(xp(7), xp(4) + xp(2))
    assert F == XY({(0, 7): 1, (2, 3): -7, (4, 0): -1, (2, 2): -14,
                    (2, 1): -7, (2, 0): -1})


def test_resultant_t4_vs_t6_plus_t7():
    F = curve_resultant(xp(4), xp(6) + xp(7))
    assert F == XY({(0, 4): 1, (3, 2): -2, (6, 0): 1, (5, 1): -4, (7, 0): -1})


def test_resultant_sign_convention():
    assert curve_resultant(xp(1), xp(1)) == XY({(0, 1): 1, (1, 0): -1})


def test_resultant_rejects_constants():
    vars = ("t", "x", "y")
    c = MPoly.constant(vars, 3)
    with pytest.raises(ValueError):
        resultant_eliminate(c, c + c, "t")


def test_resultant_of_degree_zero_side():
    # one side constant in the eliminated variable: Res = that side ^ deg(other)
    F = XY({(0, 2): 1, (3, 0): -1})  # y^2 - x^3
    G = XY({(1, 0): 1})              # x
    res = sylvester_resultant(F, G, "y")
    assert res == XY({(2, 0): 1})


def test_resultant_vanishes_on_parametrisation():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randrange(2, 5)
        m = rng.randrange(2, 6)
        f = P(*([(n, 1)] + [(n + k, rng.randrange(-2, 3)) for k in range(1, 3)]))
        g = P(*([(m, 1)] + [(m + k, rng.randrange(-2, 3)) for k in range(1, 3)]))
        F = curve_resultant(f, g)
        assert eval_bipoly(F, f, g).is_zero


def _eval_by_monomial_powers(G: MPoly, values) -> Poly:
    """sum over the monomials c x^a y^b ... of G of c f^a g^b ..., each
    power built once by repeated schoolbook products."""
    field = G.field
    cache = {}

    def power(name, k):
        if (name, k) not in cache:
            cache[(name, k)] = (Poly.constant(1, field) if k == 0
                                else schoolbook_mul(power(name, k - 1), values[name]))
        return cache[(name, k)]

    out = Poly.zero(field)
    for e, c in G.coeffs.items():
        term = Poly.constant(c, field)
        for name, k in zip(G.vars, e):
            term = schoolbook_mul(term, power(name, k))
        out = out + term
    return out


def test_eval_univariate_horner_matches_monomial_powers():
    rng = random.Random(89)

    def rpoly(field, terms, span):
        return Poly(field, {rng.randrange(span): field.coerce(
            Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5))))
            for _ in range(terms)})

    for field in (QQ, GF(101)):
        for vars in (("x", "y"), ("u", "X0", "X1")):
            for _ in range(15):
                G = MPoly(vars, field, {
                    tuple(rng.randrange(7) if rng.random() < 0.7 else 0
                          for _ in vars): field.coerce(
                        Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
                    for _ in range(rng.randrange(0, 12))})
                values = {v: rpoly(field, rng.randrange(1, 5), 8) for v in vars}
                assert G.eval_univariate(values) == _eval_by_monomial_powers(G, values)
            # the zero polynomial, constants only, and a zero value
            values = {v: rpoly(field, 3, 8) for v in vars}
            c = field.coerce(Fraction(-7, 3))
            for G in (MPoly.zero(vars, field), MPoly.constant(vars, c, field)):
                assert G.eval_univariate(values) == _eval_by_monomial_powers(G, values)
            assert MPoly.constant(vars, c, field).eval_univariate(values) == \
                Poly.constant(c, field)
            G = MPoly(vars, field, {(2,) * len(vars): c, (0,) * len(vars): c,
                                    (0,) * (len(vars) - 1) + (3,): c})
            values[vars[0]] = Poly.zero(field)
            assert G.eval_univariate(values) == _eval_by_monomial_powers(G, values)


def test_eval_bipoly_examples():
    G = XY({(0, 2): 1, (3, 0): -1})  # Y^2 - X^3
    assert eval_bipoly(G, xp(4), xp(6) + xp(7)) == P((13, 2), (14, 1))
    G2 = XY({(0, 3): 1, (2, 0): -1})  # Y^3 - X^2
    assert eval_bipoly(G2, xp(6) + xp(1), xp(4)) == P((7, -2), (2, -1))
    X = XY({(1, 0): 1})
    assert eval_bipoly(X, xp(5) + xp(2), xp(9)) == xp(5) + xp(2)


def test_exact_div_round_trip():
    a = XY({(1, 0): 1, (0, 1): 2, (0, 0): -1})
    b = XY({(2, 1): 3, (0, 2): -5, (1, 0): 1})
    assert (a * b).exact_div(a) == b
    with pytest.raises(ArithmeticError):
        (a * b + MPoly.constant(("x", "y"), 1)).exact_div(a)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(7)])
def test_exact_div_round_trip_on_seeded_products(field):
    # over GF(p) a remainder coefficient that is a nonzero multiple of p
    # must be reduced to 0 before the division can drop it; kept, it would
    # be the lead forever, each step subtracting a zero multiple
    rng = random.Random(f"exact-div-{field!r}")
    pool = [c for c in (1, -1, 2, 3, -5, Fraction(1, 2), Fraction(-4, 3))
            if not field.char or Fraction(c).denominator % field.char]
    vars = ("x", "y")

    def draw():
        return MPoly(vars, field, {(rng.randrange(4), rng.randrange(4)):
                                   rng.choice(pool) for _ in range(4)})

    with deadline(10):
        for _ in range(60):
            a, b = draw(), draw()
            if b.is_zero:
                continue
            assert (a * b).exact_div(b) == a, (a, b)


def test_bareiss_determinant_with_zero_pivot():
    from fractions import Fraction

    from curvesgp.mpoly import bareiss_determinant

    vars = ("x", "y")
    def c(v):
        return MPoly.constant(vars, v)

    x = MPoly.variable(vars, "x")
    zero = MPoly.zero(vars)
    # leading pivot is zero: a row swap (and sign flip) is required
    m = [[zero, c(1), c(2)],
         [c(1), x, c(0)],
         [c(3), c(0), c(1)]]
    # det = 0*(x*1-0*0) - 1*(1*1-0*3) + 2*(1*0-x*3) = -1 - 6x
    det = bareiss_determinant(m, vars, x.field)
    assert det == MPoly(vars, x.field, {(0, 0): Fraction(-1), (1, 0): Fraction(-6)})
    singular = [[zero, zero], [c(1), c(1)]]
    assert bareiss_determinant(singular, vars, x.field).is_zero


def test_degree_queries():
    F = XY({(0, 4): 1, (7, 0): -1})
    assert F.degree_in("y") == 4
    assert F.degree_in("x") == 7
    assert MPoly.zero(("x", "y")).degree_in("x") == -1


def _sylvester_curve(f, g):
    """The Sylvester/Bareiss route to Res_t(X - f(t), Y - g(t)), monic in y."""
    vars = ("_t", "x", "y")
    P = MPoly.variable(vars, "x", f.field) - MPoly.from_poly(f, vars, "_t")
    Q = MPoly.variable(vars, "y", f.field) - MPoly.from_poly(g, vars, "_t")
    res = resultant_eliminate(P, Q, "_t", monic_in="y")
    assert all(e[0] == 0 for e in res.coeffs)
    return MPoly(("x", "y"), f.field, {e[1:]: c for e, c in res.coeffs.items()})


def _resultant_cases():
    """60 seeded (f, g): monomial f up to x^20, non-monic f, constant terms,
    deg g below and above deg f, constant and zero g, and GF(p), p > deg f."""
    rng = random.Random(41)
    coeffs = (1, -1, 2, -3, "1/2", "-2/3")
    cases = []
    for k in range(60):
        kind = k % 6
        field = GF(rng.choice((7, 11, 13))) if kind == 5 else QQ

        def dense(deg, lead):
            terms = [(e, rng.choice(coeffs + (0,))) for e in range(deg)]
            return P(*(terms + [(deg, lead)]), field=field)

        if kind == 0:
            n = 2 + k // 3  # 2, 4, ..., 20
            a = rng.randrange(n + 1, n + 6)
            f = xp(n, field=field)
            g = P((a, 1), (a + rng.randrange(1, 4), rng.choice(coeffs)), field=field)
        elif kind == 1:
            f = dense(rng.randrange(1, 6), rng.choice((2, -3, "1/2")))
            g = dense(rng.randrange(1, 8), rng.choice(coeffs))
        elif kind == 2:
            n = rng.randrange(2, 7)
            f = dense(n, 1) + P((0, rng.choice((1, -2, "3/4"))), field=field)
            g = dense(rng.randrange(1, n), 1)
        elif kind == 3:
            f = dense(rng.randrange(1, 6), rng.choice(coeffs))
            g = P((0, rng.choice((0,) + coeffs)), field=field)
        elif kind == 4:
            f = dense(rng.randrange(1, 5), rng.choice(coeffs))
            g = dense(rng.randrange(4, 9), rng.choice(coeffs))
        else:
            f = dense(rng.randrange(1, 7), rng.choice((1, 2, 3)))
            g = dense(rng.randrange(0, 7), rng.choice((1, 2, 3)))
        cases.append((f, g))
    return cases


def test_curve_resultant_matches_sylvester_route():
    cases = _resultant_cases()
    assert max(f.degree for f, _ in cases) == 20
    assert any(g.is_zero for _, g in cases)
    assert any(f.field.char for f, _ in cases)
    for f, g in cases:
        F = curve_resultant(f, g)
        assert F == _sylvester_curve(f, g), (f, g)
        assert F.degree_in("y") == f.degree
        assert eval_bipoly(F, f, g).is_zero


def _scaled_pair(rng, n, m, field):
    """f of degree n with a non-unit leading coefficient and fractional
    lower ones, g of degree m with its own denominators, so that the
    scalings D, L and M = L*D^m of curve_resultant are nontrivial."""
    f = P(*[(e, rng.choice(("1/2", "-2/3", "3/5", "-1/7")))
            for e in range(n) if rng.random() < 0.6],
          (n, rng.choice((3, "-2/5", "7/3"))), field=field)
    gcoeffs = ("5/2", "-3/7", "2/9", 4, "-1/5")
    g = P(*[(e, rng.choice(gcoeffs)) for e in range(m) if rng.random() < 0.6],
          (m, rng.choice(gcoeffs)), field=field)
    return f, g


def test_curve_resultant_scalings_match_sylvester_route():
    rng = random.Random(43)
    for k in range(12):
        n = 6 + k % 4  # over Q, deg g below and then above each n
        m = n + 1 if k // 4 == 1 or (k >= 8 and k % 2) else rng.randrange(2, n)
        f, g = _scaled_pair(rng, n, m, GF(rng.choice((17, 19, 23))) if k >= 8 else QQ)
        assert curve_resultant(f, g) == _sylvester_curve(f, g), (f, g)


def test_curve_resultant_scalings_vanish_on_large_pairs():
    # sizes where the Sylvester route takes seconds: the defining properties
    rng = random.Random(47)
    for n in range(10, 21):
        f, g = _scaled_pair(rng, n, n + 1 if n % 2 else n - 3, QQ)
        F = curve_resultant(f, g)
        assert F.degree_in("y") == n
        assert F.coeff_in("y", n) == MPoly.constant(F.vars, 1)
        assert eval_bipoly(F, f, g).is_zero, (f, g)


def test_curve_resultant_characteristic_and_degree_conditions():
    F5 = GF(5)
    g = Poly.x_power(2, F5)
    # p > deg f is fine, p <= deg f divides by p in Newton's identities
    assert curve_resultant(Poly.x_power(4, F5), g) == \
        _sylvester_curve(Poly.x_power(4, F5), g)
    for n in (5, 6):
        with pytest.raises(ValueError, match="characteristic 5"):
            curve_resultant(Poly.x_power(n, F5), g)
    for f in (P((0, 3)), Poly.zero()):
        with pytest.raises(ValueError, match="positive degree"):
            curve_resultant(f, xp(2))


def _int_coeffs(p: Poly) -> dict:
    """exponent -> int of a polynomial with integral coefficients."""
    assert all(int(c) == c for c in p.coeffs.values()), p
    return {e: int(c) for e, c in p.coeffs.items()}


def test_power_sums_and_elementary_symmetric_on_known_roots(monkeypatch):
    # by the kernel's rule (packed, on these inputs) and in its sparse form;
    # the spy records the form that each call ran in
    rule = mpoly._slot_bytes
    for packed in (True, False):
        forms = set()

        def spy(*args):
            nbytes = rule(*args) if packed else 0
            forms.add(bool(nbytes))
            return nbytes

        monkeypatch.setattr(mpoly, "_slot_bytes", spy)
        _known_roots_check()
        assert forms == {packed}


def _elementary(values: list, field) -> list:
    """e_0, ..., e_n of the values, by expanding prod (Y + v_i)."""
    e = [Poly.constant(1, field)]
    for v in values:
        e = [e[0], *(e[k] + e[k - 1] * v for k in range(1, len(e))), e[-1] * v]
    return e


def _known_roots_check():
    # roots r_i in K[X]: prod (t - r_i) = t^n + sum_i b_i t^(n-i) with
    # b_i = (-1)^i e_i; scaled as the callers scale them (roots D r_i), the
    # kernel must give back D^i e_i for the values h(tau) = tau, and
    # D^(2k) e_k(r_1^2, ..., r_n^2) for h(tau) = tau^2, which reads every
    # power sum S_j, j <= 2n
    rng = random.Random(37)
    for field in (QQ, GF(13)):
        for n in range(1, 7):
            roots = [P(*[(e, rng.choice((0, 1, -1, 2, "1/3")))
                         for e in range(3)], field=field) for _ in range(n)]
            e = _elementary(roots, field)
            b = [(e[i] if i % 2 == 0 else -e[i]).coeffs for i in range(1, n + 1)]
            B, D = _integral_roots(b, field.char)
            E = _symmetric_of_values(B, {1: {0: 1}}, field.char)
            assert E == [_int_coeffs(ek.scale(D ** k)) for k, ek in enumerate(e)]
            squares = _elementary([r * r for r in roots], field)
            E = _symmetric_of_values(B, {2: {0: 1}}, field.char)
            assert E == [_int_coeffs(ek.scale(D ** (2 * k)))
                         for k, ek in enumerate(squares)], (field, n)


def _dense_pair(rng, field):
    """f of degree 1 to 5 and g of degree 1 to 10 with small coefficients
    of both signs: their resultants' coefficients often come within a few
    bits of the slot width that the kernel's bound gives them."""
    coeffs = (1, -1, 2, -3, 5, 7, "1/2", "-2/3")
    n, m = rng.randint(1, 5), rng.randint(1, 10)
    f = P(*[(e, rng.choice(coeffs)) for e in range(n) if rng.random() < 0.7],
          (n, rng.choice((1, -1, 3, "1/2"))), field=field)
    g = P(*[(e, rng.choice(coeffs)) for e in range(m) if rng.random() < 0.7],
          (m, rng.choice(coeffs)), field=field)
    return f, g


def test_kernel_forms_match_sylvester_route(monkeypatch):
    # seeded pairs over Q and GF(p) and seeded pairs of curves, each by the
    # kernel's rule and again in its sparse form, against the Sylvester
    # route; the rule packs the dense pairs and leaves the curves with
    # sparse x^1000 coefficients and 800-bit constants to the sparse form
    picked = []
    rule = mpoly._slot_bytes

    def spy(*args):
        picked.append(rule(*args))
        return picked[-1]

    rng = random.Random(53)
    cases = []
    for k in range(120):
        field = GF(rng.choice((11, 13, 101))) if k % 4 == 3 else QQ
        f, g = _dense_pair(rng, field)
        cases.append((curve_resultant, (f, g), _sylvester_curve(f, g)))
    big = 7 ** 300
    for k in range(40):
        field = GF(rng.choice((11, 13))) if k % 4 == 3 else QQ
        xdeg, c = (1000, big) if k % 2 else (2, 3)

        def curve(deg: int, top) -> MPoly:
            terms = {(rng.randrange(xdeg + 1), j): rng.choice((1, -2, c))
                     for j in range(deg) if rng.random() < 0.6}
            return XY(terms | {(xdeg, 0): c, (0, deg): top}, field=field)

        F = curve(rng.randrange(2, 5), 1)
        G = curve(rng.randrange(1, 4), rng.choice((1, -3, c)))
        res = sylvester_resultant(F, G, "y")
        if not res.is_zero:
            cases.append((intersection_degree, (F, G), res.degree_in("x")))
    for form in ("rule", "sparse"):
        monkeypatch.setattr(mpoly, "_slot_bytes", spy if form == "rule"
                            else lambda *args: 0)
        for fn, args, want in cases:
            assert fn(*args) == want, (form, fn.__name__, args)
    assert len(cases) > 150
    assert 0 in picked and sum(map(bool, picked)) > 120


def test_intersection_degree_refuses_a_second_curve_of_another_ring():
    # G's y-rows are read as F's: a G over GF(7), or one whose x- and
    # z-terms the rows would merge, must not answer
    F = XY({(0, 2): 1, (3, 0): -1})
    assert intersection_degree(F, XY({(0, 1): 1, (1, 0): 1})) == 3
    with pytest.raises(MixedFieldError):
        intersection_degree(F, XY({(0, 1): 1, (1, 0): 1}, field=GF(7)))
    G = MPoly(("x", "y", "z"), QQ, {(0, 1, 0): 1, (1, 0, 0): 1, (0, 0, 1): 1})
    with pytest.raises(ValueError, match="variable mismatch"):
        intersection_degree(F, G)


def test_power_matches_repeated_multiplication():
    vars = ("x", "y")
    gf7 = GF(7)
    cases = [
        MPoly(vars, QQ, {(2, 1): Fraction(-2, 3)}),
        MPoly(vars, gf7, {(1, 3): 5}),
        XY({(1, 0): 1, (0, 2): Fraction(-1, 2), (3, 1): 4}),
        MPoly(vars, gf7, {(1, 0): 3, (0, 1): 6}),
        MPoly.constant(vars, Fraction(3, 4)),
        MPoly.zero(vars),
    ]
    for m in cases:
        want = MPoly.constant(vars, 1, m.field)
        for n in range(7):
            assert m ** n == want, (m, n)
            want = want * m
        with pytest.raises(ValueError):
            m ** -1
