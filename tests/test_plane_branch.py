import math
import random
import time
from fractions import Fraction

import pytest

from curvesgp import (
    GF,
    QQ,
    MPoly,
    NotOnePlaceAtInfinity,
    NumSgp,
    Poly,
    SeriesApprox,
    approximate_root,
    char_sequence_from_support,
    compose_series,
    curve_resultant,
    delta_check,
    delta_sequence,
    eval_bipoly,
    gamma_at_infinity,
    gamma_curve_infinity,
    gamma_local_pair,
    local_basis,
    nth_root_series,
    plane_local,
    reparametrize,
    reverse_series,
)
from curvesgp import numsgp
from curvesgp.mpoly import sylvester_resultant
from curvesgp.planebranch import intersection_degree
from curvesgp.reduction import basis_element
from util import XY, P, xp


def test_char_sequence_4_67():
    seq = char_sequence_from_support(4, {6, 7})
    assert seq.d == (4, 2, 1)
    assert seq.m == (6, 7)
    assert seq.r == (4, 6, 13)


def test_char_sequence_coprime_pair():
    seq = char_sequence_from_support(2, {7})
    assert seq.h == 1
    assert seq.r == (2, 7)


def test_char_sequence_8_12_14_15():
    seq = char_sequence_from_support(8, {12, 14, 15})
    assert seq.d == (8, 4, 2, 1)
    assert seq.r == (8, 12, 26, 53)
    # cross-check against the basis computation
    basis = local_basis([xp(8), P((12, 1), (14, 1), (15, 1))])
    assert sorted(set(seq.r)) == basis.semigroup.minimal_generators()


def test_char_sequence_needs_total_gcd_one():
    with pytest.raises(ValueError):
        char_sequence_from_support(4, {6, 10})


def test_reparametrize_monomial_is_identity():
    got = reparametrize(xp(3), xp(7) + xp(9), 20)
    assert got == xp(7) + xp(9)


def test_reparametrize_substitution_identities():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(2, 5)
        f = P(*([(n, 1)] + [(n + k, rng.randrange(-2, 3)) for k in (1, 2)]))
        g = P(*[(m, rng.randrange(-2, 3)) for m in range(n + 1, n + 5)]) + xp(n + 5)
        prec = 24
        gt = reparametrize(f, g, prec)
        root = f.shift(-int(f.order))
        from curvesgp import nth_root_series
        xt = SeriesApprox(nth_root_series(SeriesApprox(root, prec), n).poly.shift(1),
                          prec)
        # f(t) = xt(t)^n and g(t) = gt(xt(t)) up to the working precision
        assert xt.power(n).poly == f.truncate(prec)
        assert compose_series(SeriesApprox(gt, prec), xt).poly == g.truncate(prec)


def test_gamma_local_pair_examples():
    S, seq = gamma_local_pair(xp(4), xp(6) + xp(7))
    assert S.minimal_generators() == [4, 6, 13]
    S2, seq2 = gamma_local_pair(xp(7), xp(4) + xp(2))
    assert S2.minimal_generators() == [2, 7]
    assert seq2.r == (2, 7)
    S3, _ = gamma_local_pair(xp(2), xp(3))
    assert S3.minimal_generators() == [2, 3]


def test_gamma_local_pair_matches_basis_computation():
    rng = random.Random(19)
    for _ in range(8):
        n = rng.randrange(2, 6)
        m = rng.randrange(n + 1, n + 6)
        if n == 1:
            continue
        g = xp(m) + xp(m + rng.randrange(1, 3))
        while True:
            import math
            if math.gcd(n, math.gcd(*g.support)) == 1:
                break
            g = g + xp(m + rng.randrange(1, 4))
        S, _ = gamma_local_pair(xp(n), g)
        basis = local_basis([xp(n), g])
        assert S.minimal_generators() == basis.semigroup.minimal_generators()


def _seeded_terms(rng, low, count):
    coeffs = (1, -1, 2, "1/2", "-2/3")
    exps = [low] + rng.sample(range(low + 1, low + 8), count)
    return P(*[(e, rng.choice(coeffs)) for e in exps])


def test_gamma_local_pair_matches_local_basis_on_seeded_pairs():
    # the Newton-Puiseux descent on the reparametrised g against the
    # general basis loop; non-monomial f runs the Lagrange coefficients,
    # o(g) < o(f) the swap, and monomial f with n >= 6 also goes through
    # plane_local's approximate roots
    rng = random.Random(43)
    pairs = [(xp(8), P((12, 1), (14, 1), (15, 1))),
             (P((8, 1), (9, "1/2")), P((12, 1), (14, 1), (15, 1))),
             (P((12, 1), (14, 1), (15, 1)), P((8, 1), (10, -1)))]
    while len(pairs) < 39:
        n = rng.randrange(2, 9)
        f = _seeded_terms(rng, n, rng.randrange(1, 3))
        g = _seeded_terms(rng, rng.randrange(max(1, n - 3), n + 7),
                          rng.randrange(0, 3))
        if math.gcd(*f.support, *g.support) == 1:
            pairs.append((f, g))
    for n in (6, 7, 8):
        for _ in range(3):
            g = _seeded_terms(rng, rng.randrange(n + 1, n + 5), 2)
            if math.gcd(n, *g.support) == 1:
                pairs.append((xp(n), g))
    seen = {"swapped": 0, "non-monomial": 0, "h >= 2": 0, "plane_local": 0}
    for f, g in pairs:
        S, seq = gamma_local_pair(f, g)
        basis = local_basis([f, g])
        assert S.minimal_generators() == basis.semigroup.minimal_generators(), (f, g)
        # with n the multiplicity, the r_k are the minimal generators (Zariski)
        assert list(seq.r) == S.minimal_generators(), (f, g)
        seen["swapped"] += g.order < f.order
        seen["non-monomial"] += len(f.support) > 1 and len(g.support) > 1
        seen["h >= 2"] += seq.h >= 2
        if len(f.support) == 1 and f.order >= 6 and f.order < g.order:
            res = plane_local(f, g)
            assert res.semigroup.minimal_generators() == S.minimal_generators()
            assert res.sequence == seq, (f, g)
            seen["plane_local"] += 1
    assert all(count >= 3 for count in seen.values()), seen


def test_approximate_root_identity_when_d_is_one():
    F = curve_resultant(xp(4), xp(6) + xp(7))
    assert approximate_root(F, 1) == F


def test_approximate_root_paper_examples():
    F = XY({(0, 6): 1, (2, 3): -2, (1, 3): -4, (0, 3): -1, (4, 0): 1})
    assert approximate_root(F, 2) == XY(
        {(0, 3): 1, (2, 0): -1, (1, 0): -2, (0, 0): "-1/2"})
    F2 = XY({(0, 6): 1, (2, 3): -2, (1, 2): -4, (0, 1): -1, (4, 0): 1})
    assert approximate_root(F2, 2) == XY({(0, 3): 1, (2, 0): -1})


def test_approximate_root_rejects_bad_divisor():
    F = XY({(0, 6): 1, (4, 0): 1})
    for d in (4, 0, -2):
        with pytest.raises(ValueError, match=f"{d} does not divide the y-degree 6"):
            approximate_root(F, d)


def test_approximate_root_rejects_char_p_and_non_monic_input():
    with pytest.raises(ValueError, match="approximate roots need characteristic zero"):
        approximate_root(XY({(0, 6): 1, (4, 0): 1}, field=GF(7)), 2)
    with pytest.raises(ValueError, match="input must be monic in y"):
        approximate_root(XY({(0, 6): 2, (4, 0): 1}), 2)
    with pytest.raises(ValueError, match="input must be monic in y"):
        approximate_root(XY({(1, 6): 1, (4, 0): 1}), 2)
    with pytest.raises(ValueError, match="input must involve the root variable"):
        approximate_root(XY({(4, 0): 1}), 1)
    with pytest.raises(ValueError, match="input must be monic in x"):
        approximate_root(XY({(0, 6): 1, (4, 1): 1}), 2, var="x")


def _assert_is_approximate_root(F, G, d, var="y"):
    """The defining property: G monic of degree q = n/d in ``var`` and
    deg(F - G^d) < n - q."""
    n = F.degree_in(var)
    q = n // d
    assert G.vars == F.vars
    assert G.degree_in(var) == q
    assert G.coeff_in(var, q) == MPoly.constant(F.vars, 1)
    assert (F - G ** d).degree_in(var) < n - q, (F, d)


def test_approximate_root_with_several_denominators():
    # y-coefficient denominators 3, 5, 7 and 4: D = 420 scales a_i by
    # D^i, and each v_j is divided by d^j j! D^j
    F = XY({(0, 12): 1, (1, 11): "1/3", (0, 10): "2/5", (2, 10): -1,
            (1, 9): "-3/7", (0, 8): "5/4", (3, 7): "1/3", (2, 6): "-1/5",
            (0, 4): "2/7", (5, 0): 1})
    for d in (1, 2, 3, 4, 6, 12):
        _assert_is_approximate_root(F, approximate_root(F, d), d)
    # the square root of (y^2 + y/3 + 2/5)^2 is itself
    G = XY({(0, 2): 1, (0, 1): "1/3", (0, 0): "2/5"})
    assert approximate_root(G ** 2, 2) == G
    assert approximate_root(G ** 3 + XY({(1, 0): "5/7"}), 3) == G


def test_approximate_root_in_other_variables():
    # three variables, the root variable in the middle, the other two
    # packed into one exponent; and a curve in (x, y) taken in x
    vars = ("u", "y", "x")
    F = MPoly(vars, QQ, {(0, 6, 0): Fraction(1), (1, 5, 2): Fraction(1, 3),
                         (2, 4, 0): Fraction(-2, 5), (0, 4, 3): Fraction(1),
                         (3, 3, 1): Fraction(1, 7), (0, 2, 0): Fraction(-3, 4),
                         (4, 0, 4): Fraction(1)})
    for d in (1, 2, 3, 6):
        _assert_is_approximate_root(F, approximate_root(F, d), d)
    H = XY({(6, 0): 1, (5, 1): "1/2", (4, 0): "-2/3", (3, 2): 1, (0, 4): "3/5",
            (2, 0): 1})
    for d in (1, 2, 3, 6):
        G = approximate_root(H, d, var="x")
        _assert_is_approximate_root(H, G, d, var="x")
    # the root of F(x, y) in y is the root of F(y, x) in x, variables swapped
    swapped = MPoly(("y", "x"), QQ, H.coeffs)
    for d in (2, 3):
        G = approximate_root(swapped, d, var="y")
        assert approximate_root(H, d, var="x").coeffs == G.coeffs


def test_approximate_root_degree_and_expansion():
    # deg(F - G^d) < n - n/d says the G-adic digit of G^(d-1) vanishes
    F = curve_resultant(xp(6) + xp(3), xp(4))
    for d in (1, 2, 3, 6):
        _assert_is_approximate_root(F, approximate_root(F, d), d)


def _random_monic(rng, n, xdeg=3):
    """Monic in y of degree n over Q[x], coefficients of x-degree <= xdeg."""
    terms = {(0, n): 1}
    for j in range(n):
        for ex in range(xdeg + 1):
            if rng.random() < 0.4:
                terms[(ex, j)] = rng.choice((1, -1, 2, -3, "1/2", "-2/3"))
    return XY(terms)


def test_approximate_root_defining_property_on_random_curves():
    rng = random.Random(23)
    checked = 0
    for n in range(1, 13):
        for _ in range(2):
            F = _random_monic(rng, n)
            for d in range(1, n + 1):
                if n % d == 0:
                    _assert_is_approximate_root(F, approximate_root(F, d), d)
                    checked += 1
    assert checked == 70


def test_intersection_degree_matches_sylvester_route():
    rng = random.Random(29)
    for _ in range(24):
        F = _random_monic(rng, rng.randrange(1, 7), xdeg=2)
        G = _random_monic(rng, rng.randrange(0, 5), xdeg=2)
        res = sylvester_resultant(F, G, "y")
        if res.is_zero:
            with pytest.raises(ValueError, match="share a component"):
                intersection_degree(F, G)
        else:
            assert intersection_degree(F, G) == res.degree_in("x"), (F, G)
    # a shared component: F = A*B, G = A*C
    A = XY({(0, 2): 1, (3, 0): -1})
    F = A * XY({(0, 1): 1, (1, 0): 2})
    G = A * XY({(0, 3): 1, (2, 1): -1, (0, 0): 5})
    assert sylvester_resultant(F, G, "y").is_zero
    with pytest.raises(ValueError, match="share a component"):
        intersection_degree(F, G)
    with pytest.raises(ValueError, match="monic in y"):
        intersection_degree(F.scale(3), G)


def test_intersection_degree_scalings_match_sylvester_route():
    # F monic in y with fractional coefficients in Q[x] (so D > 1) and a
    # non-monic G with its own denominators, over Q and over GF(p), p > n
    rng = random.Random(31)
    coeffs = ("1/2", "-2/3", "3/5", "-1/7", 2, "5/3")

    def curve(n, xdeg, lead, field):
        terms = {(ex, j): rng.choice(coeffs) for j in range(n)
                 for ex in range(xdeg + 1) if rng.random() < 0.35}
        return XY({**terms, (0, n): lead}, field=field)

    compared = 0
    for k in range(30):
        field = GF(rng.choice((11, 13))) if k % 3 == 2 else QQ
        F = curve(rng.randrange(2, 10), 2, 1, field)
        G = curve(rng.randrange(1, 5), 2, rng.choice(coeffs), field)
        res = sylvester_resultant(F, G, "y")
        if res.is_zero:
            with pytest.raises(ValueError, match="share a component"):
                intersection_degree(F, G)
        else:
            assert intersection_degree(F, G) == res.degree_in("x"), (F, G)
            compared += 1
    assert compared >= 25


def test_gamma_at_infinity_x6x3_x4():
    res = gamma_at_infinity(xp(6) + xp(3), xp(4))
    assert res.semigroup.minimal_generators() == [4, 6, 9]
    assert res.sequence.r == (6, 4, 9)
    assert res.roots[0] == XY({(0, 1): 1})
    assert res.roots[1] == XY({(0, 3): 1, (2, 0): -1, (1, 0): -2, (0, 0): "-1/2"})


def test_gamma_at_infinity_x6x_x4():
    res = gamma_at_infinity(xp(6) + xp(1), xp(4))
    assert res.semigroup.minimal_generators() == [4, 6, 7]
    assert res.roots[1] == XY({(0, 3): 1, (2, 0): -1})
    assert res.evaluated[1] == P((7, -2), (2, -1))


def test_gamma_at_infinity_coprime_monomials():
    res = gamma_at_infinity(xp(5), xp(3))
    assert res.semigroup.minimal_generators() == [3, 5]
    assert res.roots == [XY({(0, 1): 1})]


def test_gamma_at_infinity_argument_order_is_normalised():
    res = gamma_at_infinity(xp(4), xp(6) + xp(3))
    assert res.semigroup.minimal_generators() == [4, 6, 9]


def test_gamma_at_infinity_equal_degree_normalisation():
    # equal leading terms are cancelled by subtracting f from g first
    res = gamma_at_infinity(xp(4) + xp(1), xp(4))
    assert res.semigroup.minimal_generators() == [1]
    res2 = gamma_at_infinity(xp(6) + xp(5), xp(6) + xp(2))
    assert res2.semigroup.minimal_generators() == [5, 6]


def test_gamma_at_infinity_matches_global_basis():
    from curvesgp import global_basis

    rng = random.Random(23)
    for _ in range(6):
        n = rng.randrange(3, 7)
        m = rng.randrange(2, n)
        import math
        if math.gcd(n, m) == n:
            continue
        f = xp(n) + xp(rng.randrange(1, m))
        g = xp(m)
        if math.gcd(math.gcd(*f.support), m) != 1:
            continue
        res = gamma_at_infinity(f, g)
        basis = global_basis([f, g])
        assert res.semigroup.minimal_generators() == \
            basis.semigroup.minimal_generators()



def test_gamma_at_infinity_matches_global_basis_on_seeded_pairs():
    # approximate roots of the resultant against the general basis loop, on
    # pairs of unequal degrees with up to two lower terms each; a pair whose
    # parametrisation is not proper has no answer from the resultant route
    from curvesgp import global_basis

    rng = random.Random(47)
    coeffs = [Fraction(a, b) for a in (1, -1, 2, -3) for b in (1, 2, 3)]

    def draw(deg):
        exps = [deg] + rng.sample(range(1, deg), min(deg - 1, rng.randrange(0, 3)))
        return P(*[(e, rng.choice(coeffs)) for e in exps])

    seen = {"coprime": 0, "non-coprime": 0, "skipped": 0}
    for _ in range(65):
        n = rng.randrange(2, 9)
        m = rng.choice([k for k in range(2, 12) if k != n])
        f, g = draw(n), draw(m)
        try:
            res = gamma_at_infinity(f, g)
        except ValueError as err:
            assert str(err).startswith((
                "parametrisation is not proper",
                "generators are algebraically dependent in degree 1")), (f, g, err)
            seen["skipped"] += 1
            continue
        basis = global_basis([f, g])
        assert res.semigroup.minimal_generators() == \
            basis.semigroup.minimal_generators(), (f, g)
        seen["coprime" if math.gcd(n, m) == 1 else "non-coprime"] += 1
    assert seen["coprime"] and seen["non-coprime"], seen


_COMPOSITE_COEFFS = (1, -1, 2, -3, "1/2", "-2/3")


def _composite(rng, z, degree, low):
    """F(q) = a_0 + sum_{i=low}^{degree} a_i (q - q(0))^i, for z = q - q(0),
    with a_low and a_degree nonzero."""
    out = P((0, rng.choice(_COMPOSITE_COEFFS)))
    for i in range(low, degree + 1):
        if i in (low, degree) or rng.random() < 0.5:
            out = out + z ** i * P((0, rng.choice(_COMPOSITE_COEFFS)))
    return out


def _composite_pairs(rng):
    """(f, g, z): f = F(q) and g = G(q) with gcd(deg F, deg G) = 1 and
    deg F != deg G, so that no common right factor of F and G has degree
    above 1 and K(f, g) = K(q).  F and G are written at c = q(0) != 0, in
    z = q - c, and have order 1 or 2 there, so that orders of gcd above 1
    also reach the factor search when e = ord z is 1.  Nested q = Q1(Q2)
    have ord(Q2 - Q2(0)) = 1 but e = 2."""
    pick = lambda: rng.choice(_COMPOSITE_COEFFS)  # noqa: E731
    zs = []
    for _ in range(60):
        r = rng.randrange(1, 4)
        e = rng.randrange(1, r + 1)
        zs.append(P(*[(i, pick()) for i in range(e, r + 1)
                      if i in (e, r) or rng.random() < 0.5]))
    for _ in range(8):
        z = _composite(rng, P((1, pick()), (2, pick())), rng.randrange(2, 4), 2)
        zs.append(z - P((0, z.coeff(0))))
    out = []
    for z in zs:
        dF, dG = rng.choice([(1, 2), (2, 1), (1, 3), (3, 1)] + [(2, 3), (3, 2)] * 2)
        f = _composite(rng, z, dF, min(dF, rng.choice((1, 2, 2, 2))))
        g = _composite(rng, z, dG, min(dG, rng.choice((1, 2, 2, 2))))
        out.append((f, g, z))
    return out


def test_plane_pipelines_decide_imprimitivity_on_seeded_composites(monkeypatch):
    # Lüroth: K(f, g) = K(q) here, so the local pipeline must refuse exactly
    # when e = ord(q - q(0)) > 1 and the global one exactly when
    # deg q > 1, each naming q - q(0) made monic.  With e = 1 the descent
    # must end below the precision (D - 1)^2 + 1 of the genus bound, so the
    # cap is put there: a wrongly accepted pair runs into it
    from curvesgp import global_basis
    from curvesgp import planebranch

    rng = random.Random(61)
    seen = {"e > 1": 0, "e = 1, deg q > 1": 0, "deg q = 1": 0, "nested": 0,
            "searched, e = 1": 0}
    for f, g, z in _composite_pairs(rng):
        e, named = int(z.order), str(basis_element(z, "global").poly)
        D = max(f.degree, g.degree)
        monkeypatch.setattr(planebranch, "PRECISION_CAP", (D - 1) ** 2 + 1)
        if e > 1:
            with pytest.raises(ValueError, match="not a primitive") as info:
                gamma_local_pair(f, g)
            assert f"q = {named} of order e = {e}" in str(info.value), (f, g)
            seen["e > 1"] += 1
        else:
            S, _ = gamma_local_pair(f, g)
            basis = local_basis([f, g])
            assert S.minimal_generators() == \
                basis.semigroup.minimal_generators(), (f, g)
            orders = (f - P((0, f.coeff(0)))).order, (g - P((0, g.coeff(0)))).order
            seen["searched, e = 1"] += z.degree > 1 and math.gcd(*orders) > 1
        if z.degree > 1:
            with pytest.raises(ValueError, match="not proper") as info:
                gamma_at_infinity(f, g)
            assert f"q = {named}" in str(info.value), (f, g)
            seen["e = 1, deg q > 1"] += e == 1
            seen["nested"] += z.degree > 3
        else:
            res = gamma_at_infinity(f, g)
            assert res.semigroup.minimal_generators() == \
                global_basis([f, g]).semigroup.minimal_generators(), (f, g)
            seen["deg q = 1"] += 1
    assert all(count >= 3 for count in seen.values()), seen


@pytest.mark.parametrize("f, g, q, e", [
    (xp(2), xp(4) + xp(6), "x^2", 2),
    (xp(6), xp(9) + xp(12), "x^3", 3),
])
def test_plane_local_monomial_route_names_q_and_e(f, g, q, e):
    # f a monomial and g's support in e*N: the descent on g's support
    # would stall at e, so the pair is refused first, naming q = x^e
    from curvesgp import plane_deformation

    for call in (lambda: plane_local(f, g), lambda: plane_local(g, f),
                 lambda: plane_deformation(f, g, "local")):
        with pytest.raises(ValueError, match="not a primitive") as info:
            call()
        assert f"q = {q} of order e = {e}" in str(info.value)


@pytest.mark.parametrize("k", [7, 10])
def test_plane_local_imprimitive_pairs_of_degree_21_and_30_exit_fast(capsys, k):
    # p = t^2 + t^3, f = p + p^2, g = p^2 + p^k: the walk to the degree
    # bound took seconds here; the common right factor p decides at once
    from curvesgp.cli import main

    p = xp(2) + xp(3)
    start = time.perf_counter()
    code = main(["plane-local", str(p + p ** 2), str(p ** 2 + p ** k)])
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "q = x^3+x^2 of order e = 2" in capsys.readouterr().err

def test_gamma_curve_infinity_transcript():
    F = XY({(0, 6): 1, (2, 3): -2, (1, 3): -4, (0, 3): -1, (4, 0): 1})
    res = gamma_curve_infinity(F)
    assert res.semigroup.minimal_generators() == [4, 6, 9]
    assert [str(g) for g in res.roots] == ["y", "y^3-x^2-2*x-1/2"]


def test_gamma_curve_infinity_linear_in_y():
    F = XY({(0, 1): 1, (3, 0): -1, (1, 0): 2})
    res = gamma_curve_infinity(F)
    assert res.semigroup.minimal_generators() == [1]


def test_gamma_curve_infinity_cusp():
    res = gamma_curve_infinity(XY({(0, 2): 1, (3, 0): -1}))
    assert res.semigroup.minimal_generators() == [2, 3]


def test_gamma_curve_infinity_rejects_two_places():
    with pytest.raises(NotOnePlaceAtInfinity):
        gamma_curve_infinity(XY({(0, 2): 1, (2, 0): -1, (0, 0): -1}))


def test_delta_check():
    assert delta_check([10, 4, 5])
    assert NumSgp([10, 4, 5]).minimal_generators() == [4, 5]
    assert not delta_check([4, 6])
    assert delta_check([2, 7])
    assert not delta_check([4, 6, 26])  # gcd chain stalls at 2
    assert not delta_check([4, 6, 13])  # products increase: local, not global


def test_delta_sequence_object():
    seq = delta_sequence([10, 4, 5])
    assert seq.d == (10, 2, 1)
    assert seq.e == (5, 2)
    with pytest.raises(NotOnePlaceAtInfinity):
        delta_sequence([4, 6])


def test_conductor_formula_local():
    seq = char_sequence_from_support(4, {6, 7})
    assert seq.conductor == 16
    assert seq.conductor == NumSgp([4, 6, 13]).conductor


def test_conductor_formula_global():
    res = gamma_at_infinity(xp(6) + xp(3), xp(4))
    assert res.sequence.conductor == NumSgp([6, 4, 9]).conductor


def test_conductor_formula_zero_detects_whole_ring():
    res = gamma_at_infinity(xp(4) + xp(1), xp(2))
    assert res.sequence.conductor == 0
    assert res.semigroup.minimal_generators() == [1]


def test_one_sequence_type_on_seeded_descents():
    # d and e are derived from r alone; by Zariski's gcd(d_k, r_k) =
    # gcd(d_k, m_k) they are the descent's own chain and ratios
    rng = random.Random(83)
    checked = deep = 0
    while checked < 150:
        n = rng.randrange(2, 41)
        supp = {rng.randrange(n + 1, 3 * n + 4) for _ in range(rng.randrange(1, 5))}
        if math.gcd(n, *supp) != 1:
            continue
        seq = char_sequence_from_support(n, supp)
        ds, ms = [n], []
        while ds[-1] != 1:
            ms.append(min(i for i in supp if i % ds[-1]))
            ds.append(math.gcd(ds[-1], ms[-1]))
        assert seq.m == tuple(ms), (n, supp)
        assert seq.d == tuple(ds), (n, supp)
        assert seq.e == tuple(a // b for a, b in zip(ds, ds[1:])), (n, supp)
        assert seq.h == len(ms) == len(seq.r) - 1
        assert seq.conductor == NumSgp(seq.r).conductor, (n, supp)
        checked += 1
        deep += seq.h >= 2
    assert deep >= 30, deep


def test_delta_sequences_of_seeded_pairs():
    # at infinity the arrangement carries no Newton-Puiseux exponents, and
    # its conductor formula is the conductor of the degree semigroup
    rng = random.Random(89)
    coeffs = [Fraction(a, b) for a in (1, -1, 2, -3) for b in (1, 2, 3)]

    def draw(deg):
        exps = [deg] + rng.sample(range(1, deg), min(deg - 1, rng.randrange(0, 3)))
        return P(*[(e, rng.choice(coeffs)) for e in exps])

    checked = deep = 0
    for _ in range(60):
        n = rng.randrange(2, 9)
        f, g = draw(n), draw(rng.choice([k for k in range(2, 12) if k != n]))
        try:
            res = gamma_at_infinity(f, g)
        except ValueError:
            continue  # not proper, or dependent in degree 1
        seq = res.sequence
        assert seq.m is None, (f, g)
        assert seq.conductor == res.semigroup.conductor, (f, g)
        assert seq == delta_sequence(seq.r)
        checked += 1
        deep += seq.h >= 2
    assert checked >= 40 and deep >= 10, (checked, deep)


def test_plane_local_pipeline():
    res = plane_local(xp(4), xp(6) + xp(7))
    assert res.curve == XY({(0, 4): 1, (3, 2): -2, (6, 0): 1, (5, 1): -4,
                            (7, 0): -1})
    assert res.roots[1] == XY({(0, 2): 1, (3, 0): -1})
    assert res.evaluated[1] == P((13, 2), (14, 1))
    assert res.semigroup.minimal_generators() == [4, 6, 13]


def test_plane_local_requires_monomial():
    with pytest.raises(ValueError):
        plane_local(xp(4) + xp(5), xp(6))


def test_plane_pipelines_normalise_and_share_one_table_on_seeded_pairs():
    # plane_local normalises its pair by basis_element, so c*x^n gives the
    # monic call's result; its descent reads r_1, ..., r_h off the orders of
    # the evaluated roots; and every pipeline's semigroup is the one shared
    # table of its arrangement
    rng = random.Random(71)
    local = infinity = 0
    while local < 8:
        n = rng.randrange(2, 9)
        g = _seeded_terms(rng, rng.randrange(n + 1, n + 6), rng.randrange(0, 3))
        if math.gcd(n, *g.support) != 1:
            continue
        res = plane_local(P((n, rng.choice((2, -1, "1/3", "-5/2")))), g)
        monic = plane_local(xp(n), g)
        parts = ("sequence", "curve", "roots", "evaluated", "generators")
        assert [getattr(res, k) for k in parts] == \
            [getattr(monic, k) for k in parts], (n, g)
        assert [p.order for p in res.evaluated] == list(res.sequence.r[1:])
        results = [res]
        try:
            results.append(gamma_at_infinity(xp(n), g))
        except ValueError:
            pass  # not proper
        else:
            results.append(gamma_curve_infinity(results[-1].curve))
            infinity += 1
        for r in results:
            assert r.semigroup is numsgp._monoid(tuple(r.sequence.r)), (n, g)
        local += 1
    assert infinity >= 3, infinity


def test_freeness_of_produced_semigroups():
    from curvesgp import is_free

    for res in (gamma_at_infinity(xp(6) + xp(3), xp(4)),
                gamma_at_infinity(xp(6) + xp(1), xp(4))):
        assert is_free(res.semigroup, list(res.sequence.r))
    S, seq = gamma_local_pair(xp(4), xp(6) + xp(7))
    assert is_free(S, list(seq.r))


def test_char_p_is_rejected():
    F5 = GF(5)
    a = Poly.x_power(4, F5)
    b = Poly.x_power(6, F5) + Poly.x_power(7, F5)
    with pytest.raises(ValueError):
        gamma_local_pair(a, b)
    with pytest.raises(ValueError):
        gamma_at_infinity(b, a)


def _reversion_route(f, g, prec):
    """g(t(s)) mod s^prec by n-th root, Newton reversion and composition."""
    n = int(f.order)
    root = nth_root_series(SeriesApprox(f.shift(-n), prec), n)
    s = SeriesApprox(root.poly.shift(1), prec)
    return compose_series(SeriesApprox(g, prec), reverse_series(s))


def test_reparametrize_matches_reversion_route():
    rng = random.Random(29)
    coeffs = (1, -1, 2, -3, "1/2", "-2/3")
    for _ in range(30):
        n = rng.randrange(1, 7)
        tail = [(n + rng.randrange(1, 7), rng.choice(coeffs))
                for _ in range(rng.randrange(0, 4))]
        f = P((n, 1), *tail)
        exps = rng.sample(range(16), rng.randrange(0, 5))
        g = P(*[(e, rng.choice(coeffs)) for e in exps])
        for prec in (2, rng.randrange(3, 12), rng.randrange(12, 25)):
            got = reparametrize(f, g, prec)
            assert got == _reversion_route(f, g, prec).poly, (f, g, prec)
            assert all(isinstance(c, Fraction) for c in got.coeffs.values())


def test_reparametrize_matches_reversion_route_on_doubling_path():
    # prefixes past every exponent of g: 2 (n + max supp g) and twice that
    rng = random.Random(31)
    for _ in range(3):
        n = rng.randrange(2, 5)
        f = P((n, 1), (n + 1, rng.choice((1, -2))), (n + 3, "1/3"))
        g = P((n + 1, 1), (n + 2, rng.choice((-1, 2))))
        prec = 2 * (n + max(g.support))
        for p in (prec, 2 * prec):
            assert reparametrize(f, g, p) == _reversion_route(f, g, p).poly, (f, g, p)


def test_reparametrize_needs_characteristic_zero():
    for p in (5, 7):  # 5 divides the order 5, 7 does not: both rejected
        F = GF(p)
        f = Poly.x_power(5, F) + Poly.x_power(6, F)
        with pytest.raises(ValueError, match="characteristic zero"):
            reparametrize(f, Poly.x_power(7, F), 10)
    with pytest.raises(ValueError, match="positive order"):
        reparametrize(P((0, 1), (1, 1)), xp(3), 10)
    for prec in (0, -1):
        with pytest.raises(ValueError, match="precision must be positive"):
            reparametrize(xp(2) + xp(3), xp(3), prec)


def test_dedekind_conductor_formula_on_seeded_pairs():
    # for a branch with primitive parametrisation (x(t), y(t)) and local
    # equation F, c = I_0(F, F_y) - n + 1 = ord_t F_y(x, y) - (n - 1) with
    # n = ord x: Milnor's mu = 2 delta = c for a branch and Teissier's lemma
    # I_0(F, F_y) = mu + I_0(F, x) - 1 (Dedekind's conductor-different
    # formula); no descent and no basis is needed
    rng = random.Random(71)
    seen = {"checked": 0, "imprimitive": 0, "second branch": 0}
    for _ in range(150):
        n = rng.randrange(2, 9)
        f = _seeded_terms(rng, n, rng.randrange(1, 3))
        g = _seeded_terms(rng, rng.randrange(max(1, n - 3), n + 7),
                          rng.randrange(0, 3))
        try:
            S, _ = gamma_local_pair(f, g)
        except ValueError:
            seen["imprimitive"] += 1  # t -> (f, g) is not primitive
            continue
        F = curve_resultant(f, g)
        if min(b for (a, b) in F.coeffs if a == 0) > n:
            # f has a root t != 0 with g(t) = 0: a second branch of F
            # passes through the origin and adds its intersection number
            seen["second branch"] += 1
            continue
        Fy = MPoly(F.vars, F.field, {(a, b - 1): b * c
                                     for (a, b), c in F.coeffs.items() if b})
        c = eval_bipoly(Fy, f, g).order - (n - 1)
        assert c == S.conductor, (f, g)
        assert c == local_basis([f, g]).semigroup.conductor, (f, g)
        seen["checked"] += 1
    assert seen["checked"] >= 100 and seen["imprimitive"] and seen["second branch"], seen
