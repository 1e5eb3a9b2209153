"""Acceptance suite: one test per criterion, each printing a pass line.

Every assertion here is exact (integer or rational equality); run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import math
import random
from fractions import Fraction

from curvesgp import (
    GF,
    MPoly,
    NumSgp,
    Poly,
    curve_resultant,
    delta_check,
    gamma_at_infinity,
    gamma_local_pair,
    global_basis,
    is_free,
    local_basis,
    plane_deformation,
    plane_local,
    presentation_for_generators,
    reduced_basis,
)
from curvesgp.cli import main
from curvesgp.planebranch import char_sequence_from_support, delta_sequence
from curvesgp.reduction import BasisElement, ReductionContext, reduce_poly
from util import UX, XY, P, presentation_is_complete, subs, xp


def ok(n, text):
    print(f"[PASS] criterion {n}: {text}")


def test_criterion_01_transcript_example(capsys):
    code = main(["local", "x^4+x^5,x^6,x^15+x^16", "--show", "reduced"])
    out = capsys.readouterr().out
    assert code == 0
    assert "minimal generators: [4, 6, 13, 15]" in out
    assert "value 13: x^13" in out
    basis = local_basis([xp(4) + xp(5), xp(6), xp(15) + xp(16)])
    assert basis.semigroup.minimal_generators() == [4, 6, 13, 15]
    red = {e.value: e.poly for e in reduced_basis(basis).elements}
    assert red[13] == xp(13)
    with capsys.disabled():
        ok(1, "local x^4+x^5,x^6,x^15+x^16 -> [4,6,13,15] with reduced x^13")


def test_criterion_02_battery():
    battery = [
        ([xp(6), xp(8) + xp(9), xp(19)], [6, 8, 19, 29]),
        ([xp(7), xp(9) + xp(10), xp(19), xp(31)], [7, 9, 19, 29, 31]),
        ([xp(7), xp(21) + xp(28) + xp(33)], [7, 33]),
        ([xp(4), xp(6) + xp(7), xp(13)], [4, 6, 13, 15]),
        ([xp(6), xp(8) + xp(11), xp(10) + xp(13, 2), xp(21)],
         [6, 8, 10, 21, 23, 25]),
        ([xp(5), -xp(18) - xp(21), -xp(23), -xp(26)], [5, 18, 26, 39, 47]),
        ([xp(5), -xp(18) - xp(21), -xp(26)], [5, 18, 26, 39, 47]),
        ([xp(5), -xp(18) - xp(21), xp(23) - xp(26)], [5, 18, 26, 39, 47]),
        ([xp(6), xp(9) + xp(10), xp(19)], [6, 9, 19, 20]),
        ([xp(7), xp(9) + xp(10), xp(19)], [7, 9, 19, 29]),
        ([xp(8), xp(9) + xp(10), xp(19)], [8, 9, 19, 30]),
        ([xp(7), xp(9) + xp(10), xp(17), xp(19)], [7, 9, 17, 19, 29]),
    ]
    for gens, expected in battery:
        assert local_basis(gens).semigroup.minimal_generators() == expected
    ok(2, "all 12 battery inputs reproduce their minimal generating systems")


def test_criterion_03_reduced_basis_8_12(capsys):
    basis = local_basis([xp(8), P((12, 1), (14, 1), (15, 1))])
    S = basis.semigroup
    assert S.minimal_generators() == [8, 12, 26, 53]
    assert S.genus == 42
    red = [e.poly for e in reduced_basis(basis).elements]
    assert red == [
        xp(8),
        P((12, 1), (14, 1), (15, 1)),
        P((26, 1), (27, 1), (29, 1), (31, "-1/2")),
        P((53, 1), (55, "1/2"), (57, "-1/2"), (63, "-1/8"), (67, "25/8"),
          (71, "-95/32"), (75, "-15/16"), (83, "-135/32")),
    ]
    code = main(["local", "x^8,x^12+x^14+x^15", "--show", "reduced"])
    out = capsys.readouterr().out
    assert code == 0
    assert "-135/32*x^83-15/16*x^75-95/32*x^71+25/8*x^67-1/8*x^63" \
           "-1/2*x^57+1/2*x^55+x^53" in out
    with capsys.disabled():
        ok(3, "reduced basis of K[[x^8, x^12+x^14+x^15]] with exact rationals")


def test_criterion_04_char_dependence():
    def third(a14, a15, field):
        return Poly.from_terms([(13, 1), (14, a14), (15, a15)], field)

    from curvesgp import QQ
    b = local_basis([xp(4), xp(6) + xp(7), third(Fraction(1, 2), 0, QQ)])
    assert b.semigroup.minimal_generators() == [4, 6, 13]
    assert b.semigroup.is_symmetric()
    assert b.semigroup.genus == 8
    b = local_basis([xp(4), xp(6) + xp(7), third(0, 0, QQ)])
    assert b.semigroup.minimal_generators() == [4, 6, 13, 15]
    assert b.semigroup.genus == 7
    F2 = GF(2)
    gens2 = [Poly.x_power(4, F2),
             Poly.x_power(6, F2) + Poly.x_power(7, F2),
             third(0, 0, F2)]
    b = local_basis(gens2)
    assert b.semigroup.minimal_generators() == [4, 6, 13, 15]
    assert b.semigroup.genus == 7
    ok(4, "tail (1/2,0) gives symmetric <4,6,13>; (0,0) and GF(2) give <4,6,13,15>")


def test_criterion_05_resultant_and_2_7():
    F = curve_resultant(xp(7), xp(4) + xp(2))
    assert F == XY({(0, 7): 1, (2, 3): -7, (4, 0): -1, (2, 2): -14,
                    (2, 1): -7, (2, 0): -1})
    S, seq = gamma_local_pair(xp(7), xp(4) + xp(2))
    assert S.minimal_generators() == [2, 7]
    assert is_free(S, list(seq.r))
    ok(5, "Res_t(x-t^7, y-t^4-t^2) exact; gamma of (t^7, t^4+t^2) = <2,7>, free")


def test_criterion_06_plane_local_pipeline():
    res = plane_local(xp(4), xp(6) + xp(7))
    assert res.curve == XY({(0, 4): 1, (3, 2): -2, (6, 0): 1, (5, 1): -4,
                            (7, 0): -1})
    assert res.roots[1] == XY({(0, 2): 1, (3, 0): -1})
    assert res.evaluated[1] == P((13, 2), (14, 1))
    assert res.semigroup.minimal_generators() == [4, 6, 13]
    basis = local_basis([xp(4), xp(6) + xp(7)])
    assert basis.semigroup.minimal_generators() == [4, 6, 13]
    red = [e.poly for e in reduced_basis(basis).elements]
    assert red == [xp(4), xp(6) + xp(7), P((13, 1), (15, "-1/2"))]
    ok(6, "plane-local (x^4, x^6+x^7): F, G2, g2, <4,6,13>, reduced x^13-1/2*x^15")


def test_criterion_07_infinity_pipelines(capsys):
    code = main(["curve-infinity", "y^6-2*x^2*y^3-4*x*y^3-y^3+x^4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "minimal generators: [4, 6, 9]" in out
    assert "approximate roots: y, y^3-x^2-2*x-1/2" in out
    res = gamma_at_infinity(xp(6) + xp(1), xp(4))
    assert res.semigroup.minimal_generators() == [4, 6, 7]
    assert res.roots[1] == XY({(0, 3): 1, (2, 0): -1})
    assert res.evaluated[1] == P((7, -2), (2, -1))
    with capsys.disabled():
        ok(7, "curve-infinity [4,6,9] with roots; plane-infinity <4,6,7>, "
              "G2=y^3-x^2, g2=-2x^7-x^2")


def test_criterion_08_deformations():
    def specialize_u(mp, value):
        f = mp.field
        out = {}
        for e, c in mp.coeffs.items():
            key = (0,) + e[1:]
            out[key] = f.add(out.get(key, f.zero),
                             f.mul(c, f.coerce(value) ** e[0]))
        return MPoly(mp.vars, f, out)

    def verify(ds):
        for rel in ds.relators:
            assert rel.complete
            assert specialize_u(rel.homogenized, 1) == rel.exact
            assert specialize_u(rel.homogenized, 0) == rel.toric
            subst = {f"X{i}": p for i, p in enumerate(ds.generators)}
            assert rel.exact.eval_univariate(subst).is_zero
            ux = {"u": MPoly.variable(("u", "x"), "u", ds.generators[0].field)}
            ux.update({f"X{i}": h
                       for i, h in enumerate(ds.homogenized_generators)})
            assert subs(rel.homogenized, ux).is_zero

    local = plane_deformation(xp(4), xp(6) + xp(7), "local")
    assert local.homogenized[1] == UX(
        {(0, 0, 0, 2): 1, (0, 5, 1, 0): -4, (2, 7, 0, 0): -1}, 3)
    verify(local)
    glob = plane_deformation(xp(6) + xp(1), xp(4), "global")
    assert glob.homogenized[1] == UX(
        {(0, 0, 0, 2): 1, (0, 1, 2, 0): -4, (10, 0, 1, 0): -1}, 3)
    verify(glob)
    ok(8, "second relators X2^2-4*X0^5*X1-u^2*X0^7 and X2^2-4*X0*X1^2-u^10*X1; "
          "all specialisation and substitution identities hold")


def test_criterion_09_remark_facts():
    S = NumSgp([4, 6, 13, 15])
    assert S.conductor == 12
    assert S.genus == 7
    assert S.sporadic_count() == 5
    assert S.type_set() == [2, 9, 11]
    ok(9, "<4,6,13,15>: conductor 12, genus 7, sporadic 5, T = {2,9,11}")


def _random_gcd_one(rng, k, lo=2, hi=13):
    while True:
        vals = [rng.randrange(lo, hi) for _ in range(k)]
        if math.gcd(*vals) == 1:
            return vals


def _suite_value_additivity():
    rng = random.Random(201)
    fields = [None, GF(7)]
    cases = 0
    for _ in range(100):
        for fld in fields:
            field = fld or xp(1).field
            def rand_poly():
                while True:
                    p = Poly.from_terms(
                        [(rng.randrange(0, 12), rng.randrange(-4, 5))
                         for _ in range(rng.randrange(1, 5))], field)
                    if not p.is_zero:
                        return p
            f, g = rand_poly(), rand_poly()
            assert (f * g).order == f.order + g.order
            assert (f * g).degree == f.degree + g.degree
            s = f + g
            if not s.is_zero:
                assert s.order >= min(f.order, g.order)
            if f.order != g.order:
                assert s.order == min(f.order, g.order)
            cases += 1
    return cases


def _random_local_context(rng):
    vals = _random_gcd_one(rng, rng.randrange(2, 4))
    elements = []
    for v in vals:
        tail = [(v + rng.randrange(1, 7), rng.randrange(-3, 4))
                for _ in range(rng.randrange(0, 3))]
        elements.append(BasisElement(P(*([(v, 1)] + tail)), v))
    return ReductionContext(elements, "local")


def _suite_remainder_in_gaps():
    rng = random.Random(203)
    cases = 0
    while cases < 200:
        ctx = _random_local_context(rng)
        gaps = set(ctx.semigroup.gaps())
        f = Poly.from_terms([(rng.randrange(1, 25), rng.randrange(-4, 5))
                             for _ in range(rng.randrange(1, 5))])
        if f.is_zero:
            continue
        out = reduce_poly(f, ctx, "reduced")
        assert set(out.remainder.support) <= gaps
        cases += 1
    return cases


def _suite_permutation_invariance():
    rng = random.Random(205)
    bases = [
        local_basis([xp(4) + xp(5), xp(6), xp(15) + xp(16)]),
        local_basis([xp(4), xp(6) + xp(7)]),
        local_basis([xp(6), xp(8) + xp(9), xp(19)]),
        local_basis([xp(5), xp(7) + xp(9)]),
    ]
    cases = 0
    while cases < 200:
        basis = rng.choice(bases)
        f = Poly.from_terms([(rng.randrange(1, 30), rng.randrange(-4, 5))
                             for _ in range(rng.randrange(1, 5))])
        if f.is_zero:
            continue
        baseline = reduce_poly(f, basis, "reduced").remainder
        perm = list(basis.elements)
        rng.shuffle(perm)
        permuted = reduce_poly(f, ReductionContext(perm, "local"),
                               "reduced").remainder
        assert baseline == permuted
        cases += 1
    return cases


def _suite_soundness_completeness():
    rng = random.Random(207)
    bases = [
        local_basis([xp(4) + xp(5), xp(6), xp(15) + xp(16)]),
        local_basis([xp(4), xp(6) + xp(7)]),
        local_basis([xp(8), P((12, 1), (14, 1), (15, 1))]),
    ]
    cases = 0
    while cases < 200:
        basis = rng.choice(bases)
        ctx = basis
        combo = Poly.zero(basis.field)
        for _ in range(rng.randrange(1, 4)):
            theta = tuple(rng.randrange(0, 3) for _ in basis.elements)
            if not any(theta):
                continue
            combo = combo + ctx.product(theta).scale(rng.randrange(-3, 4))
        if combo.is_zero:
            continue
        assert basis.semigroup.contains(int(combo.order))
        assert reduce_poly(combo, ctx, "algorithmic").remainder.is_zero
        cases += 1
    for basis in bases:
        assert set(basis.semigroup.minimal_generators()) <= set(basis.values)
    return cases


def _suite_presentation_sweep():
    rng = random.Random(209)
    cases = 0
    for _ in range(200):
        k = rng.randrange(2, 4)
        vals = [rng.randrange(2, 13) for _ in range(k)]
        pres = presentation_for_generators(tuple(vals))
        assert presentation_is_complete(vals, pres.pairs)
        cases += 1
    return cases


def _suite_conductor_formula():
    rng = random.Random(211)
    cases = 0
    while cases < 100:  # local characteristic sequences
        n = rng.randrange(2, 11)
        supp = sorted({rng.randrange(n + 1, n + 16)
                       for _ in range(rng.randrange(1, 4))})
        if math.gcd(n, math.gcd(*supp)) != 1:
            continue
        try:
            seq = char_sequence_from_support(n, supp)
        except ValueError:
            continue
        assert seq.conductor == NumSgp(seq.r).conductor
        cases += 1
    while cases < 200:  # global delta-sequences
        if rng.random() < 0.5:
            n = rng.randrange(2, 12)
            m = rng.randrange(2, 12)
            if math.gcd(n, m) != 1 or m >= n:
                continue
            candidate = [n, m]
        else:
            d2 = rng.choice([2, 3])
            u = rng.randrange(2, 5)
            v = rng.randrange(2, 5)
            if math.gcd(u, v) != 1:
                continue
            r0, r1 = d2 * u, d2 * v
            r2 = rng.randrange(1, 3) * u + rng.randrange(1, 3) * v
            candidate = [r0, r1, r2]
        if not delta_check(candidate):
            continue
        seq = delta_sequence(candidate)
        assert seq.conductor == NumSgp(seq.r).conductor
        cases += 1
    return cases


def _suite_coprime_shortcut():
    rng = random.Random(213)
    cases = 0
    while cases < 200:
        n = rng.randrange(2, 10)
        m = rng.randrange(2, 10)
        if math.gcd(n, m) != 1 or n == m:
            continue
        f = P(*([(n, 1)] + [(rng.randrange(0, n), rng.randrange(-3, 4))
                            for _ in range(rng.randrange(0, 3))]))
        g = P(*([(m, 1)] + [(rng.randrange(0, m), rng.randrange(-3, 4))
                            for _ in range(rng.randrange(0, 3))]))
        basis = global_basis([f, g])
        assert len(basis.elements) == 2
        assert basis.semigroup.minimal_generators() == sorted(
            NumSgp([n, m]).minimal_generators())
        cases += 1
    return cases


def test_criterion_10_property_suites():
    counts = {
        "order/degree additivity": _suite_value_additivity(),
        "remainder support in gaps": _suite_remainder_in_gaps(),
        "permutation invariance": _suite_permutation_invariance(),
        "soundness/completeness": _suite_soundness_completeness(),
        "presentation sweep": _suite_presentation_sweep(),
        "conductor formula": _suite_conductor_formula(),
        "coprime-degree shortcut": _suite_coprime_shortcut(),
    }
    assert all(c >= 200 for c in counts.values()), counts
    ok(10, "property suites, cases: " + ", ".join(
        f"{k}={v}" for k, v in counts.items()))


def test_criterion_11_delta_sequences():
    assert delta_check([10, 4, 5])
    S = NumSgp([10, 4, 5])
    assert S.minimal_generators() == [4, 5]
    assert not delta_check([4, 6])
    ok(11, "(10,4,5) is a delta-sequence generating <4,5>; (4,6) rejected")
