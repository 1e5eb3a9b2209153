"""Canonical rationals: over Q every coefficient that a route hands back is
an ``int`` when it is integral and otherwise a ``Fraction`` with
denominator > 1, never a float.  Seeded inputs mix integral and fractional
coefficients, and leading and trailing ones that normalisation divides by.
"""

import random
from fractions import Fraction

import pytest

from curvesgp import (GF, MPoly, Poly, QQ, ReductionContext, approximate_root,
                      curve_resultant, deform_from_basis, eval_bipoly,
                      global_basis, local_basis, parse_mpoly, parse_poly,
                      reduce_poly, reduced_basis, reparametrize)
from curvesgp.fields import rational
from curvesgp.reduction import basis_element, build_basis
from util import (P, is_canonical, reference_basis_element,
                  reference_reduced_basis)

POOL = (1, -1, 2, -3, 6, "1/2", "-2/3", "3/4", "5/6", "-7/3")


def coefficients(value):
    """Every coefficient held by a Poly, an MPoly or a list of either."""
    if isinstance(value, (Poly, MPoly)):
        return list(value.coeffs.values())
    return [c for v in value for c in coefficients(v)]


def assert_canonical(value, what):
    bad = [c for c in coefficients(value) if not is_canonical(c)]
    assert not bad, (what, bad)


def random_poly(rng, order, top, terms):
    """order's term first, with a coefficient from POOL, then up to terms
    more above it, below top."""
    exps = rng.sample(range(order + 1, top), min(terms, top - order - 1))
    return P((order, rng.choice(POOL)), *[(e, rng.choice(POOL)) for e in exps])


def test_rational_is_canonical():
    for num in range(-12, 13):
        for den in (1, -1, 2, -3, 4, 6, 12):
            q = rational(num, den)
            assert is_canonical(q) and q == Fraction(num, den), (num, den)
    for a in (0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4)):
        for b in (1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4, 3)):
            got = [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.div(a, b),
                   QQ.inv(b), QQ.neg(a), QQ.coerce(b), QQ.coerce(str(b))]
            assert all(map(is_canonical, got)), (a, b, got)
            assert got[3] == Fraction(a) / Fraction(b)


def test_constructors_store_canonical_coefficients():
    # the same polynomial is stored one way, however its coefficients came
    gf5 = GF(5)
    assert Poly(gf5, {1: 7}) == Poly(gf5, {1: 2})
    assert Poly(gf5, {1: 7, 2: 5, 3: -1}).coeffs == {1: 2, 3: 4}
    assert Poly(gf5, {1: Fraction(1, 2)}).coeffs == {1: 3}
    assert MPoly(("x", "y"), gf5, {(1, 0): 7, (0, 1): 10}).coeffs == {(1, 0): 2}
    f = Poly(QQ, {0: Fraction(2), 1: True, 2: Fraction(0), 3: False,
                  4: Fraction(6, 4)})
    assert f.coeffs == {0: 2, 1: 1, 4: Fraction(3, 2)}
    assert all(map(is_canonical, f.coeffs.values()))
    assert f == P((0, 2), (1, 1), (4, "3/2"))
    F = MPoly(("x", "y"), QQ, {(0, 1): Fraction(1), (1, 0): True, (1, 1): 0})
    assert F.coeffs == {(0, 1): 1, (1, 0): 1}
    assert all(type(c) is int for c in F.coeffs.values())
    assert f * f == P((0, 4), (1, 4), (2, 1), (4, 6), (5, 3), (8, "9/4"))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_constructors_refuse_floats(field):
    with pytest.raises(TypeError):
        Poly(field, {1: 0.5})
    with pytest.raises(TypeError):
        Poly(field, {0: 1, 1: 2.0})
    with pytest.raises(TypeError):
        MPoly(("x", "y"), field, {(1, 0): 0.5})


def test_parser_output_is_canonical_in_both_fields():
    # a sum of fractions that comes out whole, and residues past p
    assert parse_poly("1/2*x+1/2*x+1/3-1/3+x^2/4*4").coeffs == {1: 1, 2: 1}
    assert parse_poly("7*x+10+1/2*x^2", 5).coeffs == {1: 2, 2: 3}
    assert parse_poly("7*x+10+1/2*x^2", 5) == Poly(GF(5), {1: 7, 2: 8})
    F = parse_mpoly("1/3*x*y+2/3*x*y+5*y", ("x", "y"), 5)
    assert F.coeffs == {(1, 1): 1}
    for text in ("(1/2*x+1/2)^2*4", "(1/3*x+2/3*x)^3-x^3+x^2"):
        assert all(type(c) is int for c in parse_poly(text).coeffs.values())


def test_parsing_and_poly_arithmetic_are_canonical():
    rng = random.Random(41)
    for text in ("1/2*x^2+1/2*x^2+3/4*x", "(1/2*x+1/2)^2*4", "2/2*x^3-6/3",
                 "(2/3*x^2+1/3)*(3/2*x-3)", "x^4/4*4+x/3"):
        assert_canonical(parse_poly(text), text)
        assert_canonical(parse_mpoly(text.replace("x^4", "y^4"), ("x", "y")),
                         text)
    for _ in range(60):
        f = random_poly(rng, rng.randrange(0, 4), 12, rng.randrange(0, 5))
        g = random_poly(rng, rng.randrange(0, 4), 12, rng.randrange(0, 5))
        c = QQ.coerce(rng.choice(POOL))
        assert_canonical([f + g, f - g, -f, f * g, f ** 3, f.scale(c),
                          f.scale(QQ.inv(f.leading_coeff)), f.derivative()],
                         (f, g))
        assert_canonical(parse_poly(str(f * g)), str(f * g))


def test_bases_reductions_and_deformations_are_canonical():
    rng = random.Random(43)
    for _ in range(12):
        n, m = rng.choice([(3, 4), (4, 5), (3, 5), (4, 7)])
        gens = [random_poly(rng, n, n + 6, 2), random_poly(rng, m, m + 6, 2)]
        local = local_basis(gens)
        assert_canonical([e.poly for e in local.elements], gens)
        assert_canonical([e.poly for e in reduced_basis(local).elements], gens)
        # coprime degrees n and m, every other term below them
        top = [random_poly(rng, 0, k, 2) + P((k, rng.choice(POOL))) for k in (n, m)]
        glob = global_basis(top)
        assert_canonical([e.poly for e in glob.elements], top)
        assert_canonical([e.poly for e in reduced_basis(glob).elements], top)
        for basis in (local, glob):
            ds = deform_from_basis(basis)
            assert_canonical([ds.generators, ds.homogenized_generators, ds.toric,
                              ds.exact, ds.homogenized], gens)
        # the normalisers against their Poly-arithmetic references: inputs
        # with and without a constant term, the value's coefficient 1 and
        # not 1, over Q and GF(101), in both settings; the wide pairs have
        # values of gcd 2, so their bases adjoin elements
        wide = {"local": [P((4, rng.choice(POOL)), (rng.choice((5, 7)), 1)),
                          random_poly(rng, 6, 12, 2)],
                "global": [P((6, rng.choice(POOL)), (rng.choice((1, 3, 5)), 1)),
                           P((4, rng.choice(POOL)), (rng.randrange(1, 4), -1))]}
        for field in (QQ, GF(101)):
            for setting, polys in (("local", gens), ("global", top)):
                for p in polys:
                    value = p.order if setting == "local" else p.degree
                    for const in (0, "5/2"):
                        for lead in (1, "-2/3"):
                            q = Poly(field, {**p.coeffs, value: lead, 0: const})
                            assert basis_element(q, setting) == \
                                reference_basis_element(q, setting), (q, setting)
                for basis in (build_basis([Poly(field, p.coeffs) for p in polys],
                                          setting),
                              build_basis([Poly(field, p.coeffs)
                                           for p in wide[setting]], setting)):
                    got = [tuple(e) for e in reduced_basis(basis).elements]
                    assert got == reference_reduced_basis(basis), (basis.elements,
                                                                   setting)
        f = random_poly(rng, n + m, n + m + 8, 4)
        elems = [basis_element(g, "local") for g in gens]
        for mode in ("expression", "reduced", "algorithmic"):
            out = reduce_poly(f, ReductionContext(elems, "local"), mode)
            assert_canonical(out.remainder, (f, mode))
            assert all(is_canonical(c) for c, _ in out.expression), (f, mode)


def test_plane_routes_are_canonical():
    rng = random.Random(47)
    for _ in range(12):
        n = rng.choice((2, 3, 4))
        f = P((n, 1), *[(n + k, rng.choice(POOL)) for k in rng.sample(range(1, 5), 2)])
        g = random_poly(rng, rng.randrange(n + 1, 2 * n + 2), 12, 2)
        assert_canonical(reparametrize(f, g, 10), (f, g))
        F = curve_resultant(f, g)
        assert_canonical(F, (f, g))
        for d in (d for d in range(1, F.degree_in("y") + 1) if F.degree_in("y") % d == 0):
            G = approximate_root(F, d)
            assert_canonical(G, (F, d))
            assert_canonical(eval_bipoly(G, f, g), (G, f, g))
