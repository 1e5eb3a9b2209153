import random

import pytest

from curvesgp import (
    GF,
    QQ,
    BasisElement,
    LimitExceeded,
    MPoly,
    Poly,
    ReductionContext,
    ci_relations,
    deform,
    deform_from_basis,
    gamma_at_infinity,
    global_basis,
    homogenize,
    local_basis,
    plane_deformation,
    presentation_for_generators,
    value_of,
)
from curvesgp.planebranch import char_sequence_from_support, delta_sequence
from curvesgp.reduction import build_basis
from util import UX, P, deadline, subs, to_poly, xp


def specialize_u(mp: MPoly, value) -> MPoly:
    """Substitute a constant for u, keeping the variable tuple."""
    f = mp.field
    out = {}
    for e, c in mp.coeffs.items():
        key = (0,) + e[1:]
        out[key] = f.coerce(out.get(key, 0) + c * f.coerce(value) ** e[0])
    return MPoly(mp.vars, f, out)


def context(polys, setting):
    """The polynomials as basis elements valued in the setting, unscaled."""
    return ReductionContext([BasisElement(p, value_of(p, setting)) for p in polys],
                            setting)


def lifted_values(relator: MPoly, values, setting) -> set:
    """The value of each term u^a X^theta: -a + sum theta_i v_i locally,
    a + sum theta_i v_i globally."""
    sign = -1 if setting == "local" else 1
    return {sign * e[0] + sum(t * v for t, v in zip(e[1:], values))
            for e in relator.coeffs}


def extremal_product(gens, exps, setting):
    """The extremal coefficient of prod gens_i^exps_i: the product of the
    generators' own."""
    f = gens[0].field
    out = 1
    for g, k in zip(gens, exps):
        out = f.coerce(out * g.coeffs[value_of(g, setting)] ** k)
    return out


def check_invariants(ds):
    """Specialisation, exactness, homogeneity and count for a DeformationSet."""
    values = [value_of(p, ds.setting) for p in ds.generators]
    field = ds.generators[0].field
    for rel in ds.relators:
        assert specialize_u(rel.homogenized, 1) == rel.exact
        assert specialize_u(rel.homogenized, 0) == rel.toric
        assert lifted_values(rel.homogenized, values, ds.setting) == {rel.value}
        # F = X^alpha - kappa X^beta, kappa the ratio of the extremal
        # coefficients of f^alpha and f^beta, so nonzero
        kappa = field.div(extremal_product(ds.generators, rel.alpha, ds.setting),
                          extremal_product(ds.generators, rel.beta, ds.setting))
        assert rel.toric.coeffs == {(0,) + tuple(rel.alpha): 1,
                                    (0,) + tuple(rel.beta): field.coerce(-kappa)}
        # every other term of H is a step's, at u^{|D_theta - value|} >= 1
        for e in rel.homogenized.coeffs.keys() - rel.toric.coeffs.keys():
            weight = sum(t * v for t, v in zip(e[1:], values))
            assert e[0] == abs(weight - rel.value) >= 1, (rel, e)
        if rel.complete:
            subst = {f"X{i}": p for i, p in enumerate(ds.generators)}
            assert rel.exact.eval_univariate(subst).is_zero
            ux = {"u": MPoly.variable(("u", "x"), "u", ds.generators[0].field)}
            ux.update({f"X{i}": h
                       for i, h in enumerate(ds.homogenized_generators)})
            assert subs(rel.homogenized, ux).is_zero


def test_homogenize_local_examples():
    assert homogenize(xp(6) + xp(7), "local") == MPoly(
        ("u", "x"), xp(1).field, {(0, 6): 1, (1, 7): 1})
    assert homogenize(xp(5), "local") == MPoly(("u", "x"), xp(1).field, {(0, 5): 1})
    with pytest.raises(ValueError):
        homogenize(Poly.zero(), "local")


def test_homogenize_local_specialises_to_input():
    f = P((4, 1), (6, -2), (9, "1/3"))
    H = homogenize(f, "local")
    assert to_poly(specialize_u(H, 1)) == f


def test_homogenize_global_examples():
    assert homogenize(xp(6) + xp(3), "global") == MPoly(
        ("u", "x"), xp(1).field, {(0, 6): 1, (3, 3): 1})
    assert homogenize(xp(6) + xp(1), "global") == MPoly(
        ("u", "x"), xp(1).field, {(0, 6): 1, (5, 1): 1})
    f = P((0, 2), (3, -1), (7, 4))
    assert to_poly(specialize_u(homogenize(f, "global"), 1)) == f


def test_plane_deformation_local_paper_relators():
    ds = plane_deformation(xp(4), xp(6) + xp(7), "local")
    # generators carry the raw evaluation 2x^13 + x^14 (X2 rescaled by 1/2)
    assert ds.generators[2] == P((13, 2), (14, 1))
    assert [str(h) for h in ds.homogenized_generators] == [
        "x^4", "u*x^7+x^6", "u*x^14+2*x^13"]
    h1, h2 = ds.homogenized
    assert h1 == UX({(0, 0, 2, 0): 1, (0, 3, 0, 0): -1, (1, 0, 0, 1): -1}, 3)
    assert h2 == UX({(0, 0, 0, 2): 1, (0, 5, 1, 0): -4, (2, 7, 0, 0): -1}, 3)
    check_invariants(ds)


def test_plane_deformation_global_paper_relators():
    ds = plane_deformation(xp(6) + xp(1), xp(4), "global")
    assert ds.generators[2] == P((7, 2), (2, 1))
    assert [str(h) for h in ds.homogenized_generators] == [
        "x^6+u^5*x", "x^4", "2*x^7+u^5*x^2"]
    h1, h2 = ds.homogenized
    assert h1 == UX({(0, 0, 3, 0): 1, (0, 2, 0, 0): -1, (5, 0, 0, 1): 1}, 3)
    assert h2 == UX({(0, 0, 0, 2): 1, (0, 1, 2, 0): -4, (10, 0, 1, 0): -1}, 3)
    check_invariants(ds)


def test_monomial_input_has_trivial_corrections():
    ctx = context([xp(4), xp(6)], "local")
    ds = deform(ctx, presentation_for_generators(ctx.values))
    for rel in ds.relators:
        assert rel.exact == rel.toric
        assert rel.homogenized == rel.toric
    check_invariants(ds)


def test_deform_from_local_basis():
    basis = local_basis([xp(4) + xp(5), xp(6), xp(15) + xp(16)])
    # the value-30 relation has no finite expression within the default
    # bound: its relator must arrive flagged inexact
    ds = deform_from_basis(basis)
    assert len(ds.relators) == len(basis.presentation.pairs)
    assert 30 in [r.value for r in ds.relators if not r.complete]
    check_invariants(ds)


def test_deform_from_global_basis():
    basis = global_basis([xp(6) + xp(3), xp(4)])
    ds = deform_from_basis(basis)
    assert len(ds.relators) == len(basis.presentation.pairs)
    assert all(ds.complete)
    check_invariants(ds)


def test_deform_rejects_non_basis():
    ctx = context([xp(4) + xp(5), xp(6), xp(15) + xp(16)], "local")
    with pytest.raises(ValueError):
        deform(ctx, presentation_for_generators(ctx.values))


def test_free_toric_target():
    seq = char_sequence_from_support(4, {6, 7})
    pres = ci_relations(seq.r)
    assert [(p.alpha, p.beta) for p in pres.pairs] == [
        ((0, 2, 0), (3, 0, 0)), ((0, 0, 2), (5, 1, 0))]
    seq2 = gamma_at_infinity(xp(6) + xp(1), xp(4)).sequence
    pres2 = ci_relations(seq2.r)
    assert [(p.alpha, p.beta) for p in pres2.pairs] == [
        ((0, 3, 0), (2, 0, 0)), ((0, 0, 2), (1, 2, 0))]
    assert ci_relations(delta_sequence([1]).r).pairs == ()


def test_relator_count_matches_presentation():
    basis = local_basis([xp(8), P((12, 1), (14, 1), (15, 1))])
    ds = deform_from_basis(basis)
    assert len(ds.relators) == len(basis.semigroup.minimal_presentation().pairs)


def test_deform_from_basis_divides_by_the_basis(monkeypatch):
    # a ValueBasis is a reduction context: its deformation builds no second
    # one, and it divides exactly as a fresh context on the same elements
    rng = random.Random(19)
    built = []
    init = ReductionContext.__init__

    def counted_init(self, *args, **kw):
        built.append(type(self).__name__)
        init(self, *args, **kw)

    monkeypatch.setattr(ReductionContext, "__init__", counted_init)
    with deadline(30):
        for field in (QQ, GF(101)):
            for setting in ("local", "global"):
                done = 0
                while done < 3:
                    gens = []
                    for value in sorted(rng.sample(range(2, 9), 2)):
                        side = (range(value + 1, value + 6) if setting == "local"
                                else range(0, value))
                        exps = [value, *rng.sample(side, min(2, len(side)))]
                        gens.append(Poly(field, {e: field.coerce(rng.choice(
                            (1, -1, 2, 3))) for e in exps}))
                    try:
                        basis = build_basis(gens, setting)
                    except LimitExceeded:
                        continue
                    built.clear()
                    ds = deform_from_basis(basis)
                    assert built == [], (gens, setting)
                    fresh = deform(ReductionContext(basis.elements, setting),
                                   basis.presentation)
                    assert ds.relators == fresh.relators, (gens, setting)
                    assert ds.generators == fresh.generators
                    check_invariants(ds)
                    done += 1
