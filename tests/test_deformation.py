import warnings

import pytest

from curvesgp import (
    MPoly,
    Poly,
    ci_relations,
    deform,
    deform_from_basis,
    gamma_at_infinity,
    global_basis,
    homogenize,
    local_basis,
    plane_deformation,
)
from curvesgp.planebranch import char_sequence_from_support, delta_sequence
from util import UX, P, xp


def specialize_u(mp: MPoly, value) -> MPoly:
    """Substitute a constant for u, keeping the variable tuple."""
    f = mp.field
    out = {}
    for e, c in mp.coeffs.items():
        key = (0,) + e[1:]
        term = f.mul(c, f.pow(f.coerce(value), e[0]))
        out[key] = f.add(out.get(key, f.zero), term)
    return MPoly(mp.vars, f, out)


def check_invariants(ds):
    """Specialisation, exactness, homogeneity and count for a DeformationSet."""
    for rel in ds.relators:
        assert specialize_u(rel.homogenized, 1) == rel.exact
        assert specialize_u(rel.homogenized, 0) == rel.toric
        assert ds.weights.homogeneous_value(rel.homogenized) == rel.value
        if rel.complete:
            subst = {f"X{i}": p for i, p in enumerate(ds.generators)}
            assert rel.exact.eval_univariate(subst).is_zero
            ux = {"u": MPoly.variable(("u", "x"), "u", ds.generators[0].field)}
            ux.update({f"X{i}": h
                       for i, h in enumerate(ds.homogenized_generators)})
            assert rel.homogenized.subs(ux).is_zero


def test_homogenize_local_examples():
    assert homogenize(xp(6) + xp(7), "local") == MPoly(
        ("u", "x"), xp(1).field, {(0, 6): 1, (1, 7): 1})
    assert homogenize(xp(5), "local") == MPoly(("u", "x"), xp(1).field, {(0, 5): 1})
    with pytest.raises(ValueError):
        homogenize(Poly.zero(), "local")


def test_homogenize_local_specialises_to_input():
    f = P((4, 1), (6, -2), (9, "1/3"))
    H = homogenize(f, "local")
    assert specialize_u(H, 1).to_poly() == f


def test_homogenize_global_examples():
    assert homogenize(xp(6) + xp(3), "global") == MPoly(
        ("u", "x"), xp(1).field, {(0, 6): 1, (3, 3): 1})
    assert homogenize(xp(6) + xp(1), "global") == MPoly(
        ("u", "x"), xp(1).field, {(0, 6): 1, (5, 1): 1})
    f = P((0, 2), (3, -1), (7, 4))
    assert specialize_u(homogenize(f, "global"), 1).to_poly() == f


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
    ds = deform([xp(4), xp(6)], "local")
    for rel in ds.relators:
        assert rel.exact == rel.toric
        assert rel.homogenized == rel.toric
    check_invariants(ds)


def test_deform_from_local_basis():
    basis = local_basis([xp(4) + xp(5), xp(6), xp(15) + xp(16)])
    # the value-30 relation has no finite expression within the default
    # bound: its relator must arrive flagged inexact, with a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = deform_from_basis(basis)
    assert len(ds.relators) == len(basis.presentation.pairs)
    assert not all(ds.complete) and caught
    check_invariants(ds)


def test_deform_from_global_basis():
    basis = global_basis([xp(6) + xp(3), xp(4)])
    ds = deform_from_basis(basis)
    assert len(ds.relators) == len(basis.presentation.pairs)
    assert all(ds.complete)
    check_invariants(ds)


def test_deform_rejects_non_basis():
    with pytest.raises(ValueError):
        deform([xp(4) + xp(5), xp(6), xp(15) + xp(16)], "local")


def test_deform_warns_on_truncation():
    third = P((13, 1), (14, "1/2"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = deform([xp(4), xp(6) + xp(7), third], "local", bound=5)
    assert caught
    assert not all(ds.complete)


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ds = deform_from_basis(basis)
    assert len(ds.relators) == len(basis.semigroup.minimal_presentation().pairs)
