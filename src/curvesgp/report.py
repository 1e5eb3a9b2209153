"""Report construction: exact JSON-able dictionaries and text lines.

Coefficients are serialised as exact strings (``"num/den"`` or residues),
never floats; term lists are sorted by exponent so output is reproducible
byte for byte.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from operator import countOf

from .deformation import DeformationSet
from .mpoly import render_mpoly
from .numsgp import NumSgp, Presentation
from .planebranch import CharSequence
from .poly import Poly, render_poly
from .reduction import ReductionOutcome, ValueBasis


def poly_terms(p: Poly) -> list:
    return [[e, p.field.coeff_str(p.coeffs[e])] for e in p.support]


def poly_entry(p: Poly, value=None) -> dict:
    entry = {"terms": poly_terms(p), "string": render_poly(p, "x")}
    if value is not None:
        entry["value"] = value
    return entry


def semigroup_report(S: NumSgp) -> dict:
    rep = {
        "generators": sorted(set(S.generators)),
        "minimal_generators": S.minimal_generators(),
        "gcd": S.d,
    }
    if S.is_numerical:
        rep.update({
            "conductor": S.conductor,
            "frobenius": S.frobenius,
            "genus": S.genus,
            "gaps": S.gaps(),
            "type_set": S.type_set(),
            "symmetric": S.is_symmetric(),
            "sporadic": S.sporadic_count(),
        })
    else:
        rep["scaled_conductor"] = S.scaled_conductor
    return rep


def presentation_report(pres: Presentation) -> list:
    return [{"alpha": list(a), "beta": list(b), "value": v}
            for a, b, v in pres.pairs]


def basis_report(basis: ValueBasis) -> list:
    return [poly_entry(e.poly, e.value) for e in basis.elements]


def reduction_report(out: ReductionOutcome, field) -> dict:
    return {
        "remainder": poly_entry(out.remainder),
        "expression": [[field.coeff_str(c), list(theta)]
                       for c, theta in out.expression],
        "complete": out.complete,
        "used_conductor_shortcut": out.consumed_conductor_shortcut,
    }


def deformation_report(ds: DeformationSet) -> dict:
    return {
        "setting": ds.setting,
        "variables": list(ds.variables),
        "generators": [poly_entry(p) for p in ds.generators],
        "homogenized_generators": [render_mpoly(h)
                                   for h in ds.homogenized_generators],
        "toric": [render_mpoly(r) for r in ds.toric],
        "exact": [render_mpoly(r) for r in ds.exact],
        "homogenized": [render_mpoly(r) for r in ds.homogenized],
        "complete": ds.complete,
    }


def char_sequence_report(seq: CharSequence) -> dict:
    """m (for a local descent), d, e, r and the conductor C, in that order."""
    rep = {} if seq.m is None else {"m": list(seq.m)}
    rep.update(d=list(seq.d), e=list(seq.e), r=list(seq.r), C=seq.conductor)
    return rep


# -- JSON text ---------------------------------------------------------


def dumps(obj) -> str:
    """The text ``json.dumps`` writes for *obj* at an indent of 2, byte for
    byte, for the values a report holds: dicts with ``str`` keys, lists,
    ``str``, ``int`` and ``bool``.

    Any ``indent`` sends ``json`` down its pure-Python encoder, one generator
    frame per list item; here a list of plain ints (gaps, type sets,
    exponent vectors) is one ``%`` call on a format of one ``%d`` per item,
    which builds no ``str`` per item and no list of them, and strings go
    through ``json``'s own C escaper.  Anything else (a float, a
    ``Fraction``, a non-``str`` key) raises ``TypeError``.
    """
    return _dump(obj, "\n")


def _dump(v, nl: str) -> str:
    t = type(v)
    if t is str:
        return _quote(v)
    if t is int:
        return str(v)
    if t is bool:
        return "true" if v else "false"
    inner = nl + "  "
    if t is list:
        if not v:
            return "[]"
        if countOf(map(type, v), int) == len(v):  # bool is not int here
            return ("[" + inner + ("%d," + inner) * (len(v) - 1) + "%d" + nl
                    + "]") % tuple(v)
        return ("[" + inner + ("," + inner).join([_dump(x, inner) for x in v])
                + nl + "]")
    if t is dict:
        if not v:
            return "{}"
        if set(map(type, v)) != {str}:
            raise TypeError("report keys must be str")
        return ("{" + inner + ("," + inner).join(
            _quote(k) + ": " + _dump(x, inner) for k, x in v.items())
            + nl + "}")
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


# -- text rendering ----------------------------------------------------


def semigroup_lines(S: NumSgp) -> list[str]:
    mg = S.minimal_generators()
    lines = [f"minimal generators: {mg}"]
    if S.is_numerical:
        lines.append(f"conductor: {S.conductor}   frobenius: {S.frobenius}   "
                     f"genus: {S.genus}")
        lines.append(f"gaps: {S.gaps()}")
        lines.append(f"type set: {S.type_set()}   symmetric: {S.is_symmetric()}   "
                     f"sporadic: {S.sporadic_count()}")
    else:
        lines.append(f"gcd: {S.d} (not a numerical semigroup); "
                     f"scaled conductor: {S.scaled_conductor}")
    return lines


def basis_lines(basis: ValueBasis, title: str) -> list[str]:
    lines = [f"{title}:"]
    for e in basis.elements:
        lines.append(f"  value {e.value}: {render_poly(e.poly, 'x')}")
    return lines


def deformation_lines(ds: DeformationSet) -> list[str]:
    lines = [f"deformation ({ds.setting}), variables {', '.join(ds.variables)}:"]
    lines.append("  homogenized generators: "
                 + ", ".join(render_mpoly(h) for h in ds.homogenized_generators))
    for rel in ds.relators:
        flag = "" if rel.complete else "   [inexact]"
        lines.append(f"  F: {render_mpoly(rel.toric)}")
        lines.append(f"  G: {render_mpoly(rel.exact)}")
        lines.append(f"  H: {render_mpoly(rel.homogenized)}{flag}")
    return lines
