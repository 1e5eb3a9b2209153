"""Report construction: one exact JSON-able dictionary per command, and
the text lines rendered from it.

Each CLI command builds one report; ``--json`` prints it through
:func:`dumps`, and otherwise :func:`text` renders its lines from the same
dictionary, so no command states its output twice.  Coefficients are
serialised as exact strings (``"num/den"`` or residues), never floats;
term lists are sorted by exponent so output is reproducible byte for byte.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from operator import countOf

from .deformation import DeformationSet
from .mpoly import render_mpoly
from .numsgp import NumSgp, Presentation
from .planebranch import CharSequence
from .poly import Poly, _render_terms
from .reduction import ReductionOutcome, ValueBasis


def poly_terms(p: Poly) -> list:
    coeffs = p.coeffs
    return [[e, str(coeffs[e])] for e in p.support]


def poly_entry(p: Poly, value=None) -> dict:
    """The terms of p and its string, rendered from one coefficient string
    per term."""
    terms = poly_terms(p)
    entry = {"terms": terms, "string": _render_terms(terms, "x")}
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


def reduction_report(out: ReductionOutcome) -> dict:
    return {
        "remainder": poly_entry(out.remainder),
        "expression": [[str(c), list(theta)]
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


def text(rep: dict) -> str:
    """The text output of a command, rendered from its report.

    Each part of the report gives its lines in the order below, by three
    rules: ``F(x,y) = ...`` comes first; ``conductor formula:`` is printed
    only when the report has a curve; ``presentation pairs:`` is printed
    for every command but ``semigroup``, whose text lists no pairs.  The
    report is consumed: its gap list is popped, so that the list is freed
    before its line is joined.
    """
    lines = [f"F(x,y) = {rep['curve']}"] if "curve" in rep else []
    if "semigroup" in rep:
        lines += semigroup_lines(rep["semigroup"])
    if "char_sequence" in rep:
        seq = rep["char_sequence"]
        lines.append(f"r sequence: {seq['r']}   d: {seq['d']}   e: {seq['e']}")
        if "curve" in rep:
            lines.append(f"conductor formula: {seq['C']}")
    if rep.get("roots"):
        lines.append("approximate roots: " + ", ".join(rep["roots"]))
    if "evaluated" in rep:
        lines.append("evaluated roots: "
                     + ", ".join(e["string"] for e in rep["evaluated"]))
    if "basis" in rep:
        lines += basis_lines(rep["basis"], "basis")
    if "reduced_basis" in rep:
        lines += basis_lines(rep["reduced_basis"], "reduced basis")
    if "presentation" in rep and rep["command"] != "semigroup":
        lines.append(f"presentation pairs: {len(rep['presentation'])}")
    if "deformation" in rep:
        lines += deformation_lines(rep["deformation"])
    if "reduction" in rep:
        red = rep["reduction"]
        lines += [f"remainder: {red['remainder']['string']}",
                  f"complete: {red['complete']}   "
                  f"shortcut: {red['used_conductor_shortcut']}",
                  f"expression terms: {len(red['expression'])}"]
    return "\n".join(lines)


def semigroup_lines(rep: dict) -> list[str]:
    """The lines of a :func:`semigroup_report`; its gap list is popped."""
    lines = [f"minimal generators: {rep['minimal_generators']}"]
    if "conductor" in rep:
        lines.append(f"conductor: {rep['conductor']}   "
                     f"frobenius: {rep['frobenius']}   genus: {rep['genus']}")
        lines.append("gaps: " + str(rep.pop("gaps")))
        lines.append(f"type set: {rep['type_set']}   "
                     f"symmetric: {rep['symmetric']}   sporadic: {rep['sporadic']}")
    else:
        lines.append(f"gcd: {rep['gcd']} (not a numerical semigroup); "
                     f"scaled conductor: {rep['scaled_conductor']}")
    return lines


def basis_lines(entries: list, title: str) -> list[str]:
    """The lines of a :func:`basis_report`."""
    return [f"{title}:"] + [f"  value {e['value']}: {e['string']}"
                            for e in entries]


def deformation_lines(rep: dict) -> list[str]:
    """The lines of a :func:`deformation_report`."""
    lines = [f"deformation ({rep['setting']}), variables "
             f"{', '.join(rep['variables'])}:",
             "  homogenized generators: "
             + ", ".join(rep["homogenized_generators"])]
    for F, G, H, complete in zip(rep["toric"], rep["exact"], rep["homogenized"],
                                 rep["complete"]):
        flag = "" if complete else "   [inexact]"
        lines += [f"  F: {F}", f"  G: {G}", f"  H: {H}{flag}"]
    return lines
