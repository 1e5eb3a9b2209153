"""Command line interface.

Exit codes: 0 success, 1 domain error (the error class is named in the
message) or standard output closed before the report was written
(``error[BrokenPipeError]``), 2 parse error, 3 growth guard tripped (the
escape bound, ``MAX_ELEMENTS`` or ``PRECISION_CAP``: ``error[LimitExceeded]``)
or memory exhausted (``error[MemoryError]``).
Warnings are printed as one line, ``warning: <message>``.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from typing import Callable

from .deformation import deform_from_basis
from .mpoly import render_mpoly
from .numsgp import NumSgp
from .parsing import ParseError, parse_mpoly, parse_poly, parse_poly_list
from .planebranch import (
    conductor_formula,
    gamma_at_infinity,
    gamma_curve_infinity,
    gamma_local_pair,
    plane_local,
)
from .poly import render_poly
from .reduction import (
    LimitExceeded,
    ReductionContext,
    basis_element,
    global_basis,
    local_basis,
    reduce_poly,
    reduced_basis,
)
from . import report


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, and building the subparsers costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="curvesgp",
        description="Semigroups of values of curve subalgebras, bases, "
                    "and deformations to monomial curves.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, char=True):
        if char:
            p.add_argument("--char", type=int, default=0,
                           help="field characteristic (0 or a prime)")
        p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("local", help="basis and order semigroup of K[[f1,...,fs]]")
    p.add_argument("polys", help="comma-separated polynomials in x (or t)")
    p.add_argument("--show", choices=["semigroup", "basis", "reduced", "all"],
                   default="semigroup")
    add_common(p)

    p = sub.add_parser("global", help="basis and degree semigroup of K[f1,...,fs]")
    p.add_argument("polys")
    p.add_argument("--show", choices=["semigroup", "basis", "reduced", "all"],
                   default="semigroup")
    add_common(p)

    p = sub.add_parser("plane-local", help="two-generator local pipeline")
    p.add_argument("f")
    p.add_argument("g")
    add_common(p)

    p = sub.add_parser("plane-infinity", help="two-generator pipeline at infinity")
    p.add_argument("f")
    p.add_argument("g")
    add_common(p)

    p = sub.add_parser("curve-infinity",
                       help="semigroup of a plane curve with one place at infinity")
    p.add_argument("curve", help="polynomial in x and y")
    add_common(p)

    p = sub.add_parser("deform", help="deformation data of a computed basis")
    p.add_argument("setting", choices=["local", "global"])
    p.add_argument("polys")
    add_common(p)

    p = sub.add_parser("reduce", help="divide a polynomial by a basis")
    p.add_argument("setting", choices=["local", "global"])
    p.add_argument("poly")
    p.add_argument("--against", required=True,
                   help="comma-separated basis polynomials")
    p.add_argument("--mode", choices=["algorithmic", "expression"],
                   default="algorithmic")
    p.add_argument("--bound", type=int, default=None,
                   help="with --mode expression: stop past this order or degree")
    add_common(p)

    p = sub.add_parser("semigroup", help="numerical semigroup facts")
    p.add_argument("generators", help="comma-separated positive integers")
    add_common(p, char=False)
    return parser


def _require_char_zero(args):
    if getattr(args, "char", 0) != 0:
        raise ValueError("plane-branch commands need characteristic zero")


def _emit(args, rep: Callable[[], dict], lines: Callable[[], list[str]]) -> None:
    """Print the JSON report or the text lines; only the one printed is built.

    Exact coefficients may run past CPython's 4300-digit cap on ``str(int)``,
    so the cap is lifted while the output is written (the parser keeps it
    against huge literals)."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(report.dumps(rep()) if args.json else "\n".join(lines()))
    finally:
        sys.set_int_max_str_digits(cap)


def _basis_command(args, setting: str) -> None:
    gens = parse_poly_list(args.polys, args.char)
    # these names, not build_basis: the benchmark's spans wrap them
    basis = local_basis(gens) if setting == "local" else global_basis(gens)
    show_basis = args.show in ("basis", "all")
    reduced = reduced_basis(basis) if args.show in ("reduced", "all") else None

    def rep():
        out = {"command": setting,
               "semigroup": report.semigroup_report(basis.semigroup)}
        if show_basis:
            out["basis"] = report.basis_report(basis)
        if reduced is not None:
            out["reduced_basis"] = report.basis_report(reduced)
        if args.show == "all":
            out["presentation"] = report.presentation_report(basis.presentation)
        return out

    def lines():
        out = report.semigroup_lines(basis.semigroup)
        if show_basis:
            out += report.basis_lines(basis, "basis")
        if reduced is not None:
            out += report.basis_lines(reduced, "reduced basis")
        if args.show == "all":
            out.append(f"presentation pairs: {len(basis.presentation.pairs)}")
        return out

    _emit(args, rep, lines)


def _plane_report(args, result, setting: str) -> None:
    S = result.semigroup
    seq = result.sequence

    def rep():
        out = {
            "command": f"plane-{setting}",
            "semigroup": report.semigroup_report(S),
            "char_sequence": report.char_sequence_report(seq, conductor_formula(seq)),
            "roots": [render_mpoly(g) for g in result.roots],
            "curve": render_mpoly(result.curve),
        }
        if result.evaluated:
            out["evaluated"] = [report.poly_entry(p) for p in result.evaluated]
        return out

    def lines():
        out = [f"F(x,y) = {render_mpoly(result.curve)}"]
        out += report.semigroup_lines(S)
        out.append(f"r sequence: {list(seq.r)}   d: {list(seq.d)}   "
                   f"e: {list(seq.e)}")
        out.append(f"conductor formula: {conductor_formula(seq)}")
        if result.roots:
            out.append("approximate roots: "
                       + ", ".join(render_mpoly(g) for g in result.roots))
        if result.evaluated:
            out.append("evaluated roots: "
                       + ", ".join(render_poly(p, "x") for p in result.evaluated))
        return out

    _emit(args, rep, lines)


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command

    if cmd in ("local", "global"):
        _basis_command(args, cmd)

    elif cmd == "plane-local":
        _require_char_zero(args)
        f = parse_poly(args.f)
        g = parse_poly(args.g)
        if len(f.support) == 1 and f.order < g.order:
            result = plane_local(f.monic_trailing()[0], g)
            _plane_report(args, result, "local")
        else:
            S, seq = gamma_local_pair(f, g)
            _emit(args,
                  lambda: {"command": "plane-local",
                           "semigroup": report.semigroup_report(S),
                           "char_sequence": report.char_sequence_report(
                               seq, conductor_formula(seq))},
                  lambda: report.semigroup_lines(S) + [
                      f"r sequence: {list(seq.r)}   d: {list(seq.d)}   "
                      f"e: {list(seq.e)}"])

    elif cmd == "plane-infinity":
        _require_char_zero(args)
        result = gamma_at_infinity(parse_poly(args.f), parse_poly(args.g))
        _plane_report(args, result, "infinity")

    elif cmd == "curve-infinity":
        _require_char_zero(args)
        F = parse_mpoly(args.curve, ("x", "y"))
        result = gamma_curve_infinity(F)
        _plane_report(args, result, "curve")

    elif cmd == "deform":
        gens = parse_poly_list(args.polys, args.char)
        basis = local_basis(gens) if args.setting == "local" else global_basis(gens)
        ds = deform_from_basis(basis)
        _emit(args,
              lambda: {"command": "deform",
                       "semigroup": report.semigroup_report(basis.semigroup),
                       "deformation": report.deformation_report(ds)},
              lambda: report.semigroup_lines(basis.semigroup)
              + report.deformation_lines(ds))

    elif cmd == "reduce":
        f = parse_poly(args.poly, args.char)
        elems = [basis_element(p, args.setting)
                 for p in parse_poly_list(args.against, args.char)]
        out = reduce_poly(f, ReductionContext(elems, args.setting), args.mode,
                          args.bound)
        _emit(args,
              lambda: {"command": "reduce",
                       "reduction": report.reduction_report(out, f.field)},
              lambda: [f"remainder: {render_poly(out.remainder, 'x')}",
                       f"complete: {out.complete}   "
                       f"shortcut: {out.consumed_conductor_shortcut}",
                       f"expression terms: {len(out.expression)}"])

    elif cmd == "semigroup":
        try:
            gens = [int(t) for t in args.generators.split(",") if t.strip()]
        except ValueError:
            raise ParseError("generators must be integers", 0) from None
        S = NumSgp(gens)

        def rep():
            out = {"command": "semigroup", "semigroup": report.semigroup_report(S)}
            if S.is_numerical:
                out["presentation"] = report.presentation_report(
                    S.minimal_presentation())
            return out

        _emit(args, rep, lambda: report.semigroup_lines(S))

    return 0


def _one_line_warning(message, category, filename, lineno, line=None) -> str:
    """``warnings.formatwarning`` for the CLI: no source path or line."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _one_line_warning
    try:
        code = run(argv)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError as err:
        # the reader closed the pipe; point stdout at devnull so that the
        # flush at exit does not raise again (Python docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error[BrokenPipeError]: {err}", file=sys.stderr)
        return 1
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (LimitExceeded, MemoryError) as err:
        print(f"error[{type(err).__name__}]: {err}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, ArithmeticError, RuntimeError) as err:
        print(f"error[{type(err).__name__}]: {err}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
