"""Command line interface.

Each command builds one report dictionary; ``--json`` prints it as JSON
and otherwise :func:`report.text` renders the text lines from it.

Exit codes: 0 success, 1 domain error (the error class is named in the
message) or standard output closed before the report was written
(``error[BrokenPipeError]``), 2 parse error, 3 growth guard tripped (the
escape bound, ``MAX_ELEMENTS`` or ``PRECISION_CAP``: ``error[LimitExceeded]``)
or memory exhausted (``error[MemoryError]``).
``deform`` writes one line ``warning: <message>`` to standard error for
each relation value whose relators are inexact (``Relator.complete``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable

from .deformation import deform_from_basis
from .mpoly import render_mpoly
from .numsgp import _monoid
from .parsing import ParseError, parse_mpoly, parse_poly, parse_poly_list
from .planebranch import (
    PlaneResult,
    gamma_at_infinity,
    gamma_curve_infinity,
    local_pipeline,
)
from .reduction import (
    LimitExceeded,
    ReductionContext,
    ValueBasis,
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

    for name, what in (("local", "basis and order semigroup of K[[f1,...,fs]]"),
                       ("global", "basis and degree semigroup of K[f1,...,fs]")):
        p = sub.add_parser(name, help=what)
        p.add_argument("polys", help="comma-separated polynomials in x (or t)")
        p.add_argument("--show", choices=["semigroup", "basis", "reduced", "all"],
                       default="semigroup")
        add_common(p)

    for name, what in (("plane-local", "two-generator local pipeline"),
                       ("plane-infinity", "two-generator pipeline at infinity")):
        p = sub.add_parser(name, help=what)
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


def _emit(args, build: Callable[[], dict]) -> None:
    """Print the command's one report, built by *build*: as JSON with
    ``--json``, else as the text lines :func:`report.text` renders from it.

    Exact coefficients may run past CPython's 4300-digit cap on ``str(int)``,
    so the cap is lifted while the report is built and written (the parser
    keeps it against huge literals)."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rep = build()
        print(report.dumps(rep) if args.json else report.text(rep))
    finally:
        sys.set_int_max_str_digits(cap)


def _basis(args, setting: str) -> ValueBasis:
    gens = parse_poly_list(args.polys, args.char)
    # these names, not build_basis: the benchmark's spans wrap them
    return local_basis(gens) if setting == "local" else global_basis(gens)


def _plane_report(cmd: str, result) -> dict:
    """The report of a plane command; *result* is a :class:`PlaneResult`
    or, from ``gamma_local_pair``, a (semigroup, sequence) pair."""
    rep = {"command": cmd, "semigroup": report.semigroup_report(result[0]),
           "char_sequence": report.char_sequence_report(result[1])}
    if isinstance(result, PlaneResult):
        rep["roots"] = [render_mpoly(G) for G in result.roots]
        rep["curve"] = render_mpoly(result.curve)
        if result.evaluated:
            rep["evaluated"] = [report.poly_entry(p) for p in result.evaluated]
    return rep


def run(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cmd = args.command
    if cmd == "reduce" and args.bound is not None and args.mode != "expression":
        parser.error("--bound needs --mode expression")

    if cmd in ("local", "global"):
        basis = _basis(args, cmd)
        reduced = reduced_basis(basis) if args.show in ("reduced", "all") else None

        def build():
            rep = {"command": cmd,
                   "semigroup": report.semigroup_report(basis.semigroup)}
            if args.show in ("basis", "all"):
                rep["basis"] = report.basis_report(basis)
            if reduced is not None:
                rep["reduced_basis"] = report.basis_report(reduced)
            if args.show == "all":
                rep["presentation"] = report.presentation_report(basis.presentation)
            return rep

    elif cmd in ("plane-local", "plane-infinity", "curve-infinity"):
        if args.char:
            raise ValueError("plane-branch commands need characteristic zero")
        if cmd == "curve-infinity":
            result = gamma_curve_infinity(parse_mpoly(args.curve, ("x", "y")))
        else:
            f, g = parse_poly(args.f), parse_poly(args.g)
            pipeline = local_pipeline if cmd == "plane-local" else gamma_at_infinity
            result = pipeline(f, g)
        build = functools.partial(_plane_report, cmd, result)

    elif cmd == "deform":
        basis = _basis(args, args.setting)
        ds = deform_from_basis(basis)
        inexact = dict.fromkeys(r.value for r in ds.relators if not r.complete)
        for value in inexact:
            print(f"warning: expression for relation at value {value} was "
                  "truncated; its relators are inexact", file=sys.stderr)

        def build():
            return {"command": "deform",
                    "semigroup": report.semigroup_report(basis.semigroup),
                    "deformation": report.deformation_report(ds)}

    elif cmd == "reduce":
        f = parse_poly(args.poly, args.char)
        elems = [basis_element(p, args.setting)
                 for p in parse_poly_list(args.against, args.char)]
        out = reduce_poly(f, ReductionContext(elems, args.setting), args.mode,
                          args.bound)

        def build():
            return {"command": "reduce",
                    "reduction": report.reduction_report(out, f.field)}

    else:  # semigroup
        try:
            gens = [int(t) for t in args.generators.split(",") if t.strip()]
        except ValueError:
            raise ParseError("generators must be integers", 0) from None
        S = _monoid(tuple(gens))

        def build():
            rep = {"command": "semigroup", "semigroup": report.semigroup_report(S)}
            if args.json and S.is_numerical:  # the text lists no pairs
                rep["presentation"] = report.presentation_report(
                    S.minimal_presentation())
            return rep

    _emit(args, build)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
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


if __name__ == "__main__":
    sys.exit(main())
