"""Command line interface.

One table, :data:`COMMANDS`, lists each command's positionals and options
with their type, default, choices, required flag and help;
:func:`build_parser` builds the argparse parser from it.  :func:`run`
reads a plain argv straight from the table (:func:`_parse_plain`): a
command name, exactly its positionals, and its options by their exact
names, each but ``--json`` followed by a value that does not start with
``-``, every value passing its checks.  Every other argv (``-h``,
``--opt=value``, abbreviations, ``--``, leading-minus values and every
error) goes to argparse, so its messages and exit codes are argparse's.

Each command builds one report dictionary; ``--json`` prints it as JSON
and otherwise :func:`report.text` renders the text lines from it.

Exit codes: 0 success, 1 domain error (the error class is named in the
message) or standard output closed before the report was written
(``error[BrokenPipeError]``), 2 parse error, 3 growth guard tripped (the
escape bound, ``MAX_ELEMENTS``, the coefficient budget ``MAX_COEFF_BITS``,
``PRECISION_CAP`` or the parser's size cap: ``error[LimitExceeded]``)
or memory exhausted (``error[MemoryError]``, naming the command when the
error itself carries no text).
``deform`` writes one line ``warning: <message>`` to standard error for
each relation value whose relators are inexact (``Relator.complete``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, NamedTuple

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


class Arg(NamedTuple):
    """One positional (a bare name) or option (``--name``) of a command:
    the keywords that ``add_argument`` takes, and ``flag`` for a
    ``store_true`` option."""
    name: str
    help: str | None = None
    type: Callable | None = None
    default: object = None
    choices: tuple | None = None
    required: bool = False
    flag: bool = False

    @property
    def dest(self) -> str:
        return self.name.lstrip("-")


_CHAR = Arg("--char", "field characteristic (0 or a prime)", int, 0)
_JSON = Arg("--json", "emit JSON", flag=True)
_BASIS = (Arg("polys", "comma-separated polynomials in x (or t)"),
          Arg("--show", choices=("semigroup", "basis", "reduced", "all"),
              default="semigroup"), _CHAR, _JSON)
_PAIR = (Arg("f"), Arg("g"), _JSON)
_SETTING = Arg("setting", choices=("local", "global"))

# command -> (help, arguments in the order --help lists them)
COMMANDS: dict[str, tuple[str, tuple[Arg, ...]]] = {
    "local": ("basis and order semigroup of K[[f1,...,fs]]", _BASIS),
    "global": ("basis and degree semigroup of K[f1,...,fs]", _BASIS),
    "plane-local": ("two-generator local pipeline", _PAIR),
    "plane-infinity": ("two-generator pipeline at infinity", _PAIR),
    "curve-infinity": ("semigroup of a plane curve with one place at infinity",
                       (Arg("curve", "polynomial in x and y"), _JSON)),
    "deform": ("deformation data of a computed basis",
               (_SETTING, Arg("polys"), _CHAR, _JSON)),
    "reduce": ("divide a polynomial by a basis",
               (_SETTING, Arg("poly"),
                Arg("--against", "comma-separated basis polynomials",
                    required=True),
                Arg("--mode", choices=("algorithmic", "expression"),
                    default="algorithmic"),
                Arg("--bound", "with --mode expression: stop past this order "
                    "or degree", int),
                _CHAR, _JSON)),
    "semigroup": ("numerical semigroup facts",
                  (Arg("generators", "comma-separated positive integers"),
                   _JSON)),
}

# command -> (options by name, positionals in order, values by dest when
# absent), for _parse_plain
_PLAIN = {cmd: ({a.name: a for a in args if a.name.startswith("-")},
                tuple(a for a in args if not a.name.startswith("-")),
                {a.dest: False if a.flag else a.default for a in args})
          for cmd, (_, args) in COMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of :data:`COMMANDS`, built once per process:
    ``parse_args`` keeps no state between calls, and building the
    subparsers costs milliseconds."""
    parser = argparse.ArgumentParser(
        prog="curvesgp",
        description="Semigroups of values of curve subalgebras, bases, "
                    "and deformations to monomial curves.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (what, args) in COMMANDS.items():
        p = sub.add_parser(name, help=what)
        for a in args:
            kw = {"action": "store_true"} if a.flag else {
                "type": a.type, "default": a.default, "choices": a.choices}
            if a.required:
                kw["required"] = True
            p.add_argument(a.name, help=a.help, **kw)
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """The namespace that ``build_parser().parse_args(argv)`` returns, read
    from :data:`COMMANDS` without argparse, for a plain argv: a command
    name, then exactly its positionals and any of its options by their
    exact names, each option but ``--json`` followed by a value that does
    not start with ``-``, every value passing its type, choices and
    required checks.  Any other argv gives None, and argparse reads it."""
    spec = _PLAIN.get(argv[0]) if argv else None
    if spec is None:
        return None
    options, positionals, defaults = spec
    positionals = iter(positionals)
    values = dict(defaults)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            a = options.get(token)
            if a is None:
                return None
            if a.flag:
                values[a.dest] = True
                continue
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            a = next(positionals, None)
            if a is None:
                return None
        if a.type is not None:
            try:
                token = a.type(token)
            except ValueError:
                return None
        if a.choices is not None and token not in a.choices:
            return None
        values[a.dest] = token
    if next(positionals, None) is not None or any(
            a.required and values[a.dest] is None for a in options.values()):
        return None
    return argparse.Namespace(command=argv[0], **values)


def _emit(args, build: Callable[[], dict]) -> None:
    """Print the command's one report, built by *build*: as JSON with
    ``--json``, else as the text lines :func:`report.text` renders from it.

    Exact coefficients, and the values that error messages name, may run
    past CPython's 4300-digit cap on ``str(int)``.  *build* does all of the
    command's work after its inputs were read, so the cap is lifted once,
    while the report is computed and written, and the parser keeps it
    against huge literals."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        rep = build()
        print(report.dumps(rep) if args.json else report.text(rep))
    finally:
        sys.set_int_max_str_digits(cap)


def _basis(gens: list, setting: str) -> ValueBasis:
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
    """Read the command's inputs, then compute and print its report in
    :func:`_emit`."""
    args = _parse_plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    cmd = args.command
    if cmd == "reduce" and args.bound is not None and args.mode != "expression":
        build_parser().error("--bound needs --mode expression")

    if cmd in ("local", "global"):
        gens = parse_poly_list(args.polys, args.char)

        def build():
            basis = _basis(gens, cmd)
            reduced = (reduced_basis(basis) if args.show in ("reduced", "all")
                       else None)
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
        if cmd == "curve-infinity":
            inputs = (parse_mpoly(args.curve, ("x", "y")),)
            pipeline = gamma_curve_infinity
        else:
            inputs = (parse_poly(args.f), parse_poly(args.g))
            pipeline = local_pipeline if cmd == "plane-local" else gamma_at_infinity

        def build():
            return _plane_report(cmd, pipeline(*inputs))

    elif cmd == "deform":
        gens = parse_poly_list(args.polys, args.char)

        def build():
            basis = _basis(gens, args.setting)
            ds = deform_from_basis(basis)
            inexact = dict.fromkeys(r.value for r in ds.relators if not r.complete)
            for value in inexact:
                print(f"warning: expression for relation at value {value} was "
                      "truncated; its relators are inexact", file=sys.stderr)
            return {"command": "deform",
                    "semigroup": report.semigroup_report(basis.semigroup),
                    "deformation": report.deformation_report(ds)}

    elif cmd == "reduce":
        f = parse_poly(args.poly, args.char)
        against = parse_poly_list(args.against, args.char)

        def build():
            elems = [basis_element(p, args.setting) for p in against]
            out = reduce_poly(f, ReductionContext(elems, args.setting), args.mode,
                              args.bound)
            return {"command": "reduce",
                    "reduction": report.reduction_report(out)}

    else:  # semigroup
        try:
            gens = [int(t) for t in args.generators.split(",") if t.strip()]
        except ValueError:
            raise ParseError("generators must be integers", 0) from None

        def build():
            S = _monoid(tuple(gens))
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
        # a MemoryError raised by the interpreter has no text
        text = str(err) or f"out of memory in {argv[0]}"
        print(f"error[{type(err).__name__}]: {text}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, RuntimeError) as err:
        print(f"error[{type(err).__name__}]: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
