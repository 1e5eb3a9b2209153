"""Code lines of a Python package: lines that hold code, not counting
docstrings, comments or blank lines.

    python tests/code_lines.py src/curvesgp
    python tests/code_lines.py --against HEAD src/curvesgp

Prints one line per module, ``<code lines>  <path>``, then the total.
With ``--against REV`` it prints, for each module and then for the total,
the code lines at REV, in the working tree, and the difference; the
directory at REV comes from ``git archive REV src``, so it must lie under
``src``.
A docstring is the string that opens a module, class or function body
(found with ``ast``); every other line counts when ``tokenize`` finds a
token on it that is neither a comment nor layout.  A string that spans
lines counts on each of its lines.  Stdlib only.
"""

import argparse
import ast
import io
import pathlib
import sys
import tempfile
import tokenize

from update_golden import ROOT, extract_src

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every docstring in the module *tree*."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def module_lines(directory) -> dict[str, int]:
    """The code lines of each module under *directory*, keyed by its path
    relative to it, in path order."""
    root = pathlib.Path(directory)
    return {path.relative_to(root).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def compare(old_dir, new_dir) -> list[tuple[str, int, int]]:
    """(module, code lines under *old_dir*, under *new_dir*) for each module
    in either directory, 0 where it is missing, by path, then the totals
    as ("total", old, new)."""
    old, new = module_lines(old_dir), module_lines(new_dir)
    rows = [(name, old.get(name, 0), new.get(name, 0))
            for name in sorted(old.keys() | new.keys())]
    return rows + [("total", sum(old.values()), sum(new.values()))]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("directory")
    parser.add_argument("--against", metavar="REV",
                        help="also count the directory at REV, and print the difference")
    opts = parser.parse_args(argv)
    if opts.against is None:
        counts = module_lines(opts.directory)
        for name, n in counts.items():
            print(f"{n:6d}  {pathlib.Path(opts.directory, name)}")
        print(f"{sum(counts.values()):6d}  total")
        return 0
    inside = pathlib.Path(opts.directory).resolve().relative_to(ROOT.resolve())
    with tempfile.TemporaryDirectory() as tmp:
        rows = compare(extract_src(opts.against, tmp).parent / inside, opts.directory)
    print(f"{opts.against[:8]:>8}  {'tree':>6}  {'diff':>6}  module")
    for name, old, new in rows:
        print(f"{old:8d}  {new:6d}  {new - old:+6d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
