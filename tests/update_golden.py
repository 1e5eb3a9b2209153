"""The golden report corpus: frozen CLI argvs and digests of what they print.

``tests/golden_reports.json`` is a list of ``[argv, digest]`` pairs, one per
line.  The digest is the first 16 hex digits of the SHA-256 of the exit
code, standard error and standard output of ``curvesgp.cli.main(argv)``,
run in process.  ``tests/test_golden.py`` reruns every argv and names each
one whose digest differs.

A change that alters a report on purpose rewrites only the argvs it names,
each given as one JSON list; an argv not yet in the corpus is appended:

    PYTHONPATH=src python tests/update_golden.py '["local", "x^4,x^6+x^7"]'

To see which reports a change moves, run the whole corpus on the ``src``
of a git revision and on the working tree, one subprocess each, and list
the argvs whose reports differ, grouped by command and by what changed,
with a unified diff of the first few; ``--write`` then rewrites exactly
those argvs' digests from the working tree's reports:

    python tests/update_golden.py --against HEAD [--write]
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import defaultdict

CORPUS = pathlib.Path(__file__).with_name("golden_reports.json")
ROOT = CORPUS.parent.parent
PARTS = ("exit code", "stderr", "stdout")
DIFFS_SHOWN = 3  # unified diffs printed, over all groups
DIFF_LINES = 24  # lines kept of each


def run_report(argv: list[str]) -> list:
    """[exit code, stderr, stdout] of one in-process CLI run, by the
    ``curvesgp`` that the import path finds.  An exception that escapes
    ``main`` stands in for the exit code, so that a fault is reported
    against its argv."""
    from curvesgp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
    return [code, err.getvalue(), out.getvalue()]


def digest(report: list) -> str:
    return hashlib.sha256(json.dumps(report).encode()).hexdigest()[:16]


def report_digest(argv: list[str]) -> str:
    """sha256(exit code, stderr, stdout) of one in-process CLI run, cut to
    16 hex digits."""
    return digest(run_report(argv))


def load() -> list[tuple[list[str], str]]:
    return [(argv, digest) for argv, digest in json.loads(CORPUS.read_text())]


def save(entries: list[tuple[list[str], str]]) -> None:
    lines = [json.dumps([argv, digest]) for argv, digest in entries]
    CORPUS.write_text("[\n" + ",\n".join(lines) + "\n]\n")


def update(argvs: list[list[str]]) -> None:
    """Recompute the digests of *argvs*, appending the new ones; every
    other entry is kept as it is."""
    entries = load() if CORPUS.exists() else []
    index = {tuple(argv): k for k, (argv, _) in enumerate(entries)}
    for argv in argvs:
        entry = (list(argv), report_digest(argv))
        k = index.get(tuple(argv))
        if k is None:
            index[tuple(argv)] = len(entries)
            entries.append(entry)
        else:
            entries[k] = entry
    save(entries)


# the child of corpus_reports: every corpus argv's report, as one JSON list
_CHILD = """import json, pathlib, sys
import update_golden as U
reports = [U.run_report(argv) for argv, _ in U.load()]
pathlib.Path(sys.argv[1]).write_text(json.dumps(reports))
"""


def corpus_reports(src: pathlib.Path, scratch: str) -> list[list]:
    """The report of every corpus argv, made by the ``curvesgp`` under
    *src* in a fresh interpreter."""
    path = os.path.join(scratch, "reports.json")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-c", _CHILD, path], cwd=CORPUS.parent,
                   env=env, check=True)
    return json.loads(pathlib.Path(path).read_text())


def extract_src(rev: str, dest: str) -> pathlib.Path:
    """``git archive REV src`` extracted into *dest*; returns its ``src``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return pathlib.Path(dest, "src")


def against(rev: str) -> tuple[list[list[str]], list[list], list[list]]:
    """(argvs, reports at *rev*, reports of the working tree), one entry per
    corpus argv."""
    with tempfile.TemporaryDirectory() as tmp:
        old = corpus_reports(extract_src(rev, tmp), tmp)
        new = corpus_reports(ROOT / "src", tmp)
    return [argv for argv, _ in load()], old, new


def show_changes(rev: str, argvs, old, new) -> list[list[str]]:
    """Print the argvs whose reports differ, grouped by command and by the
    parts that changed, with a unified diff of the first few; return them."""
    groups = defaultdict(list)
    for argv, a, b in zip(argvs, old, new):
        parts = tuple(name for name, x, y in zip(PARTS, a, b) if x != y)
        if parts:
            groups[argv[0], parts].append((argv, a, b))
    changed = [argv for group in groups.values() for argv, _, _ in group]
    print(f"{len(changed)} of {len(argvs)} reports differ between {rev} "
          "and the working tree")
    shown = 0
    for (command, parts), group in sorted(groups.items()):
        print(f"\n{command}: {', '.join(parts)} ({len(group)})")
        for argv, a, b in group:
            print("  " + json.dumps(argv))
            if shown == DIFFS_SHOWN:
                continue
            shown += 1
            if a[0] != b[0]:
                print(f"    exit code {a[0]} -> {b[0]}")
            for name, x, y in zip(PARTS[1:], a[1:], b[1:]):
                diff = list(difflib.unified_diff(
                    x.splitlines(), y.splitlines(), f"{name} at {rev}",
                    f"{name} of the working tree", lineterm=""))
                for line in diff[:DIFF_LINES]:
                    print("    " + line[:200])
                if len(diff) > DIFF_LINES:
                    print(f"    ... {len(diff) - DIFF_LINES} more diff lines")
    return changed


def write_changed(argvs, old, new) -> None:
    """Rewrite the digests of the argvs whose reports differ, from the
    working tree's reports."""
    fresh = {tuple(argv): digest(b) for argv, a, b in zip(argvs, old, new)
             if a != b}
    save([(argv, fresh.get(tuple(argv), d)) for argv, d in load()])
    print(f"\nrewrote {len(fresh)} digests in {CORPUS.name}")


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("argvs", nargs="*", type=json.loads,
                        help="argvs to (re)record, each one JSON list")
    parser.add_argument("--against", metavar="REV",
                        help="list the reports that differ from those of REV's src")
    parser.add_argument("--write", action="store_true",
                        help="with --against, rewrite the digests that differ")
    opts = parser.parse_args(args)
    if opts.against is None:
        if opts.write or not opts.argvs:
            parser.error("give argvs, or --against REV")
        update(opts.argvs)
        return 0
    if opts.argvs:
        parser.error("--against takes no argvs")
    argvs, old, new = against(opts.against)
    if show_changes(opts.against, argvs, old, new) and opts.write:
        write_changed(argvs, old, new)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
