"""The golden report corpus: frozen CLI argvs and digests of what they print.

``tests/golden_reports.json`` is a list of ``[argv, digest]`` pairs, one per
line.  The digest is the first 16 hex digits of the SHA-256 of the exit
code, standard error and standard output of ``curvesgp.cli.main(argv)``,
run in process.  ``tests/test_golden.py`` reruns every argv and names each
one whose digest differs.

A change that alters a report on purpose rewrites only the argvs it names,
each given as one JSON list; an argv not yet in the corpus is appended:

    PYTHONPATH=src python tests/update_golden.py '["local", "x^4,x^6+x^7"]'
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

from curvesgp import cli

CORPUS = pathlib.Path(__file__).with_name("golden_reports.json")


def report_digest(argv: list[str]) -> str:
    """sha256(exit code, stderr, stdout) of one in-process CLI run, cut to
    16 hex digits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    blob = json.dumps([code, err.getvalue(), out.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


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


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    update([json.loads(a) for a in sys.argv[1:]])
