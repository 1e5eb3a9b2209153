"""Every argv of the golden report corpus prints what it printed when its
digest was recorded: the same exit code, standard error and standard
output (``tests/update_golden.py`` describes the corpus and rewrites
entries on purpose)."""

from update_golden import load, report_digest
from util import readme_cli_argvs


def test_golden_reports_are_unchanged():
    entries = load()
    assert len(entries) > 1000
    changed = [argv for argv, digest in entries if report_digest(argv) != digest]
    assert not changed, f"{len(changed)} reports changed: {changed}"


def test_readme_cli_lines_are_in_the_corpus():
    argvs = {tuple(argv) for argv, _ in load()}
    readme = readme_cli_argvs()
    assert readme
    missing = [argv for argv in readme for flags in ([], ["--json"])
               if tuple(argv + flags) not in argvs]
    assert not missing, missing
