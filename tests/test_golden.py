"""Every argv of the golden report corpus prints what it printed when its
digest was recorded: the same exit code, standard error and standard
output (``tests/update_golden.py`` describes the corpus and rewrites
entries on purpose)."""

from update_golden import load, report_digest


def test_golden_reports_are_unchanged():
    entries = load()
    assert len(entries) > 1000
    changed = [argv for argv, digest in entries if report_digest(argv) != digest]
    assert not changed, f"{len(changed)} reports changed: {changed}"
