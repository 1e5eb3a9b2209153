"""The summary of ``tests/ab_pairs.py`` on made-up runs; no benchmark runs."""

import pytest

from ab_pairs import format_rows, summarise

METRICS = [("job_s.p50", "lower"), ("ok_share", "higher")]


def _runs(p50s, shares):
    return [{"job_s.p50": t, "ok_share": s} for t, s in zip(p50s, shares)]


def test_a_gain_needs_nine_wins_in_ten_and_a_gap_past_the_quartiles():
    parent = _runs([10, 11, 12, 10, 11, 12, 10, 11, 12, 11], [1] * 10)
    change = _runs([8, 8, 9, 8, 8, 9, 8, 8, 9, 13], [1] * 10)
    p50, share = summarise(parent, change, METRICS)
    assert (p50["parent"], p50["change"], p50["wins"], p50["pairs"]) == (11, 8, 9, 10)
    assert (p50["q1"], p50["q3"]) == (10, 12)
    assert p50["holds"]
    # ties count for neither side
    assert (share["wins"], share["holds"]) == (0, False)

    # eight wins in ten do not carry a claim, however wide the gap
    change[0]["job_s.p50"] = 14
    assert summarise(parent, change, METRICS)[0]["wins"] == 8
    assert not summarise(parent, change, METRICS)[0]["holds"]


def test_a_gap_inside_the_parents_quartile_spread_is_no_gain():
    parent = _runs([10, 14, 10, 14, 10, 14, 10, 14, 10, 14], [1] * 10)
    change = _runs([9, 13, 9, 13, 9, 13, 9, 13, 9, 13], [1] * 10)
    row = summarise(parent, change, METRICS)[0]
    assert row["wins"] == 10 and row["q3"] - row["q1"] == 4
    assert not row["holds"]


def test_higher_is_better_wins_the_other_way():
    parent = _runs([1] * 10, [0.5, 0.5, 0.6, 0.5, 0.5, 0.6, 0.5, 0.5, 0.6, 0.5])
    change = _runs([1] * 10, [1.0] * 10)
    share = summarise(parent, change, METRICS)[1]
    assert share["wins"] == 10 and share["holds"]
    assert not summarise(change, parent, METRICS)[1]["holds"]


def test_one_pair_and_the_table():
    rows = summarise(_runs([2.0], [1]), _runs([1.0], [1]), METRICS)
    assert (rows[0]["q1"], rows[0]["q3"], rows[0]["wins"]) == (2.0, 2.0, 1)
    lines = format_rows(rows)
    assert len(lines) == 3
    assert "-50.0%" in lines[1] and lines[1].endswith("holds")
    assert lines[2].endswith("no")


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_equal_runs_win_nothing(better):
    runs = _runs([1, 2, 3], [1, 1, 1])
    row = summarise(runs, runs, [("job_s.p50", better)])[0]
    assert row["wins"] == 0 and not row["holds"]
