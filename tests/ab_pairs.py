"""Paired benchmark runs of a git revision's ``src`` against the working tree's.

    python tests/ab_pairs.py --against HEAD --workload semigroup --seed 5 --pairs 10

Each side is a temp dir that holds a ``src`` and a copy of the working
tree's ``perfbench/``: the parent side's ``src`` is ``git archive REV src``,
the change side's a copy of the working tree's, so both sides run the same
benchmark code.  A pair runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once on each side (T is BENCHMARK.json's
``run_seconds``), and the side that runs first alternates from pair to pair.

For each end-to-end metric of BENCHMARK.json it prints both medians, the
parent's quartiles, the number of pairs the change won (ties count for
neither side), and whether a gain may be claimed: the change wins at least
nine pairs in ten, and its median is better than the parent's by more than
the parent's quartile spread.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

from update_golden import ROOT, extract_src

BENCHMARK = ROOT / "BENCHMARK.json"
WIN_SHARE = 0.9  # pairs the change must win to claim a gain


def quartiles(xs: list[float]) -> tuple[float, float]:
    """(q1, q3) of xs, by ``statistics.quantiles``' default method."""
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarise(parent: list[dict], change: list[dict],
              metrics: list[tuple[str, str]]) -> list[dict]:
    """One row per (name, better) metric over paired runs: parent[k] and
    change[k] are the metric dicts of pair k, ``better`` is "lower" or
    "higher"."""
    rows = []
    for name, better in metrics:
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        sign = 1 if better == "lower" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(old, new))
        q1, q3 = quartiles(old)
        old_median, new_median = statistics.median(old), statistics.median(new)
        rows.append({
            "name": name, "parent": old_median, "change": new_median,
            "q1": q1, "q3": q3, "wins": wins, "pairs": len(old),
            "holds": (wins >= WIN_SHARE * len(old)
                      and sign * (old_median - new_median) > q3 - q1),
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"{'metric':<12} {'parent':>11} {'(q1-q3)':>23} {'change':>11} "
             f"{'diff':>8} {'won':>7}  gain"]
    for r in rows:
        diff = r["change"] / r["parent"] - 1 if r["parent"] else 0.0
        lines.append(
            f"{r['name']:<12} {r['parent']:>11.5g} "
            f"({r['q1']:>10.5g}-{r['q3']:<10.5g}) {r['change']:>11.5g} "
            f"{diff:>+8.1%} {r['wins']:>3}/{r['pairs']:<3}  "
            f"{'holds' if r['holds'] else 'no'}")
    return lines


def make_side(tmp: pathlib.Path, name: str, rev: str | None) -> pathlib.Path:
    """A directory holding ``src`` (REV's, or the working tree's when rev is
    None) and the working tree's ``perfbench/``."""
    side = tmp / name
    side.mkdir()
    skip = shutil.ignore_patterns("__pycache__", "out")
    if rev is None:
        shutil.copytree(ROOT / "src", side / "src", ignore=skip)
    else:
        extract_src(rev, str(side))
    shutil.copytree(ROOT / "perfbench", side / "perfbench", ignore=skip)
    return side


def bench(side: pathlib.Path, workload: str, seed: int, seconds: int) -> dict:
    """The metric values of one untraced benchmark run in *side*."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit(f"benchmark run in {side.name} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        print(f"  {side.name}: {out['failed']} of {out['attempted']} jobs failed")
    return {k: v["value"] for k, v in out["metrics"].items()}


def main(args: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    opts = parser.parse_args(args)
    spec = json.loads(BENCHMARK.read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    parent, change = [], []
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"parent": make_side(pathlib.Path(tmp), "parent", opts.against),
                 "change": make_side(pathlib.Path(tmp), "change", None)}
        for k in range(opts.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            got = {name: bench(sides[name], opts.workload, opts.seed,
                               spec["run_seconds"]) for name in order}
            parent.append(got["parent"])
            change.append(got["change"])
            print(f"pair {k + 1}/{opts.pairs} ({order[0]} first): " + ", ".join(
                f"{name} {got['parent'][name]:.5g} -> {got['change'][name]:.5g}"
                for name, _ in metrics[:3]), flush=True)
    print(f"\n{opts.workload}, seed {opts.seed}, {opts.against} against the "
          f"working tree, {opts.pairs} pairs")
    print("\n".join(format_rows(summarise(parent, change, metrics))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
