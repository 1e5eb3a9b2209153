"""curvesgp benchmark: one run of one workload.

    python3 perfbench/run.py --workload basis --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end
metrics: one fresh worker process runs the workload's job list, and
``setup_s`` is the CPU time of a cold ``import curvesgp.cli`` in fresh
interpreters.
Times are reported at the reference speed of ``probe.py`` (measured time
* REFERENCE_S / probe time, the probe taken around each job and each
spawn), because the speed of a shared machine drifts by a third between
runs; the unscaled times are printed too.

``--trace 1`` runs one untraced and one traced pass, each in a fresh
worker, and reports the per-layer metrics and the tracing overhead.

The untraced pass checks every job's output (``checks.py``); the traced
pass must reproduce it byte for byte.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import probe  # noqa: E402
import spans  # noqa: E402
from workloads import build_jobs  # noqa: E402

WORKLOADS = ("basis", "plane", "semigroup")
SETUP_SAMPLES = 12         # spawns before the worker, and again after it


def run_limit(seconds: int) -> float:
    """Seconds after which a run gives up on its worker: 170 at the 20 s
    that BENCHMARK.json sets, and room for two passes at longer runs."""
    return 150.0 + seconds


def _env(**extra) -> dict:
    """Children import curvesgp from src/ and write no bytecode."""
    env = dict(os.environ)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env.update(PYTHONPATH="src", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update(extra)
    return env


def _children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def setup_samples() -> list[tuple[float, float, float]]:
    """(CPU time of ``python -c "import curvesgp.cli"``, its spawn-to-exit
    time, probe time around it), one triple per spawn.

    CPU time, because the host stalls the virtual machine in steps of about
    50 ms (the guest counts them as steal time): spawn-to-exit medians of
    the same code flipped between 0.115 and 0.165 s, while the CPU time,
    which leaves the stalls out, held within a few percent.

    The spawns keep their bytecode in a fresh directory that the first,
    untimed spawn fills from the sources, so every timed spawn loads
    bytecode compiled in this run, whatever ``__pycache__`` the checkout
    holds."""
    cmd = [sys.executable, "-c", "import curvesgp.cli"]
    os.makedirs(spans.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=spans.OUT_DIR, prefix="pycache-") as cache:
        subprocess.run(cmd, env=_env(PYTHONPYCACHEPREFIX=cache,
                                     PYTHONDONTWRITEBYTECODE=""),
                       check=True, timeout=60)
        env = _env(PYTHONPYCACHEPREFIX=cache)
        samples = []
        for _ in range(SETUP_SAMPLES):
            before = probe.probe()
            c0, t0 = _children_cpu(), perf_counter()
            subprocess.run(cmd, env=env, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
            elapsed = perf_counter() - t0
            samples.append((_children_cpu() - c0, elapsed,
                            (before + probe.probe()) / 2))
    return samples


def scaled(elapsed: float, probe_s: float) -> float:
    return elapsed * probe.REFERENCE_S / probe_s


def total_scaled(res) -> float:
    return sum(scaled(t, p) for t, p in zip(res["times"], res["probes"])
               if t is not None)


def run_worker(args, trace: int, deadline: float) -> dict | None:
    """One pass of the job list in a fresh worker; None if the worker was
    still running at ``deadline`` (a perf_counter time) and was killed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def merge_failures(passes) -> list[dict]:
    """Failures of every pass, plus jobs whose output differs from pass 1's."""
    by_id: dict[int, dict] = {}
    for p in passes:
        for f in p["failures"]:
            by_id.setdefault(f["id"], dict(f, reasons=[]))["reasons"] += f["reasons"]
    first = passes[0]
    for k, p in enumerate(passes[1:], 2):
        for i, (a, b) in enumerate(zip(first["digests"], p["digests"])):
            if a != b:
                f = by_id.setdefault(i, {"id": i, "kind": first["kinds"][i],
                                         "argv": first["argvs"][i], "reasons": []})
                f["reasons"].append(f"output of pass {k} differs from pass 1")
    return [by_id[i] for i in sorted(by_id)]


def tail(times):
    """(value, percentile): the highest whole percentile with at least ten
    jobs beyond it, nearest rank."""
    xs = sorted(times)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], p
    return xs[-1], 100


def report(metrics, attempted: int, failures) -> None:
    """Print the failures, the metric table and the final JSON line."""
    for f in failures:
        print(f"FAILED job {f['id']} [{f['kind']}] {' '.join(f['argv'])}: "
              + "; ".join(f["reasons"]))
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g}  {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def report_killed(args, elapsed: float) -> int:
    """A worker ran past the run's time limit and was killed: every job
    counts as failed, every time metric is the time the run took and every
    other metric 0."""
    jobs = build_jobs(args.workload, args.seed, args.seconds)
    print(f"workload {args.workload}, seed {args.seed}: worker killed at the "
          f"run's time limit of {run_limit(args.seconds):g} s")
    if args.trace:
        units = {k: u for k, (_, u) in spans.summarise(0.0).items()}
        units["trace.overhead_share"] = "ratio"
    else:
        units = {"wall_s": "s", "job_s.p50": "s", "job_s.tail": "s",
                 "ok_share": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {k: (elapsed if u == "s" else 0.0, u) for k, u in units.items()}
    report(metrics, len(jobs), [
        {"id": j["id"], "kind": j["kind"], "argv": j["argv"],
         "reasons": ["worker killed at the run's time limit"]} for j in jobs])
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "curvesgp", "cli.py")):
        print("run from the repository root: src/curvesgp is missing",
              file=sys.stderr)
        return 2

    started = perf_counter()
    # leaves room for the set-up spawns after the worker and the report
    deadline = started + run_limit(args.seconds) - 10
    if args.trace:
        base = run_worker(args, 0, deadline)
        passes = [base, base and run_worker(args, 1, deadline)]
    else:
        setup = setup_samples()
        passes = [run_worker(args, 0, deadline)]
        setup += setup_samples()
    if None in passes:
        return report_killed(args, perf_counter() - started)

    failures = merge_failures(passes)
    attempted = passes[0]["attempted"]
    if args.trace:
        base, traced = passes
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["trace.overhead_share"] = (
            total_scaled(traced) / total_scaled(base) - 1, "ratio")
    else:
        runs = [(t, p) for t, p in zip(passes[0]["times"], passes[0]["probes"])
                if t is not None]
        per_job = [scaled(t, p) for t, p in runs]
        tail_s, pct = tail(per_job)
        raw = [t for t, _ in runs]
        metrics = {
            "wall_s": (sum(per_job), "s"),
            "job_s.p50": (statistics.median(per_job), "s"),
            "job_s.tail": (tail_s, "s"),
            "ok_share": (1 - len(failures) / attempted, "ratio"),
            "peak_rss_mb": (passes[0]["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(scaled(c, p) for c, _, p in setup), "s"),
        }

    kinds = sorted(set(passes[0]["kinds"]))
    print(f"workload {args.workload}, seed {args.seed}: {attempted} jobs "
          f"({', '.join(kinds)}), closed loop, one client")
    if not args.trace:
        print(f"job_s.tail is the p{pct} (nearest rank, {len(per_job)} jobs); "
              f"setup_s is the median of {len(setup)} spawns")
        print(f"unscaled: wall_s {sum(raw):.6g} s, job_s.p50 "
              f"{statistics.median(raw):.6g} s, job_s.tail {tail(raw)[0]:.6g} s, "
              f"setup_s {statistics.median(c for c, _, _ in setup):.6g} s "
              f"(spawn-to-exit {statistics.median(t for _, t, _ in setup):.6g} s); "
              f"median probe {statistics.median(p for _, p in runs) * 1e3:.4g} ms "
              f"(reference {probe.REFERENCE_S * 1e3:g} ms)")
    report(metrics, attempted, failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
