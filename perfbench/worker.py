"""One run of one workload, in a fresh interpreter (started by run.py).

Imports curvesgp from ``src/``, builds the seeded job list, runs the jobs
one at a time (a closed loop with one client), and only then checks every
output.  Prints one JSON object with the per-job times, the speed probe
around each job (probe.py) and the failures.

    PYTHONPATH=src python3 perfbench/worker.py --workload basis --seed 1 \
        --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
from workloads import JOB_LISTS, build_jobs  # noqa: E402

JOB_BUDGET_S = 30.0   # a job or its check over this fails and is abandoned


def phase_budget(seconds: int) -> float:
    """Time for the job loop, and again for the checks: jobs (checks) not
    started by then count as failed.  The loop is calibrated to last about
    ``seconds``."""
    return 30.0 + 2 * seconds


class JobTimeout(BaseException):
    """Raised by the alarm; a BaseException so the CLI's handlers let it by."""


def _alarm(signum, frame):
    raise JobTimeout()


def _poly(terms):
    from curvesgp import Poly
    return Poly.from_terms([(e, c) for c, e in terms])


def other_route(job):
    """Minimal generators from the package's second route, for two-generator
    jobs: basis loop <-> plane-branch pipeline."""
    from curvesgp import gamma_at_infinity, gamma_local_pair, global_basis, local_basis

    data = job["data"]
    gens = data.get("gens")
    if job["kind"] in ("paper", "plane-local-mono") or not gens or len(gens) != 2:
        return None
    f, g = map(_poly, gens)
    if job["kind"] == "plane-local":
        return local_basis([f, g]).semigroup.minimal_generators()
    if job["kind"] == "plane-infinity":
        return global_basis([f, g]).semigroup.minimal_generators()
    if data["setting"] == "local":
        return gamma_local_pair(f, g)[0].minimal_generators()
    return gamma_at_infinity(f, g).semigroup.minimal_generators()


def run_jobs(jobs, main, budget):
    """Run the jobs in order; each result has the job's time and the mean
    of the speed probes taken before and after it.  Also returns the loop's
    wall time without the probes."""
    results = []
    loop_start = perf_counter()
    probing = perf_counter()
    before = probe.probe()
    probing = perf_counter() - probing
    for job in jobs:
        if perf_counter() - loop_start > budget:
            results.append({"time": None, "rc": "not run: loop budget spent"})
            continue
        out, err = io.StringIO(), io.StringIO()
        if spans.T.on:
            spans.T.job = job["id"]
            root = spans.T.open("cli")
        signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(job["argv"])
        except JobTimeout:
            rc = f"over the {JOB_BUDGET_S:g} s job budget"
        except SystemExit as exc:  # argparse rejected the arguments
            rc = f"SystemExit({exc.code})"
        except Exception:
            rc = "traceback: " + traceback.format_exc(limit=-3)
        finally:
            dt = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            if spans.T.on:
                spans.T.close(root)
        t1 = perf_counter()
        after = probe.probe()
        probing += perf_counter() - t1
        results.append({"time": dt, "rc": rc, "out": out.getvalue(),
                        "probe": (before + after) / 2})
        before = after
    return results, perf_counter() - loop_start - probing


def check(job, result) -> list[str]:
    """Failure reasons for one job that exited as expected.  The check runs
    under the job budget, since ``other_route`` calls the code under test."""
    try:
        rep = json.loads(result["out"])
    except ValueError:
        return ["output is not JSON"]
    signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
    try:
        return checks.check_job(job, rep, other_route)
    except JobTimeout:
        return [f"check over the {JOB_BUDGET_S:g} s job budget"]
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=-2)]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def failure_reasons(jobs, results, full: bool, budget: float) -> list[list[str]]:
    """Per job: why it failed (empty if it did not).  ``full`` checks every
    output; otherwise only the exit codes (the traced pass, whose outputs
    run.py compares with the untraced pass's).  Checks not started within
    ``budget`` seconds fail."""
    start = perf_counter()
    reasons = []
    for job, result in zip(jobs, results):
        if result["time"] is None:
            reasons.append([result["rc"]])
        elif result["rc"] != job["expect_rc"]:
            reasons.append([f"exit {result['rc']!r}, expected {job['expect_rc']}"])
        elif not full:
            reasons.append([])
        elif perf_counter() - start > budget:
            reasons.append(["not checked: check budget spent"])
        else:
            reasons.append(check(job, result))
    return reasons


def main_() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(JOB_LISTS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: record spans and check exit codes only (run.py "
                         "compares the outputs with an untraced pass's)")
    args = ap.parse_args()

    import curvesgp
    from curvesgp.cli import main

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(curvesgp.__file__).startswith(src + os.sep):
        print(f"curvesgp imported from {curvesgp.__file__}, not {src}",
              file=sys.stderr)
        return 2

    jobs = build_jobs(args.workload, args.seed, args.seconds)
    signal.signal(signal.SIGALRM, _alarm)
    if args.trace:
        spans.install()
        spans.T.on = True
    budget = phase_budget(args.seconds)
    results, wall = run_jobs(jobs, main, budget)
    spans.T.on = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = [{"id": job["id"], "kind": job["kind"], "argv": job["argv"],
                 "reasons": reasons}
                for job, reasons in zip(jobs, failure_reasons(
                    jobs, results, not args.trace, budget))
                if reasons]
    out = {"peak_rss_mb": peak_rss_mb,
           "times": [r["time"] for r in results],
           "probes": [r.get("probe") for r in results],
           "digests": [hashlib.sha1(repr((r["rc"], r.get("out"))).encode()).hexdigest()
                       for r in results],
           "kinds": [j["kind"] for j in jobs],
           "argvs": [j["argv"] for j in jobs],
           "attempted": len(jobs), "failures": failures}
    if args.trace:
        out["layers"] = spans.summarise(wall)
        spans.T.dump(spans.dump_path(args.workload, args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
