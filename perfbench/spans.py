"""Spans around the calls into each curvesgp module, for the traced run.

The wrappers live here, in the benchmark, and are installed on every
module binding of a wrapped function (``from .numsgp import ...`` copies
a name into the importing module, so each copy is replaced) and on the
classes whose methods are wrapped.  The package itself is not modified.

Three kinds of wrapper:

* ``span``: records name, start, end, parent span and job id.  Spans are
  kept in flat arrays in memory and summarised once the run ends.
* ``leaf``: for functions called hundreds of thousands of times
  (``Poly.__mul__``, ``NumSgp.factorizations``), which call nothing else
  that is wrapped.  Time and calls are summed per name and charged to the
  enclosing span's children, so self times stay exact without one record
  per call.
* ``count``: call counts only (``MPoly.__mul__``, ``MPoly.exact_div``);
  their time stays in the enclosing span's self time (Bareiss).
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def dump_path(workload: str, seed: int) -> str:
    """Where the traced run of (workload, seed) writes its spans."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, f"spans-{workload}-{seed}.tsv")


class Tracer:
    def __init__(self):
        self.on = False
        self.job = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_of = array("i")
        self.child = array("d")
        self.stack: list[int] = []
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.seen_presentations: set = set()
        self.resultant_dim_max = 0

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_of.append(self.job)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        t = perf_counter()
        self.end[idx] = t
        self.stack.pop()
        if self.stack:
            self.child[self.stack[-1]] += t - self.start[idx]

    def dump(self, path: str) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w") as fh:
            fh.write("span\tname\tstart\tend\tparent\tjob\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\t{self.job_of[i]}\n")


T = Tracer()


def span(name, fn, after=None, before=None):
    """``name`` is a string or a function of the call's arguments."""
    naming = name if callable(name) else None

    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if not T.on:
            return fn(*args, **kw)
        if before is not None:
            before(args, kw)
        idx = T.open(naming(args, kw) if naming else name)
        try:
            result = fn(*args, **kw)
        finally:
            T.close(idx)
        if after is not None:
            after(args, kw, result)
        return result

    return wrapper


def leaf(name, fn, work=None):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if not T.on:
            return fn(*args, **kw)
        t0 = perf_counter()
        result = fn(*args, **kw)
        dt = perf_counter() - t0
        T.leaf_time[name] += dt
        T.counts[name + ".calls"] += 1
        if work is not None:
            T.counts[name + ".work"] += work(args)
        if T.stack:
            T.child[T.stack[-1]] += dt
        return result

    return wrapper


def count(name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        if T.on:
            T.counts[name] += 1
        return fn(*args, **kw)

    return wrapper


# -- what is wrapped ----------------------------------------------------


def _reduce_mode(args, kw):
    mode = kw.get("mode", args[2] if len(args) > 2 else None)
    return f"reduction.reduce.{mode}"


def _after_reduce(args, kw, out):
    mode = _reduce_mode(args, kw).rsplit(".", 1)[1]
    T.counts[f"reduction.steps.{mode}"] += len(out.expression)
    if mode == "algorithmic" and not out.remainder.is_zero:
        T.counts["reduction.adjoins"] += 1


def _after_presentation(args, kw, pres):
    T.counts["numsgp.presentation_pairs"] += len(pres.pairs)
    gens = tuple(args[0] if args else kw["gens"])
    if gens in T.seen_presentations:
        T.counts["numsgp.presentation_repeats"] += 1
    T.seen_presentations.add(gens)


def _after_basis(args, kw, basis):
    T.counts["basis.adjoined"] += len(basis.elements) - basis.n_input


def _after_deform(args, kw, ds):
    T.counts["deformation.relators"] += len(ds.relators)
    T.counts["deformation.incomplete"] += sum(1 for r in ds.relators
                                              if not r.complete)


def _before_bareiss(args, kw):
    T.resultant_dim_max = max(T.resultant_dim_max, len(args[0]))


def install() -> None:
    """Replace every binding of the traced functions in curvesgp."""
    from curvesgp import (deformation, localbasis, globalbasis, mpoly, numsgp,
                          parsing, planebranch, poly, reduction, report, series)

    wrappers = {}

    def add(fn, wrapper):
        wrappers[fn] = wrapper

    add(numsgp.presentation_for_generators,
        span("numsgp.presentation", numsgp.presentation_for_generators,
             after=_after_presentation))
    add(reduction.reduce_poly,
        span(_reduce_mode, reduction.reduce_poly, after=_after_reduce))
    for fn in (localbasis.local_basis, globalbasis.global_basis):
        add(fn, span("basis.build", fn, after=_after_basis))
    for fn in (localbasis.reduced_basis, localbasis.minimal_basis,
               globalbasis.reduced_basis_global):
        add(fn, span("basis.reduced", fn))
    for fn in (mpoly.sylvester_resultant, mpoly.resultant_eliminate,
               mpoly.curve_resultant):
        add(fn, span("mpoly.resultant", fn))
    add(mpoly.bareiss_determinant,
        span("mpoly.bareiss", mpoly.bareiss_determinant, before=_before_bareiss))
    add(series.nth_root_series, span("series.root", series.nth_root_series))
    for fn in (series.reverse_series, series.inverse_series):
        add(fn, span("series.reverse", fn))
    add(series.compose_series, span("series.compose", series.compose_series))
    add(planebranch.reparametrize,
        span("planebranch.reparam", planebranch.reparametrize))
    add(planebranch.approximate_root,
        span("planebranch.approx_root", planebranch.approximate_root))
    add(mpoly.eval_bipoly, span("planebranch.eval", mpoly.eval_bipoly))
    for fn in (planebranch.gamma_local_pair, planebranch.plane_local,
               planebranch.gamma_at_infinity, planebranch.gamma_curve_infinity,
               planebranch.intersection_degree,
               planebranch.char_sequence_from_support,
               planebranch.delta_sequence):
        add(fn, span("planebranch", fn))
    add(deformation.deform,
        span("deformation.deform", deformation.deform, after=_after_deform))
    add(deformation.deform_from_basis,
        span("deformation.deform", deformation.deform_from_basis))
    for fn in (parsing.parse_poly, parsing.parse_poly_list, parsing.parse_mpoly):
        add(fn, span("parsing", fn))
    for fn in (report.semigroup_report, report.presentation_report,
               report.basis_report, report.reduction_report,
               report.deformation_report, report.char_sequence_report,
               report.semigroup_lines, report.basis_lines,
               report.deformation_lines, report.poly_entry, report.poly_terms,
               poly.render_poly, mpoly.render_mpoly):
        add(fn, span("report", fn))

    for modname, mod in list(sys.modules.items()):
        if modname == "curvesgp" or modname.startswith("curvesgp."):
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])

    NumSgp = numsgp.NumSgp
    NumSgp.__init__ = span("numsgp.init", NumSgp.__init__)
    for attr in ("gaps", "type_set", "apery_set", "minimal_generators",
                 "sporadic_count", "is_symmetric"):
        setattr(NumSgp, attr, span("numsgp.invariants", getattr(NumSgp, attr)))
    NumSgp.genus = property(span("numsgp.invariants", NumSgp.genus.fget))
    NumSgp.factorizations = leaf("numsgp.factorizations", NumSgp.factorizations)
    poly.Poly.__mul__ = leaf("poly.mul", poly.Poly.__mul__,
                             work=lambda a: len(a[0].coeffs) * len(a[1].coeffs))
    mpoly.MPoly.__mul__ = count("mpoly.mul_calls", mpoly.MPoly.__mul__)
    mpoly.MPoly.exact_div = count("mpoly.exact_div_calls", mpoly.MPoly.exact_div)


# -- per-layer metrics --------------------------------------------------


# layer of each span name, for the shares
LAYER = {
    "cli": "cli", "parsing": "parsing", "report": "report",
    "numsgp.presentation": "numsgp", "numsgp.init": "numsgp",
    "numsgp.invariants": "numsgp", "numsgp.factorizations": "numsgp",
    "reduction.reduce.algorithmic": "reduction",
    "reduction.reduce.expression": "reduction",
    "reduction.reduce.reduced": "reduction",
    "basis.build": "basis", "basis.reduced": "basis", "poly.mul": "poly",
    "mpoly.resultant": "mpoly", "mpoly.bareiss": "mpoly",
    "series.root": "series", "series.reverse": "series",
    "series.compose": "series", "planebranch": "planebranch",
    "planebranch.reparam": "planebranch",
    "planebranch.approx_root": "planebranch", "planebranch.eval": "planebranch",
    "deformation.deform": "deformation",
}
LAYERS = ("numsgp", "reduction", "basis", "poly", "mpoly", "series",
          "planebranch", "deformation", "parsing", "report", "cli")
MODES = ("algorithmic", "expression", "reduced")


def summarise(traced_wall: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from the recorded spans."""
    n = len(T.start)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    names = [T.names[T.name[i]] for i in range(n)]
    covered = 0.0
    for i in range(n):
        dur = T.end[i] - T.start[i]
        self_t[names[i]] += dur - T.child[i]
        calls[names[i]] += 1
        if T.parent[i] == -1:
            covered += dur
    for name, t in T.leaf_time.items():
        self_t[name] += t

    # expression-mode reductions made while building or reducing a basis
    basis_ids = {T._ids.get("basis.build"), T._ids.get("basis.reduced")} - {None}
    expr_id = T._ids.get("reduction.reduce.expression")
    expr_all = expr_in_basis = 0.0
    for i in range(n):
        if T.name[i] != expr_id:
            continue
        dur = T.end[i] - T.start[i]
        expr_all += dur
        p = T.parent[i]
        while p != -1 and T.name[p] not in basis_ids:
            p = T.parent[p]
        if p != -1:
            expr_in_basis += dur

    c = T.counts
    m: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def ratio(a, b):
        return a / b if b else 0.0

    put("numsgp.presentation_s", self_t["numsgp.presentation"], "s")
    put("numsgp.presentation_calls", calls["numsgp.presentation"], "count")
    put("numsgp.presentation_pairs", c["numsgp.presentation_pairs"], "count")
    put("numsgp.presentation_repeat_share",
        ratio(c["numsgp.presentation_repeats"], calls["numsgp.presentation"]),
        "ratio")
    put("numsgp.init_s", self_t["numsgp.init"], "s")
    put("numsgp.init_calls", calls["numsgp.init"], "count")
    put("numsgp.invariants_s", self_t["numsgp.invariants"], "s")
    put("numsgp.factorizations_s", self_t["numsgp.factorizations"], "s")
    put("numsgp.factorizations_calls", c["numsgp.factorizations.calls"], "count")
    for mode in MODES:
        key = f"reduction.reduce.{mode}"
        put(f"reduction.reduce_s.{mode}", self_t[key], "s")
        put(f"reduction.reduce_calls.{mode}", calls[key], "count")
        put(f"reduction.steps.{mode}", c[f"reduction.steps.{mode}"], "count")
    put("reduction.adjoin_ratio",
        ratio(c["reduction.adjoins"], calls["reduction.reduce.algorithmic"]),
        "ratio")
    put("reduction.trace_share", ratio(expr_in_basis, expr_all), "ratio")
    put("basis.build_s", self_t["basis.build"], "s")
    put("basis.adjoined", c["basis.adjoined"], "count")
    put("basis.reduced_s", self_t["basis.reduced"], "s")
    put("poly.mul_s", self_t["poly.mul"], "s")
    put("poly.mul_calls", c["poly.mul.calls"], "count")
    put("poly.mul_coeff_ops", c["poly.mul.work"], "count")
    put("mpoly.resultant_s", self_t["mpoly.resultant"], "s")
    put("mpoly.resultant_dim_max", T.resultant_dim_max, "count")
    put("mpoly.bareiss_s", self_t["mpoly.bareiss"], "s")
    put("mpoly.mul_calls", c["mpoly.mul_calls"], "count")
    put("mpoly.exact_div_calls", c["mpoly.exact_div_calls"], "count")
    put("series.root_s", self_t["series.root"], "s")
    put("series.reverse_s", self_t["series.reverse"], "s")
    put("series.compose_s", self_t["series.compose"], "s")
    put("series.compose_calls", calls["series.compose"], "count")
    put("planebranch.reparam_calls", calls["planebranch.reparam"], "count")
    put("planebranch.approx_root_s", self_t["planebranch.approx_root"], "s")
    put("planebranch.approx_root_calls", calls["planebranch.approx_root"], "count")
    put("planebranch.eval_s", self_t["planebranch.eval"], "s")
    put("planebranch.self_s",
        self_t["planebranch"] + self_t["planebranch.reparam"], "s")
    put("deformation.deform_s", self_t["deformation.deform"], "s")
    put("deformation.relators", c["deformation.relators"], "count")
    put("deformation.incomplete_share",
        ratio(c["deformation.incomplete"], c["deformation.relators"]), "ratio")
    put("parsing.self_s", self_t["parsing"], "s")
    put("report.self_s", self_t["report"], "s")
    put("cli.self_s", self_t["cli"], "s")

    layer_t: dict[str, float] = defaultdict(float)
    for name, t in self_t.items():
        layer_t[LAYER[name]] += t
    for layer in LAYERS:
        put(f"share.{layer}", ratio(layer_t[layer], covered), "ratio")
    put("trace.spans", n, "count")
    put("trace.uncovered_s", traced_wall - covered, "s")
    return m
