"""Independent checks of the CLI's JSON reports.

Nothing here calls the routine that produced the answer being checked:

* numerical-semigroup facts come from a brute-force membership table;
* the semigroup of values of K[[f_1..f_s]] / K[f_1..f_s] comes from a
  module closure over K[[f]] / K[f] for the generator f of least value,
  computed modulo the prime 2^61 - 1 (values over Q and modulo a prime of
  this size differ only if the prime divides one of finitely many small
  integers fixed by the input);
* plane-local jobs with f = x^n are checked against the gcd descent on
  the support of g, and curve-infinity inputs are built with a known
  semigroup (Abhyankar-Moh delta-sequences);
* two-generator jobs are also checked against the package's other route
  (basis loop vs plane-branch pipeline), which the caller supplies.

Each check returns a list of mismatch descriptions; empty means correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

PRIME = (1 << 61) - 1


# -- numerical semigroups by brute force --------------------------------


def membership(gens, bound):
    """Membership of <gens> on [0, bound] by dynamic programming."""
    table = bytearray(bound + 1)
    table[0] = 1
    for g in sorted(set(gens)):
        for n in range(g, bound + 1):
            if table[n - g]:
                table[n] = 1
    return table


def semigroup_facts(gens) -> dict:
    """Every fact the CLI reports for a gcd-1 semigroup, by brute force."""
    gens = sorted(set(gens))
    m = gens[0]
    if m == 1:
        return {"generators": gens, "minimal_generators": [1], "gcd": 1,
                "conductor": 0, "frobenius": -1, "genus": 0, "gaps": [],
                "type_set": [-1], "symmetric": True, "sporadic": 0}
    bound = (m - 1) * (gens[-1] - 1) + 2 * gens[-1]
    table = membership(gens, bound)
    c = bound
    while table[c - 1]:
        c -= 1

    def member(x):
        return x >= c or (x >= 0 and table[x])

    gaps = [x for x in range(c) if not table[x]]
    minimal = [g for g in gens if not any(member(g - h) for h in gens if h < g)]
    type_set = [x for x in gaps if all(member(x + g) for g in minimal)]
    return {"generators": gens, "minimal_generators": minimal, "gcd": 1,
            "conductor": c, "frobenius": c - 1, "genus": len(gaps),
            "gaps": gaps, "type_set": type_set,
            "symmetric": 2 * len(gaps) == c, "sporadic": c - len(gaps)}


def check_semigroup_report(rep, expected_minimal=None) -> list[str]:
    """All reported facts against the brute force on the reported generators."""
    if rep.get("gcd") != 1:
        return [f"expected a numerical semigroup, got gcd {rep.get('gcd')}"]
    facts = semigroup_facts(rep["generators"])
    bad = [f"{k}: reported {_short(rep.get(k))}, brute force {_short(v)}"
           for k, v in facts.items() if rep.get(k) != v]
    if expected_minimal is not None and rep["minimal_generators"] != expected_minimal:
        bad.append(f"minimal generators {rep['minimal_generators']}, "
                   f"expected {expected_minimal}")
    return bad


def _short(v):
    s = repr(v)
    return s if len(s) < 80 else s[:77] + "..."


def check_presentation(pairs, gens) -> list[str]:
    """Every pair is a relation of the given generators with its value."""
    bad = []
    for p in pairs:
        a, b, v = p["alpha"], p["beta"], p["value"]
        va = sum(x * g for x, g in zip(a, gens))
        vb = sum(x * g for x, g in zip(b, gens))
        if a == b or va != v or vb != v:
            bad.append(f"pair {a} ~ {b} at {v} is not a relation of {gens}")
    if len(pairs) < len(set(gens)) - 1:
        bad.append(f"{len(pairs)} pairs cannot present {len(set(gens))} generators")
    return bad


# -- semigroups of values by module closure -----------------------------


def _mul(a: dict, b: dict, cap) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            if cap is None or e < cap:
                out[e] = (out.get(e, 0) + c1 * c2) % PRIME
    return {e: c for e, c in out.items() if c}


def value_apery(gens_terms, setting: str, cap=None):
    """(n, {residue: least value}) of the algebra, n the least generator value.

    The algebra is a module over K[[f]] (local) or K[f] (global) for the
    generator f of least value n, and K[[x]] (K[x]) is free of rank n over
    that ring.  Closing {1} under multiplication by the other generators and
    reducing leading values modulo n gives one element per residue class
    whose value is least in that class: the Apery set of the semigroup of
    values with respect to n.  Local computations are truncated at ``cap``,
    so residues whose least value is >= cap are absent.
    """
    local = setting == "local"
    lead = min if local else max
    polys = []
    for terms in gens_terms:
        p = {}
        for c, e in terms:
            if e == 0 and local:
                continue
            p[e] = (p.get(e, 0) + c) % PRIME
        polys.append({e: c for e, c in p.items() if c})
    base_i = min(range(len(polys)), key=lambda i: lead(polys[i]))
    base = polys[base_i]
    n = lead(base)
    inv = pow(base[n], PRIME - 2, PRIME)
    base = {e: c * inv % PRIME for e, c in base.items()}
    if cap is not None:
        base = {e: c for e, c in base.items() if e < cap}
    others = [p for i, p in enumerate(polys) if i != base_i]
    powers = [{0: 1}]

    def base_power(k):
        while len(powers) <= k:
            powers.append(_mul(powers[-1], base, cap))
        return powers[k]

    apery: dict[int, dict] = {}
    queue = []

    def insert(p):
        while p:
            v = lead(p)
            q = apery.get(v % n)
            if q is None or lead(q) > v:
                # p becomes the class representative; the old one is reduced
                apery[v % n] = p
                queue.append(p)
                if q is None:
                    return
                p, q = q, p
                v = lead(p)
            vq = lead(q)
            coeff = p[v] * pow(q[vq], PRIME - 2, PRIME) % PRIME
            shifted = _mul(base_power((v - vq) // n), q, cap)
            for e, c in shifted.items():
                x = (p.get(e, 0) - coeff * c) % PRIME
                if x:
                    p[e] = x
                else:
                    p.pop(e, None)

    insert({0: 1})
    while queue:
        b = queue.pop()
        for g in others:
            insert(_mul(b, g, cap))
    return n, {r: lead(p) for r, p in apery.items()}


def check_values(rep, gens_terms, setting: str) -> list[str]:
    """Reported semigroup of values against the module closure."""
    if rep.get("gcd") != 1:
        return []  # already reported by check_semigroup_report
    cap = rep["conductor"] + max(rep["generators"]) + 1 if setting == "local" else None
    n, apery = value_apery(gens_terms, setting, cap)
    if len(apery) < n:
        missing = sorted(set(range(n)) - set(apery))
        return [f"module closure: residues {missing[:5]} mod {n} have no value"
                + (f" below {cap}" if cap else "")]
    minimal = semigroup_facts([n] + [v for v in apery.values() if v])[
        "minimal_generators"]
    if minimal != rep["minimal_generators"]:
        return [f"minimal generators {rep['minimal_generators']}, "
                f"module closure gives {minimal}"]
    return []


# -- plane branches -----------------------------------------------------


def gcd_descent(n: int, support) -> dict:
    """Characteristic sequence of K[[x^n, g]] from the support of g."""
    supp = sorted(set(support))
    d, ms, ds = n, [], [n]
    while d != 1:
        m = next(i for i in supp if i % d)
        ms.append(m)
        d = math.gcd(d, m)
        ds.append(d)
    es = [ds[k] // ds[k + 1] for k in range(len(ms))]
    rs = [n, ms[0]]
    for k in range(2, len(ms) + 1):
        rs.append(rs[k - 1] * es[k - 2] + ms[k - 1] - ms[k - 2])
    return {"r": rs, "d": ds, "e": es, "m": ms}


def check_char_sequence(rep, n: int, g_terms) -> list[str]:
    seq = gcd_descent(n, [e for _, e in g_terms])
    got = rep["char_sequence"]
    bad = [f"char_sequence {k}: reported {got.get(k)}, descent {v}"
           for k, v in seq.items() if got.get(k) != v]
    minimal = semigroup_facts(seq["r"])["minimal_generators"]
    if rep["semigroup"]["minimal_generators"] != minimal:
        bad.append(f"minimal generators {rep['semigroup']['minimal_generators']}, "
                   f"descent gives {minimal}")
    c = rep["semigroup"]["conductor"]
    if got.get("C") != c:
        bad.append(f"conductor formula {got.get('C')} != conductor {c}")
    return bad


# -- reduced bases ------------------------------------------------------


def check_reduced(entries, semigroup, setting: str, published=None) -> list[str]:
    """Each reduced element is x^v plus a tail supported on the gaps."""
    gaps = set(semigroup["gaps"])
    bad = []
    for entry in entries:
        v = entry["value"]
        exps = [e for e, _ in entry["terms"]]
        lead = min(exps) if setting == "local" else max(exps)
        coeff = {e: Fraction(c) for e, c in entry["terms"]}
        if lead != v or coeff.get(v) != 1:
            bad.append(f"reduced element of value {v} leads with "
                       f"{coeff.get(lead)}*x^{lead}")
        tail = [e for e in exps if e != v]
        if any(e not in gaps for e in tail):
            bad.append(f"reduced element of value {v} has tail exponents "
                       f"{[e for e in tail if e not in gaps]} off the gaps")
    if published:
        strings = {e["value"]: e["string"] for e in entries}
        for v, s in published.items():
            if strings.get(v) != s:
                bad.append(f"reduced element {v}: {strings.get(v)}, published {s}")
    return bad


# -- per job ------------------------------------------------------------


def check_job(job, rep, other_route) -> list[str]:
    """All checks that apply to one job's parsed report.

    ``other_route(job)`` returns the package's second-route minimal
    generators for two-generator jobs, or None where there is none.
    """
    kind, data = job["kind"], job["data"]
    sg = rep.get("semigroup")
    if sg is None:
        return ["report has no semigroup"]
    expected = data.get("minimal")
    if "semigroup_gens" in data:
        expected = semigroup_facts(data["semigroup_gens"])["minimal_generators"]
    bad = check_semigroup_report(sg, expected)
    if kind == "semigroup" and sg["generators"] != sorted(set(data["semigroup_gens"])):
        bad.append(f"generators {sg['generators']} != input {data['semigroup_gens']}")
    if "gens" in data:
        if kind == "plane-local-mono":
            n = data["gens"][0][0][1]
            bad += check_char_sequence(rep, n, data["gens"][1])
        else:
            bad += check_values(sg, data["gens"], data["setting"])
    if "reduced_basis" in rep:
        bad += check_reduced(rep["reduced_basis"], sg, data["setting"],
                             data.get("reduced"))
    if "presentation" in rep:
        gens = (data["semigroup_gens"] if kind == "semigroup"
                else [e["value"] for e in rep["basis"]])
        bad += check_presentation(rep["presentation"], gens)
    route = other_route(job)
    if route is not None and route != sg["minimal_generators"]:
        bad.append(f"other route gives minimal generators {route}, "
                   f"report {sg['minimal_generators']}")
    return bad
