"""Seeded job lists for the three workloads.

A job is one ``curvesgp.cli.main(argv)`` call.  Every job carries its
expected exit code and the structured input the checks need, so that
nothing about a job's correctness is learnt from the package itself.

Inputs are built in *rounds*: each round holds one job of every kind in
the workload's template.  The number of rounds grows linearly with
``--seconds``; ``ROUNDS_PER_SECOND`` was calibrated so that the timed loop
of a run lasts about ``--seconds`` at the commit that introduced the
benchmark.
"""

from __future__ import annotations

import math
import random

ROUNDS_PER_SECOND = {"basis": 2.05, "plane": 3.0, "semigroup": 0.55}

MAGNITUDES = (1, 2, 3)


# -- rendering ---------------------------------------------------------


def _positive_first(terms):
    """A leading '-' would make argparse read the argument as an option."""
    return sorted(terms, key=lambda t: t[0] < 0)


def render(terms) -> str:
    """``[(coeff, exp), ...]`` as parser input, e.g. ``x^9-2*x^13``."""
    out = ""
    for c, e in _positive_first(sorted(terms, key=lambda t: -t[1])):
        body = f"x^{e}" if abs(c) == 1 else f"{abs(c)}*x^{e}"
        out += ("-" if c < 0 else ("+" if out else "")) + body
    return out


def render_curve(terms) -> str:
    """``[(coeff, i, j), ...]`` for sum coeff*x^i*y^j."""
    out = ""
    for c, i, j in _positive_first(sorted(terms, key=lambda t: (-t[2], -t[1]))):
        factors = [f"{v}^{k}" for v, k in (("x", i), ("y", j)) if k]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else [])
                        + factors)
        out += ("-" if c < 0 else ("+" if out else "")) + body
    return out


def job(kind, argv, **data):
    return {"kind": kind, "argv": list(argv) + ["--json"], "expect_rc": 0,
            "data": data}


# -- basis: local/global bases, reduced bases and deformations ---------


# (generators, published minimal generators of the semigroup of orders)
BATTERY = [
    ([[(1, 6)], [(1, 8), (1, 9)], [(1, 19)]], [6, 8, 19, 29]),
    ([[(1, 7)], [(1, 9), (1, 10)], [(1, 19)], [(1, 31)]], [7, 9, 19, 29, 31]),
    ([[(1, 7)], [(1, 21), (1, 28), (1, 33)]], [7, 33]),
    ([[(1, 4)], [(1, 6), (1, 7)], [(1, 13)]], [4, 6, 13, 15]),
    ([[(1, 6)], [(1, 8), (1, 11)], [(1, 10), (2, 13)], [(1, 21)]],
     [6, 8, 10, 21, 23, 25]),
    ([[(1, 5)], [(-1, 18), (-1, 21)], [(-1, 23)], [(-1, 26)]],
     [5, 18, 26, 39, 47]),
    ([[(1, 5)], [(-1, 18), (-1, 21)], [(-1, 26)]], [5, 18, 26, 39, 47]),
    ([[(1, 5)], [(-1, 18), (-1, 21)], [(1, 23), (-1, 26)]],
     [5, 18, 26, 39, 47]),
    ([[(1, 6)], [(1, 9), (1, 10)], [(1, 19)]], [6, 9, 19, 20]),
    ([[(1, 7)], [(1, 9), (1, 10)], [(1, 19)]], [7, 9, 19, 29]),
    ([[(1, 8)], [(1, 9), (1, 10)], [(1, 19)]], [8, 9, 19, 30]),
    ([[(1, 7)], [(1, 9), (1, 10)], [(1, 17)], [(1, 19)]], [7, 9, 17, 19, 29]),
]

# Acceptance criteria 1 and 3: minimal generators and the published
# reduced elements (value -> rendered polynomial).
PAPER = [
    ([[(1, 4), (1, 5)], [(1, 6)], [(1, 15), (1, 16)]], [4, 6, 13, 15],
     {13: "x^13"}),
    ([[(1, 8)], [(1, 12), (1, 14), (1, 15)]], [8, 12, 26, 53],
     {26: "-1/2*x^31+x^29+x^27+x^26",
      53: "-135/32*x^83-15/16*x^75-95/32*x^71+25/8*x^67-1/8*x^63"
          "-1/2*x^57+1/2*x^55+x^53"}),
]


def _coprime_exps(n, lo, hi, exclude=()):
    return [e for e in range(lo, hi) if math.gcd(e, n) == 1 and e not in exclude]


def _coeffs(shape, rng, exps):
    """Coefficients in {1, 2, 3} from the shape, signs from the seed: the
    size of the numbers, which sets the cost of exact arithmetic, is the
    same for every seed."""
    return [(shape.choice(MAGNITUDES) * rng.choice((1, -1)), e) for e in exps]


def _local_gens(shape, rng, n, extra):
    """x^n plus sparse series whose exponents are coprime to n."""
    gens, used = [[(1, n)]], set()
    for _ in range(extra):
        a = shape.choice(_coprime_exps(n, n + 1, 3 * n + 1, used))
        used.add(a)
        tail = shape.sample(_coprime_exps(n, a + 1, a + 2 * n), shape.randint(0, 2))
        gens.append([(1, a)] + _coeffs(shape, rng, tail))
    return gens


def _global_pair(shape, rng, n):
    """x^n and x^a + lower terms, all exponents coprime to n."""
    a = shape.choice(_coprime_exps(n, n + 1, 2 * n))
    tail = shape.sample(_coprime_exps(n, 1, a), shape.randint(0, 2))
    return [[(1, n)], [(1, a)] + _coeffs(shape, rng, tail)]


BASIS_TEMPLATE = ("local", "local-reduced", "deform-local",
                  "global", "global-all", "deform-global")


def basis_jobs(shape, rng, rounds):
    jobs = []
    for gens, mg in BATTERY:
        jobs.append(job("paper", ["local", ",".join(map(render, gens))],
                        setting="local", gens=gens, minimal=mg))
    for gens, mg, reduced in PAPER:
        jobs.append(job("paper", ["local", ",".join(map(render, gens)),
                                  "--show", "reduced"],
                        setting="local", gens=gens, minimal=mg,
                        reduced=reduced))
    for r in range(rounds):
        for slot, kind in enumerate(BASIS_TEMPLATE):
            n = 4 + (r + slot) % 6
            if "local" in kind:
                # four generators only for small n: with n >= 7 they make
                # single jobs of several seconds, which would set the tail
                extra = 1 + (r + slot) % (3 if n <= 6 else 2)
                gens, setting = _local_gens(shape, rng, n, extra), "local"
            else:
                gens, setting = _global_pair(shape, rng, n), "global"
            text = ",".join(map(render, gens))
            argv = {"local": ["local", text],
                    "local-reduced": ["local", text, "--show", "reduced"],
                    "deform-local": ["deform", "local", text],
                    "global": ["global", text],
                    "global-all": ["global", text, "--show", "all"],
                    "deform-global": ["deform", "global", text]}[kind]
            jobs.append(job(kind, argv, setting=setting, gens=gens))
    return jobs


# -- plane: plane-branch pipelines -------------------------------------


MONOMIAL_ORDERS = (4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20)


def _descent_support(shape, n):
    """Support whose gcd descent from n reaches 1 (several steps if n allows).

    Each exponent lies at most max(3, n // 4) past the previous one, which
    keeps deg g, and with it the Sylvester matrix, near 1.5 n."""
    exps, d, e = [], n, n
    while d != 1:
        window = max(3, n // 4)
        while True:
            choices = [k for k in range(e + 1, e + window + 1) if math.gcd(d, k) < d]
            if choices:
                break
            window += 1
        # prefer a proper divisor first, so the descent has several steps
        steps = [k for k in choices if math.gcd(d, k) > 1] or choices
        e = shape.choice(steps if shape.random() < 0.7 else choices)
        d = math.gcd(d, e)
        exps.append(e)
    return exps


def _poly_infinity_pair(shape, rng, n):
    """f of degree n, g of degree a coprime to n (so K(f, g) = K(x))."""
    a = shape.choice(_coprime_exps(n, 2, n + n // 2 + 1, (n,)))
    f = [(1, n)] + _coeffs(shape, rng, shape.sample(range(1, n), min(2, n - 1)))
    g = [(1, a)] + _coeffs(shape, rng, shape.sample(range(1, a),
                                             min(shape.randint(0, 2), a - 1)))
    return f, g


def _curve_infinity(shape, rng, r):
    """A curve with one place at infinity and a known semigroup."""
    if r % 2 == 0:
        # y^n - x^m plus terms of lower (n, m)-weighted degree: <n, m>
        n = shape.choice((3, 4, 5, 6, 7))
        m = shape.choice([k for k in range(2, 2 * n + 2) if math.gcd(k, n) == 1])
        lower = [(i, j) for i in range(m + 1) for j in range(n)
                 if (i, j) != (0, 0) and i * n + j * m < n * m]
        terms = [(1, 0, n), (-1, m, 0)] + [
            (c, i, j) for (c, _), (i, j) in zip(
                _coeffs(shape, rng, range(3)), shape.sample(lower, min(3, len(lower))))]
        return terms, [n, m]
    # (y^a - x^b)^2 - k x^c: delta-sequence (2a, 2b, ac), with a and c odd,
    # gcd(a, b) = 1 and c < 2b (Abhyankar-Moh)
    a = shape.choice((3, 5))
    b = shape.choice([k for k in range(2, 8) if math.gcd(a, k) == 1])
    c = shape.choice(range(1, 2 * b, 2))
    terms = [(1, 0, 2 * a), (-2, b, a), (1, 2 * b, 0)] + [
        (k, c, 0) for k, _ in _coeffs(shape, rng, [c])]
    return terms, [2 * a, 2 * b, a * c]


def plane_jobs(shape, rng, rounds):
    jobs = []
    for r in range(rounds):
        n = MONOMIAL_ORDERS[r % len(MONOMIAL_ORDERS)]
        g = _coeffs(shape, rng, _descent_support(shape, n))
        g[0] = (1, g[0][1])
        jobs.append(job("plane-local-mono", ["plane-local", f"x^{n}", render(g)],
                        setting="local", gens=[[(1, n)], g]))

        n = 3 + r % 4
        f = [(1, n)] + _coeffs(shape, rng, [n + shape.randint(1, 3)])
        a = shape.choice(_coprime_exps(n, n + 1, 2 * n))
        g = [(1, a)] + _coeffs(shape, rng, [a + shape.randint(1, 3)])
        jobs.append(job("plane-local", ["plane-local", render(f), render(g)],
                        setting="local", gens=[f, g]))

        f, g = _poly_infinity_pair(shape, rng, 4 + r % 5)
        jobs.append(job("plane-infinity",
                        ["plane-infinity", render(f), render(g)],
                        setting="global", gens=[f, g]))

        terms, gens = _curve_infinity(shape, rng, r)
        jobs.append(job("curve-infinity", ["curve-infinity", render_curve(terms)],
                        semigroup_gens=gens))
    return jobs


# -- semigroup: numerical semigroups with large conductors -------------


# (number of generators, multiplicity range) per slot of a round: six slots
# of small conductors, whose jobs take well under a second, and two of
# conductors up to 10^4.  Many jobs per run keep the per-job percentiles
# steady from run to run.
SEMIGROUP_TEMPLATE = ((2, 20, 40), (2, 40, 60), (3, 20, 30), (3, 30, 40),
                      (4, 20, 28), (5, 20, 24), (2, 60, 100), (3, 50, 80))

MAX_CONDUCTOR = 10_000


def semigroup_jobs(shape, rng, rounds):
    """Multiplicity m and the other generators' positions in (m, 2m) come
    from the shape; the seed moves each of those by at most 2."""
    from checks import semigroup_facts

    def conductor(gens, s):
        """The conductor, or 0 unless gens are s minimal generators of a
        numerical semigroup."""
        if len(gens) != s or math.gcd(*gens) != 1:
            return 0
        facts = semigroup_facts(gens)
        return facts["conductor"] * (facts["minimal_generators"] == gens)

    jobs = []
    for _ in range(rounds):
        for s, lo, hi in SEMIGROUP_TEMPLATE:
            while True:
                m = shape.randint(lo, hi)
                centre = sorted([m] + shape.sample(range(m + 3, 2 * m - 2), s - 1))
                c0 = conductor(centre, s)
                if 0 < c0 <= MAX_CONDUCTOR:
                    break
            # the work grows steeply with the conductor: keep it within 10%
            # of the centre's, so that seeds differ in inputs, not in size
            for _ in range(50):
                gens = sorted({m} | {p + rng.randint(-2, 2) for p in centre[1:]})
                if abs(conductor(gens, s) - c0) <= c0 / 10:
                    break
            else:
                gens = centre
            jobs.append(job("semigroup", ["semigroup", ",".join(map(str, gens))],
                            semigroup_gens=gens))
    return jobs


JOB_LISTS = {"basis": basis_jobs, "plane": plane_jobs, "semigroup": semigroup_jobs}


def build_jobs(workload: str, seed: int, seconds: int) -> list[dict]:
    """The job list of one run: the same (workload, seed, seconds) gives
    the same list, and no argv occurs twice.

    Sizes (orders, supports, multiplicities) come from a stream that does
    not depend on the seed; the seed picks coefficients and the remaining
    exponents.  So every seed runs the same size mix, and run-to-run
    spread reflects the program rather than how lucky the draw was."""
    shape = random.Random(f"{workload}:shape")
    rng = random.Random(f"{workload}:{seed}")
    rounds = max(1, round(seconds * ROUNDS_PER_SECOND[workload]))
    jobs, seen = [], set()
    for j in JOB_LISTS[workload](shape, rng, rounds):
        key = tuple(j["argv"])
        if key not in seen:
            seen.add(key)
            jobs.append(j)
    for i, j in enumerate(jobs):
        j["id"] = i
    return jobs
