"""Shared helpers for the test suite."""

import contextlib
import math
import os
import shlex
import signal
from fractions import Fraction
from functools import reduce

from curvesgp import MPoly, Poly, QQ, RelationPair
from curvesgp.fields import check_same_field
from curvesgp.numsgp import _monoid, least_factorization_over
from curvesgp.reduction import LimitExceeded, ReductionOutcome


def xp(e: int, c=1, field=QQ) -> Poly:
    return Poly.x_power(e, field, c)


def P(*terms, field=QQ) -> Poly:
    """Poly from (exponent, coefficient) pairs; coefficients may be strings."""
    return Poly.from_terms(terms, field)


def XY(terms: dict, field=QQ) -> MPoly:
    """MPoly in (x, y) from {(ex, ey): coefficient}."""
    return MPoly(("x", "y"), field, {k: field.coerce(v) for k, v in terms.items()})


def UX(terms: dict, nvars: int, field=QQ) -> MPoly:
    """MPoly in (u, X0..X{nvars-1}) from {(eu, e0, ...): coefficient}."""
    vars = ("u",) + tuple(f"X{i}" for i in range(nvars))
    return MPoly(vars, field, {k: field.coerce(v) for k, v in terms.items()})


def to_poly(mp: MPoly) -> Poly:
    """Collapse an MPoly to a univariate Poly; needs at most one active
    variable."""
    active = [i for i in range(len(mp.vars)) if any(e[i] for e in mp.coeffs)]
    if len(active) > 1:
        raise ValueError("more than one variable present")
    i = active[0] if active else 0
    return Poly(mp.field, {e[i]: c for e, c in mp.coeffs.items()})


def least_factorization(n: int, gens) -> tuple[int, ...] | None:
    """The lex-least exponent vector over gens with value n, or None when
    n is not in their monoid (one table of the whole tuple decides that);
    members go to ``numsgp.least_factorization_over``."""
    gens = tuple(gens)
    if not _monoid(gens).contains(n):
        return None
    return least_factorization_over(n, gens, range(len(gens)))


def substitute(f: Poly, g: Poly) -> Poly:
    """f(g(x)), by Horner over the sparse support."""
    check_same_field(f.field, g.field)
    if f.is_zero:
        return Poly.zero(f.field)
    exps = list(reversed(f.support))
    acc = Poly(f.field, {0: f.coeffs[exps[0]]})
    for prev, nxt in zip(exps, exps[1:]):
        acc = acc * g ** (prev - nxt)
        acc = acc + Poly(f.field, {0: f.coeffs[nxt]})
    return acc * g ** exps[-1]


def subs(F: MPoly, values: dict) -> MPoly:
    """Substitute MPolys (all over one common variable tuple) for the
    variables of F."""
    target_vars = next(iter(values.values())).vars
    f = F.field
    out = MPoly.zero(target_vars, f)
    cache: dict = {}

    def power(name, k):
        if (name, k) not in cache:
            cache[(name, k)] = values[name] ** k
        return cache[(name, k)]

    for e, c in F.coeffs.items():
        term = MPoly.constant(target_vars, c, f)
        for name, k in zip(F.vars, e):
            if k:
                term = term * power(name, k)
        out = out + term
    return out


def schoolbook_mul(a: Poly, b: Poly) -> Poly:
    """Reference product: the double loop over term pairs, one product and
    one canonicalised sum per pair."""
    f = a.field
    acc: dict = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = e1 + e2
            acc[e] = f.coerce(acc.get(e, 0) + c1 * c2)
    return Poly(f, acc)


def reference_reduce(f: Poly, ctx, mode: str, bound=None) -> ReductionOutcome:
    """Reference route for ``reduction.reduce_poly``: the same division on
    ``Poly`` values, each step f - c * product(theta) built by
    ``Poly.scale`` and ``Poly.__sub__`` with one field operation per term.
    In the local setting with gcd > 1, ``algorithmic`` and ``reduced`` raise
    ``LimitExceeded`` before a subtraction at or past the escape bound."""
    field = ctx.field
    monoid = ctx.semigroup
    local = ctx.setting == "local"
    shortcut_ok = local and monoid.is_numerical
    c = monoid.scaled_conductor
    if mode == "expression" and bound is None:
        bound = ctx.default_bound()
        if not local and not f.is_zero:
            bound = max(bound, int(f.degree))
    escape = (ctx.escape_bound(f) if local and not shortcut_ok
              and mode != "expression" and not f.is_zero else None)

    def lead_of(p):
        e = p.support[0] if local else p.support[-1]
        return e, p.coeffs[e]

    expression = []
    collected = {}
    work = f
    complete = True
    used_shortcut = False

    def subtract(p):
        if escape is not None and p >= escape:
            raise LimitExceeded(
                f"local division reached the escape bound {escape} at exponent "
                f"{p}, in the value monoid of gcd {monoid.d}")
        theta = ctx.pick_factorization(p)
        _, lead_c = lead_of(work)
        coeff = field.div(lead_c, lead_of(ctx.product(theta))[1])
        expression.append((coeff, theta))
        return work - ctx.product(theta).scale(coeff)

    def strip_lead():
        exp, lead_c = lead_of(work)
        collected[exp] = lead_c
        return work - Poly(field, {exp: lead_c})

    while not work.is_zero:
        p = work.order if local else work.degree
        if mode == "algorithmic":
            if shortcut_ok and p >= c:
                used_shortcut, complete = True, False
                work = Poly.zero(field)
                break
            if not monoid.contains(p):
                break
            work = subtract(p)
        elif mode == "reduced":
            if shortcut_ok and p >= c:
                used_shortcut, complete = True, False
                work = Poly.zero(field)
                break
            work = subtract(p) if monoid.contains(p) else strip_lead()
        else:
            if p > bound:
                complete = False
                break
            work = subtract(p) if monoid.contains(p) else strip_lead()

    remainder = work if mode == "algorithmic" else Poly(field, collected)
    return ReductionOutcome(remainder, expression, complete, used_shortcut)


def reference_basis_element(p: Poly, setting: str) -> tuple[Poly, int]:
    """Reference route for ``reduction.basis_element``, by ``Poly``
    arithmetic: locally the constant term subtracted as a polynomial, then
    the whole scaled by the inverse of the coefficient at the value."""
    if setting == "local":
        p = p - Poly.constant(p.coeff(0), p.field)
    value = int(p.order if setting == "local" else p.degree)
    return p.scale(p.field.inv(p.coeffs[value])), value


def reference_reduced_basis(basis) -> list[tuple[Poly, int]]:
    """Reference route for ``reduction.reduced_basis``: each element split
    into head and tail by ``Poly`` subtraction, the tail divided by
    :func:`reference_reduce` in ``reduced`` mode, and the head added back
    to its remainder."""
    out = []
    for elem in basis.elements:
        head = Poly(basis.field, {elem.value: elem.poly.coeffs[elem.value]})
        tail = elem.poly - head
        if not tail.is_zero:
            head = head + reference_reduce(tail, basis, "reduced").remainder
        out.append((head, elem.value))
    return out


@contextlib.contextmanager
def deadline(seconds):
    """Fail instead of hanging: raise TimeoutError in the block once it has
    run ``seconds`` seconds (a step that leaves the lead term in place, or
    a division that never ends, loops forever)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def readme_cli_argvs() -> list[list[str]]:
    """The argvs of the ``curvesgp`` lines of README's CLI block."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md")) as fh:
        text = fh.read()
    block = text[text.index("## CLI\n"):text.index("## Library\n")]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("curvesgp ")]


def is_canonical(c) -> bool:
    """c is a rational in canonical form: an int (not a bool), or a
    Fraction with denominator > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def frac(s) -> Fraction:
    return Fraction(s)


def brute_semigroup_members(gens, bound):
    """Membership table of <gens> on [0, bound] by dynamic programming."""
    table = [False] * (bound + 1)
    table[0] = True
    for n in range(1, bound + 1):
        table[n] = any(n >= g and table[n - g] for g in gens)
    return table


def brute_conductor(gens):
    """Least c with c + N inside <gens>; requires gcd 1.

    Scans members by dynamic programming up to the first run of min(gens)
    consecutive members: adding min(gens) to them covers every later n.
    """
    member, run = [True], 1
    while run < min(gens):
        n = len(member)
        member.append(any(n >= g and member[n - g] for g in gens))
        run = run + 1 if member[-1] else 0
    return len(member) - run


def factorization_table(gens, top):
    """Entry n: every exponent vector over the tuple gens with value n <= top."""
    g = gens[-1]
    table = [[(n // g,)] if n % g == 0 else [] for n in range(top + 1)]
    for g in reversed(gens[:-1]):
        table = [[(k,) + tail for k in range(n // g + 1) for tail in table[n - k * g]]
                 for n in range(top + 1)]
    return table


def factorization_classes(vecs, pairs=()):
    """Classes of vecs joined by a common positive coordinate and by the
    moves u + alpha <-> u + beta along the given pairs."""
    parent = {v: v for v in vecs}

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    def union(a, b):
        parent[find(a)] = find(b)

    for i in range(len(vecs[0])):
        # a common positive coordinate i: chaining them suffices
        users = [v for v in vecs if v[i]]
        for v, w in zip(users, users[1:]):
            union(v, w)
    for v in vecs:
        for alpha, beta, *_ in pairs:
            for src, dst in ((alpha, beta), (beta, alpha)):
                if all(x >= y for x, y in zip(v, src)):
                    w = tuple(x - y + z for x, y, z in zip(v, src, dst))
                    if w in parent:
                        union(v, w)
    classes = {}
    for v in vecs:
        classes.setdefault(find(v), []).append(v)
    return list(classes.values())


def factorization_components(vecs, pairs=()):
    return len(factorization_classes(vecs, pairs))


def presentation_sweep(gens):
    """(d, {n: factorisations of n over gens / d}) for the nonzero members n
    of <gens / d> up to 2 * bound, bound = Frobenius + 2*max being at
    least every candidate value w + a_i, w in Ap(S, min gens), of the
    presentation."""
    d = reduce(math.gcd, gens)
    scaled = tuple(g // d for g in gens)
    top = 2 * (brute_conductor(scaled) - 1 + 2 * max(scaled))
    table = factorization_table(scaled, top)
    return d, {n: vecs for n, vecs in enumerate(table) if n and vecs}


def presentation_is_complete(gens, pairs):
    """Connectivity sweep: the pairs generate the kernel of X_i -> x^{a_i}.

    By induction on the value, they do when at every value the
    factorisations are connected by common support and the pair moves;
    the sweep checks this up to twice the candidate bound.
    """
    _, sweep = presentation_sweep(tuple(gens))
    return all(factorization_components(vecs, pairs) == 1 for vecs in sweep.values())


def presentation_by_enumeration(gens):
    """Reference route for ``presentation_for_generators(gens).pairs``.

    Lists every factorisation of every member n of <gens / d> up to
    Frobenius + 2*max, past every candidate w + a_i, splits them into
    common-support classes, and joins each class's lex-least vector to the
    overall lex-least one, in increasing order of the former.
    """
    d = reduce(math.gcd, gens)
    scaled = tuple(g // d for g in gens)
    top = brute_conductor(scaled) - 1 + 2 * max(scaled)
    pairs = []
    for n, vecs in enumerate(factorization_table(scaled, top)):
        if n and vecs:
            least = sorted(min(c) for c in factorization_classes(vecs))
            pairs += [RelationPair(v, least[0], n * d) for v in least[1:]]
    return tuple(pairs)


def betti_graphs_by_full_sweep(gens, ap, m):
    """Reference route for ``numsgp._betti_graphs(gens, S)``, ap = Ap(S, m).

    Sweeps every residue class rho mod m, clear or not: at each vertex
    threshold n = a_i + Ap[(rho - a_i) mod m] of the class it joins, by
    union-find, the vertices present at n (threshold <= n) along the edges
    present at n (a_i + a_j + Ap[(rho - a_i - a_j) mod m] <= n), and keeps
    n when they fall into more than one component.  Components are sorted
    lists, ordered by their least member."""
    s = len(gens)
    found = []
    for rho in range(m):
        arrive = [a + ap[(rho - a) % m] for a in gens]
        edges = [(i, j, gens[i] + gens[j] + ap[(rho - gens[i] - gens[j]) % m])
                 for j in range(s) for i in range(j)]
        for n in sorted(set(arrive)):
            root = list(range(s))

            def find(v):
                while root[v] != v:
                    v = root[v]
                return v

            for i, j, at in edges:
                if at <= n:
                    root[find(i)] = find(j)
            comps: dict[int, list[int]] = {}
            for v in range(s):
                if arrive[v] <= n:
                    comps.setdefault(find(v), []).append(v)
            if len(comps) > 1:
                found.append((n, sorted(comps.values())))
    found.sort(key=lambda hit: hit[0])
    return found
