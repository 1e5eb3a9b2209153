"""Finitely generated submonoids of the natural numbers.

A monoid generated by positive integers is stored as its gcd d together
with the Apery set Ap(S, m) of the numerical semigroup S = <gens>/d with
respect to its multiplicity m: the least element of S in each residue
class mod m.  Everything else follows from it in closed form (Rosales and
Garcia-Sanchez, Numerical Semigroups, 2009, ch. 1-2): k is in S iff
k >= Ap[k mod m], the Frobenius number is max Ap - m, the genus is
sum w // m (the gaps below each w in its class), and the pseudo-Frobenius
numbers are w - m for the w that are maximal in Ap under the order of
S.  Monoids with gcd > 1 answer the scaled queries (their complement is
infinite, so conductor-style questions are only meaningful for S/d).

Presentations are binomial: pairs of exponent vectors with equal value,
generating the kernel of the monomial map X_i -> x^{a_i}.  They are found
by the factorisation-graph method over the values w + a_i with w in
Ap(S, m), which hold every value with a disconnected graph (see
:func:`presentation_for_generators`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Sequence


class RelationPair(NamedTuple):
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    value: int


@dataclass(frozen=True)
class Presentation:
    generators: tuple[int, ...]
    pairs: tuple[RelationPair, ...]

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


class NumSgp:
    """Submonoid of N given by generators; numerical when gcd = 1.

    Immutable after construction; all queries are pure.
    """

    def __init__(self, generators: Sequence[int]):
        gens = list(generators)
        if not gens:
            raise ValueError("at least one generator is required")
        if any(g <= 0 for g in gens):
            raise ValueError("generators must be positive")
        self.generators = tuple(gens)
        self.d = reduce(math.gcd, gens)
        self._scaled = tuple(sorted(set(g // self.d for g in gens)))
        self._m = self._scaled[0]
        self._ap = _apery(self._scaled, self._m)
        self._c = max(self._ap) - self._m + 1

    # -- membership and basic invariants -------------------------------

    @property
    def is_numerical(self) -> bool:
        return self.d == 1

    @property
    def scaled_conductor(self) -> int:
        """d * c(S/d); the truncation bound used by the basis algorithms."""
        return self.d * self._c

    def _has(self, k: int) -> bool:
        """Membership in S/d, for k >= 0."""
        return k >= self._ap[k % self._m]

    def contains(self, n: int) -> bool:
        if n < 0 or n % self.d:
            return False
        return self._has(n // self.d)

    __contains__ = contains

    def _require_numerical(self):
        if self.d != 1:
            raise ValueError(f"not a numerical semigroup (gcd {self.d})")

    @property
    def conductor(self) -> int:
        self._require_numerical()
        return self._c

    @property
    def frobenius(self) -> int:
        self._require_numerical()
        return self._c - 1

    def gaps(self) -> list[int]:
        self._require_numerical()
        m, ap = self._m, self._ap
        return [n for n in range(self._c) if n < ap[n % m]]

    @property
    def genus(self) -> int:
        self._require_numerical()
        return sum(w // self._m for w in self._ap)

    def sporadic_count(self) -> int:
        """Number of semigroup elements below the conductor."""
        self._require_numerical()
        return self._c - self.genus

    def is_symmetric(self) -> bool:
        self._require_numerical()
        return 2 * self.genus == self._c

    def apery_set(self, n: int) -> list[int]:
        """Least element of S in each residue class mod n; needs n in S."""
        self._require_numerical()
        if n <= 0 or not self.contains(n):
            raise ValueError(f"{n} is not a nonzero element of the semigroup")
        return _apery(self._scaled, n)

    def type_set(self) -> list[int]:
        """Pseudo-Frobenius numbers: x not in S with x + S* inside S.

        They are w - m for the w in Ap(S, m) with no w + a in Ap(S, m),
        a a generator (Rosales and Garcia-Sanchez, ch. 2).
        """
        self._require_numerical()
        m, ap = self._m, self._ap
        return sorted(w - m for w in ap
                      if all(ap[(w + a) % m] != w + a for a in self._scaled))

    def minimal_generators(self) -> list[int]:
        """The unique minimal generating set (atoms of the monoid)."""
        return [g * self.d for g in self._scaled
                if not any(self._has(g - a) for a in self._scaled if a < g)]

    def equals(self, other: "NumSgp") -> bool:
        return self.d == other.d and self._ap == other._ap

    # -- factorisations and presentations -------------------------------

    def factorizations(self, n: int) -> list[tuple[int, ...]]:
        """All exponent vectors over the stored generators with value n."""
        if n < 0:
            raise ValueError("value must be nonnegative")
        return _factorizations(n, self.generators)

    def minimal_presentation(self) -> Presentation:
        return presentation_for_generators(self.generators)

    def __repr__(self):
        return f"NumSgp{self.generators}"


def from_generators(gens: Sequence[int]) -> NumSgp:
    return NumSgp(gens)


def _apery(gens: Sequence[int], n: int) -> list[int]:
    """Least element of <gens> in each residue class mod n, for n in <gens>.

    The round-robin algorithm of Boecker and Liptak (A fast and simple
    algorithm for the money changing problem, Algorithmica 2007): adding
    a generator a splits the residues into gcd(a, n) cycles r -> r + a;
    one walk round each cycle from its least entry, carrying
    w -> min(Ap[r + a], w + a), updates the table in O(n) steps.
    """
    ap: list = [0] + [None] * (n - 1)
    for a in gens:
        k = math.gcd(a, n)
        for r in range(k):
            reached = [p for p in range(r, n, k) if ap[p] is not None]
            if not reached:
                continue
            p = min(reached, key=ap.__getitem__)
            w = ap[p]
            for _ in range(n // k - 1):
                p = (p + a) % n
                w += a
                if ap[p] is None or w < ap[p]:
                    ap[p] = w
                else:
                    w = ap[p]
    return ap


class _Factorizer:
    """Exponent-vector enumeration with a memo that persists across values."""

    def __init__(self, gens: tuple[int, ...]):
        self.gens = gens
        self.memo: dict = {}

    def factorizations(self, n: int) -> list[tuple[int, ...]]:
        return self._rec(0, n)

    def _rec(self, i: int, rest: int):
        gens = self.gens
        if i == len(gens) - 1:
            if rest % gens[i] == 0:
                return [(rest // gens[i],)]
            return []
        key = (i, rest)
        if key not in self.memo:
            out = []
            g = gens[i]
            for k in range(rest // g + 1):
                for tail in self._rec(i + 1, rest - k * g):
                    out.append((k,) + tail)
            self.memo[key] = out
        return self.memo[key]


_FACTORIZER_CACHE: dict[tuple[int, ...], _Factorizer] = {}


def _factorizer_for(gens: tuple[int, ...]) -> _Factorizer:
    if gens not in _FACTORIZER_CACHE:
        if len(_FACTORIZER_CACHE) > 256:
            _FACTORIZER_CACHE.clear()
        _FACTORIZER_CACHE[gens] = _Factorizer(gens)
    return _FACTORIZER_CACHE[gens]


def _factorizations(n: int, gens: tuple[int, ...]) -> list[tuple[int, ...]]:
    return _factorizer_for(gens).factorizations(n)


def _union_common_support(uf: "_UnionFind", vecs) -> None:
    """Vectors sharing a positive coordinate are mutually adjacent, so
    chaining each coordinate class gives the same components as the full
    common-support graph."""
    k = len(vecs[0])
    for i in range(k):
        anchor = None
        for v in vecs:
            if v[i]:
                if anchor is None:
                    anchor = v
                else:
                    uf.union(anchor, v)


class _UnionFind:
    def __init__(self, items):
        self.parent = {v: v for v in items}

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def components(self):
        comps: dict = {}
        for v in self.parent:
            comps.setdefault(self.find(v), []).append(v)
        return list(comps.values())


def presentation_for_generators(gens: Sequence[int]) -> Presentation:
    """Binomial generators of the kernel of X_i -> x^{a_i}.

    Works for arbitrary positive generator tuples (scaling by the gcd
    changes nothing).  The candidate values are {w + a_i : w in Ap(S, m)},
    m a least generator, at most m*s of them.  They are visited in
    increasing order; when a factorisation graph (edges: common support)
    is disconnected, one pair per extra component is added, joining each
    component's lex-least vector to the overall lex-least one.

    The candidate set is complete (Rosales and Garcia-Sanchez, Numerical
    Semigroups, 2009, ch. 7).  Let n have a disconnected graph and let
    m = a_j.  The factorisations using a_j share support, so some
    component C has none that uses a_j; take v in C and i with v_i > 0.
    Were n - a_i - m in S, n would have a factorisation using both a_i
    and a_j, joining C to the component of a_j.  So n - a_i lies in
    Ap(S, m).
    """
    gens = tuple(gens)
    d = reduce(math.gcd, gens)
    scaled = tuple(g // d for g in gens)
    ap = _apery(scaled, min(scaled))
    pairs: list[RelationPair] = []
    for n in sorted({w + a for w in ap for a in scaled}):
        vecs = _factorizations(n, scaled)
        if len(vecs) < 2:
            continue
        uf = _UnionFind(vecs)
        _union_common_support(uf, vecs)
        comps = uf.components()
        if len(comps) > 1:
            overall = min(vecs)
            for comp in comps:
                local = min(comp)
                if local != overall:
                    pairs.append(RelationPair(local, overall, n * d))
    return Presentation(gens, tuple(pairs))


# -- free semigroups and complete intersections ------------------------


def gcd_chain(arrangement: Sequence[int]) -> list[int]:
    """d_1 = r_0, d_{k+1} = gcd(d_k, r_k); one entry per prefix."""
    ds = [arrangement[0]]
    for r in arrangement[1:]:
        ds.append(math.gcd(ds[-1], r))
    return ds


def is_free(S: NumSgp, arrangement: Sequence[int]) -> bool:
    """Freeness of S with respect to the given generator arrangement."""
    arr = list(arrangement)
    if not NumSgp(arr).equals(S):
        return False
    ds = gcd_chain(arr)
    for k in range(1, len(arr)):
        e_k = ds[k - 1] // ds[k]
        if not NumSgp(arr[:k]).contains(e_k * arr[k]):
            return False
    return True


def ci_relations(arrangement: Sequence[int]) -> Presentation:
    """Complete-intersection pairs X_k^{e_k} = X_0^{t_0}...X_{k-1}^{t_{k-1}}.

    For each k the exponents satisfy 0 <= t_i < e_i for 1 <= i < k, which
    pins them down uniquely; failing to find them signals a non-free
    arrangement.
    """
    arr = list(arrangement)
    s = len(arr)
    ds = gcd_chain(arr)
    pairs = []
    for k in range(1, s):
        if ds[k] >= ds[k - 1]:
            raise ValueError(f"gcd chain does not descend at position {k}")
        e_k = ds[k - 1] // ds[k]
        target = e_k * arr[k]
        theta = _bounded_representation(target, arr[:k], ds)
        if theta is None:
            raise ValueError(
                f"no bounded representation of {target}: arrangement not free")
        alpha = tuple(0 if i != k else e_k for i in range(s))
        beta = tuple(theta) + (0,) * (s - k)
        pairs.append(RelationPair(alpha, beta, target))
    return Presentation(tuple(arr), tuple(pairs))


def _bounded_representation(target: int, prefix: list[int], ds: list[int]):
    """target = sum theta_i * prefix[i] with 0 <= theta_i < e_i for i >= 1."""
    k = len(prefix)

    def rec(i: int, rest: int):
        if i == 0:
            if rest >= 0 and rest % prefix[0] == 0:
                return (rest // prefix[0],)
            return None
        e_i = ds[i - 1] // ds[i]
        for t in range(e_i):
            sub = rec(i - 1, rest - t * prefix[i])
            if sub is not None:
                return sub + (t,)
        return None

    return rec(k - 1, target)
