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
Ap(S, m), which hold every value with a disconnected graph.  No
factorisation is listed: the components of the factorisation graph of n
are those of the graph nabla_n on {i : n - a_i in S}, with an edge i-j
when n - a_i - a_j is in S (Rosales and Garcia-Sanchez, Finitely
Generated Commutative Monoids, 1999, ch. 9), and the lex-least vector of
each is built greedily by membership tests.  As k is in S iff
k >= Ap[k mod m], nabla_n only grows as n runs up a residue class mod m:
each vertex and each edge is present from a threshold on, and the vertex
thresholds are the values w + a_i.  So one sweep per class, through its
thresholds in increasing order, merges the components as they arrive (see
:func:`presentation_for_generators`); a compare of the Apery column with
its rotations, made for all classes at once, first marks the classes that
hold no Betti element, and those are not swept (:func:`_betti_graphs`).

One routine writes a value in the generators: the greedy of
:func:`least_factorization_over`, which reads only the tables of the
suffixes of three or more generators it walks, keyed by the sorted
generators (:func:`_members`), and fixes the last two coefficients in
closed form, by one modular inverse, so a two-generator component reads
no table.  It serves the presentation components, the reduction's
choice of factorisation and the complete-intersection pairs of a free
arrangement, which are least factorisations in reversed order
(:func:`ci_relations`).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence


class RelationPair(NamedTuple):
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    value: int


class Presentation(NamedTuple):
    generators: tuple[int, ...]
    pairs: tuple[RelationPair, ...]


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
        self.d = math.gcd(*gens)
        self._scaled = tuple(sorted(set(g // self.d for g in gens)))
        self._m = self._scaled[0]
        self._ap = _apery(self._scaled, self._m)
        self._c = max(self._ap) - self._m + 1
        # genus by Selmer's formula: w // m = (w - r) / m for w = Ap[r]
        self._g = (sum(self._ap) - self._m * (self._m - 1) // 2) // self._m

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
        m, mask = self._m, bytearray(self._c)
        for r, w in enumerate(self._ap):
            mask[r:w:m] = b"\x01" * (w // m)  # the gaps r, r + m, ..., w - m
        return list(itertools.compress(range(self._c), mask))

    @property
    def genus(self) -> int:
        self._require_numerical()
        return self._g

    def sporadic_count(self) -> int:
        """Number of semigroup elements below the conductor."""
        self._require_numerical()
        return self._c - self.genus

    def is_symmetric(self) -> bool:
        self._require_numerical()
        return 2 * self.genus == self._c

    def elements_upto(self, n: int) -> list[int]:
        """The elements of the monoid from 0 to n, in increasing order: the
        class of r mod m holds Ap[r], Ap[r] + m, ..., each times d."""
        d, m = self.d, self._m
        return sorted(d * k for w in self._ap for k in range(w, n // d + 1, m))

    def apery_set(self, n: int) -> list[int]:
        """Least element of S in each residue class mod n; needs n in S."""
        self._require_numerical()
        if n <= 0 or not self.contains(n):
            raise ValueError(f"{n} is not a nonzero element of the semigroup")
        return _apery(self._scaled, n)

    def type_set(self) -> list[int]:
        """Pseudo-Frobenius numbers: x not in S with x + S* inside S.

        They are w - m for the w in Ap(S, m) with no w + a in Ap(S, m),
        a a generator (Rosales and Garcia-Sanchez, ch. 2).  With w = Ap[r],
        w + a lies in Ap(S, m) exactly when byte (r + a) mod m of a's
        column in :attr:`_summands` is set; one OR of the columns, each
        rotated by its generator, marks every w that is not maximal.
        """
        self._require_numerical()
        m = self._m
        hit = 0
        for a, col in self._summands.items():
            k = a % m
            hit |= int.from_bytes(col[k:k + m], "little")
        maximal = (int.from_bytes(b"\x01" * m, "little") ^ hit).to_bytes(m, "little")
        return sorted(w - m for w in itertools.compress(self._ap, maximal))

    @cached_property
    def _summands(self) -> dict[int, bytes]:
        """For each generator a of S/d, the column whose byte r is 1 when
        Ap[r] - a lies in S/d, that is when Ap[r] = a + Ap[(r - a) mod m]
        (which is at least Ap[r], lying in S/d in the class of r): one
        compare of the Apery column with itself rotated by a.  A column is
        written out twice, so that any rotation of it is one slice, read
        as an int of byte lanes (``int.from_bytes``) whose lanes combine
        class by class under ``&``, ``|`` and ``^``."""
        m, ap = self._m, self._ap
        cols = {}
        for a in self._scaled:
            k = m - a % m
            col = bytes(map(operator.eq, ap, map(
                operator.add, ap[k:] + ap[:k], itertools.repeat(a))))
            cols[a] = col + col
        return cols

    def minimal_generators(self) -> list[int]:
        """The unique minimal generating set (atoms of the monoid)."""
        return [g * self.d for g in self._scaled
                if not any(self._has(g - a) for a in self._scaled if a < g)]

    def equals(self, other: "NumSgp") -> bool:
        return self.d == other.d and self._ap == other._ap

    # -- factorisations and presentations -------------------------------

    def factorizations(self, n: int) -> list[tuple[int, ...]]:
        """All exponent vectors over the stored generators with value n,
        in lex order (a plain enumeration, for small inputs)."""
        if n < 0:
            raise ValueError("value must be nonnegative")
        return _factorizations(n, self.generators)

    def minimal_presentation(self) -> Presentation:
        return presentation_for_generators(self.generators)

    def __repr__(self):
        return f"NumSgp{self.generators}"


def _apery(gens: Sequence[int], n: int) -> list[int]:
    """Least element of <gens> in each residue class mod n, for n in <gens>.

    The round-robin algorithm of Boecker and Liptak (A fast and simple
    algorithm for the money changing problem, Algorithmica 2007): adding
    a generator a splits the residues into gcd(a, n) cycles r -> r + a;
    one walk round each cycle from its least entry, carrying
    w -> min(Ap[r + a], w + a), updates the table in O(n) steps.

    A generator a with Ap[a mod n] <= a is not walked.  After a prefix of
    gens the table is Ap(<n, prefix>, n), so a = Ap[a mod n] + j n for
    some j >= 0 already lies in <n, prefix> and adding it changes no
    entry.  That skips n itself (Ap[0] = 0), its multiples and every
    generator that is a sum of earlier ones.
    """
    ap: list = [0] + [None] * (n - 1)
    for a in gens:
        w = ap[a % n]
        if w is not None and w <= a:
            continue  # a lies in the monoid of n and the walked generators
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


_monoid = lru_cache(maxsize=256)(NumSgp)  # one NumSgp per generator tuple


def _members(gens: Sequence[int]) -> NumSgp:
    """The cached table that decides membership in the monoid of gens.

    Membership does not depend on the order of the generators, so the key
    is sorted: a prefix r_0, ..., r_{k-1} and the same generators in
    reversed order share one table.
    """
    return _monoid(tuple(sorted(gens)))


def least_factorization_over(n: int, gens: Sequence[int],
                             idx: Sequence[int]) -> tuple[int, ...]:
    """The lex-least exponent vector with value n over the gens[i], i in
    idx in that order, as a vector over all of gens (zero off idx).

    n must lie in the monoid of those generators; no table of their whole
    tuple is built.  Each k_j is the least k such that the remainder
    r - k*a_j (r what is left of n after the earlier terms) lies in the
    monoid of the later generators.  It is lex-least because a prefix
    extends to a factorisation exactly when the remainder lies in that
    monoid.  Only the tables of the proper suffixes of three or more
    generators are read (through :func:`_members`, in any order of the
    generators).

    The last two, a and b with g = gcd(a, b), need no table: r - k*a lies
    in <b> exactly when r - k*a >= 0 and k*a = r (mod b), that is
    k = (r/g) (a/g)^(-1) (mod b/g).  The greedy keeps r in <a, b>, so g
    divides r and some solution has r - k*a >= 0; the least nonnegative
    solution is no larger, so it is the k of the greedy.
    """
    sub = [gens[i] for i in idx]
    vec = [0] * len(gens)
    for j, (i, a) in enumerate(zip(idx[:-2], sub)):
        later = _members(sub[j + 1:])
        k = next(k for k in range(n // a + 1) if later.contains(n - k * a))
        vec[i] = k
        n -= k * a
    if len(sub) > 1:
        a, b = sub[-2:]
        g = math.gcd(a, b)
        k = n // g * pow(a // g, -1, b // g) % (b // g)
        vec[idx[-2]] = k
        n -= k * a
    vec[idx[-1]] = n // sub[-1]
    return tuple(vec)


def _factorizations(n: int, gens: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every exponent vector over gens with value n, in lex order."""
    if len(gens) == 1:
        return [(n // gens[0],)] if n % gens[0] == 0 else []
    return [(k,) + tail for k in range(n // gens[0] + 1)
            for tail in _factorizations(n - k * gens[0], gens[1:])]


def _betti_graphs(gens: tuple[int, ...], S: NumSgp):
    """(n, components of nabla_n) for each n at which nabla_n gains a
    vertex and is disconnected (the Betti elements), by increasing n; S is
    the numerical semigroup of gens, m its multiplicity.  Each component is
    a sorted list of indices.

    Along a residue class rho mod m, vertex j is present from
    T_j = a_j + Ap[(rho - a_j) mod m] on and edge k-j from
    E_kj = a_k + a_j + Ap[(rho - a_k - a_j) mod m] on
    (:func:`presentation_for_generators`).

    Clear classes.  Order the vertices by (T_j, j).  When every vertex but
    the first has an edge to an earlier vertex at its own threshold, the
    vertices present at any n of the class are connected by edges present
    at n (by induction along the order, edges once present staying), so
    the class holds no Betti element.  E_kj >= max(T_k, T_j) always, since
    n - a_k - a_j in S puts n - a_j in S; so the edge is there when j
    arrives exactly when E_kj = T_j, which, with r = (rho - a_j) mod m,
    says Ap[r] = a_k + Ap[(r - a_k) mod m]: byte r of a_k's column in
    ``S._summands``.  Call that bit P_kj.  It forces T_k <= T_j, and
    P_kj and P_jk together say T_k = E_kj = T_j.  So k precedes j with
    the edge present exactly when P_kj and (k < j or not P_jk).  The first
    vertex never has such a k, so the class is clear when at most one
    vertex lacks one.  Both tests run on all m classes at once, as byte
    lanes of one int per pair.

    The other classes are swept through their thresholds in increasing
    order, edges before vertices at equal n, merging components as the
    edges arrive and recording the graph after the last vertex at each n.
    """
    s, m = len(gens), S._m
    # lane rho of before[k][j] is P_kj: byte (rho - a_j) mod m of a_k's column
    cols = [S._summands[a] for a in gens]
    starts = [-b % m for b in gens]
    before = [[int.from_bytes(col[t:t + m], "little") for t in starts] for col in cols]
    ones = int.from_bytes(b"\x01" * m, "little")
    once = twice = 0  # the lanes with at least one, two vertices unattached
    for j in range(s):
        attached = 0
        for k in range(s):
            if k < j:
                attached |= before[k][j]
            elif k > j:
                attached |= before[k][j] & ~before[j][k]
        loose = ones ^ attached
        twice |= once & loose
        once |= loose

    # a step is n * width + code; the edges have the lower codes, so at
    # equal n the vertices come last
    ends = [(i, j) for j in range(s) for i in range(j)] + [(i, i) for i in range(s)]
    width = len(ends)
    base = [w * width for w in S._ap]
    shifts = [(b, b * width + code) for code, b in enumerate(
        gens[i] + gens[j] if i != j else gens[i] for i, j in ends)]

    found = []
    for rho in itertools.compress(range(m), twice.to_bytes(m, "little")):
        steps = sorted([base[(rho - b) % m] + c for b, c in shifts])
        last = len(steps) - 1
        label = list(range(s))  # component of each vertex, named by a member
        seen: list[int] = []
        parts = 0
        for pos, step in enumerate(steps):
            n, code = divmod(step, width)
            i, j = ends[code]
            if i != j:
                if label[i] != label[j]:
                    old, new = label[j], label[i]
                    label = [new if x == old else x for x in label]
                    parts -= 1
                continue
            seen.append(i)
            parts += 1
            if pos < last and steps[pos + 1] // width == n:
                continue  # another vertex arrives at n
            if parts > 1:
                comps: dict[int, list[int]] = {}
                for v in sorted(seen):
                    comps.setdefault(label[v], []).append(v)
                found.append((n, list(comps.values())))
            if len(seen) == s:
                break
    found.sort(key=lambda hit: hit[0])
    return found


def presentation_for_generators(gens: Sequence[int]) -> Presentation:
    """Binomial generators of the kernel of X_i -> x^{a_i}.

    Works for arbitrary positive generator tuples (scaling by the gcd
    changes nothing).  The candidate values are {w + a_i : w in Ap(S, m)},
    m a least generator, at most m*s of them.  They are visited in
    increasing order; when the factorisation graph of n (edges: common
    support) is disconnected, one pair per extra component is added,
    joining each component's lex-least vector to the overall lex-least
    one, in increasing order of the former.

    The components are read off the graph nabla_n on {i : n - a_i in S},
    with an edge i-j when n - a_i - a_j is in S (Rosales and
    Garcia-Sanchez, Finitely Generated Commutative Monoids, 1999, ch. 9;
    Numerical Semigroups, 2009, ch. 7).  A factorisation's support is a
    clique of nabla_n, and every vertex and every edge is used by some
    factorisation, so the factorisations whose support lies in one
    component C of nabla_n form one component of the factorisation graph.
    Its lex-least vector is the least factorisation over the generators
    of C.

    The candidate set is complete (same references).  Let n have a
    disconnected graph and let m = a_j.  The factorisations using a_j
    share support, so some component C has none that uses a_j; take v in
    C and i with v_i > 0.  Were n - a_i - m in S, n would have a
    factorisation using both a_i and a_j, joining C to the component of
    a_j.  So n - a_i lies in Ap(S, m).

    The candidates are visited by thresholds (:func:`_betti_graphs`).
    Since k is in S iff k >= Ap[k mod m], along a residue class rho mod m
    vertex i of nabla_n is present exactly from
    n = a_i + Ap[(rho - a_i) mod m] on, and edge i-j exactly from
    n = a_i + a_j + Ap[(rho - a_i - a_j) mod m] on.  So nabla_n only
    gains vertices and edges as n grows in its class, and the vertex
    thresholds, over all classes, are the candidates w + a_i.  Sorting
    each class's s + s(s-1)/2 thresholds and merging components as they
    arrive gives every candidate's graph in O(m s^2) steps, with no table
    sized by the conductor; classes that a test on the Apery column
    shows to hold no Betti element are not swept.

    The pairs come out by increasing value.  ``build_basis`` relies on
    that: it stops at the first pair at or past a bound it reads off the
    value monoid (0 for two coprime values, else c - 1 locally), past
    which no relation can change the semigroup, as
    ``reduction.build_basis`` proves; at a bound of 0 it asks for nothing.

    The answer is memoised per generator tuple, beside the tables of
    ``_monoid``: ``build_basis``, ``minimal_basis`` and ``deform`` each
    present the values of the same basis, and a ``Presentation`` is
    immutable, so every caller shares one.
    """
    return _presentation(tuple(gens))


@lru_cache(maxsize=256)
def _presentation(gens: tuple[int, ...]) -> Presentation:
    d = math.gcd(*gens)
    scaled = tuple(g // d for g in gens)
    S = _monoid(scaled)
    pairs: list[RelationPair] = []
    for n, comps in _betti_graphs(scaled, S):
        vecs = sorted(least_factorization_over(n, scaled, comp) for comp in comps)
        pairs.extend(RelationPair(v, vecs[0], n * d) for v in vecs[1:])
    return Presentation(gens, tuple(pairs))


# -- free semigroups and complete intersections ------------------------


def gcd_chain(arrangement: Sequence[int]) -> list[int]:
    """d_1 = r_0, d_{k+1} = gcd(d_k, r_k); one entry per prefix."""
    return list(itertools.accumulate(arrangement, math.gcd))


def is_free(S: NumSgp, arrangement: Sequence[int]) -> bool:
    """Freeness of S with respect to the given generator arrangement."""
    arr = tuple(arrangement)
    if not _monoid(arr).equals(S):
        return False
    ds = gcd_chain(arr)
    for k in range(1, len(arr)):
        e_k = ds[k - 1] // ds[k]
        if not _members(arr[:k]).contains(e_k * arr[k]):
            return False
    return True


def ci_relations(arrangement: Sequence[int]) -> Presentation:
    """Complete-intersection pairs X_k^{e_k} = X_0^{t_0}...X_{k-1}^{t_{k-1}}.

    For each k the exponents satisfy 0 <= t_i < e_i for 1 <= i < k, which
    pins them down uniquely.  The loop has checked that the prefix
    r_0, ..., r_{k-1} is free (e_i r_i lies in the monoid of the earlier
    generators), so any t_i >= e_i with i >= 1 can trade e_i r_i for
    earlier generators; hence the least factorisation of e_k r_k over
    r_{k-1}, ..., r_0, in that reversed order, is the bounded one.  Its
    suffixes r_{j-1}, ..., r_0 are prefixes, so it reads the tables that
    the membership tests (and :func:`is_free`) built.  A value e_k r_k
    outside the monoid of the prefix signals a non-free arrangement.
    """
    arr = tuple(arrangement)
    if not arr:
        raise ValueError("at least one generator is required")
    s = len(arr)
    ds = gcd_chain(arr)
    pairs = []
    for k in range(1, s):
        if ds[k] >= ds[k - 1]:
            raise ValueError(f"gcd chain does not descend at position {k}")
        e_k = ds[k - 1] // ds[k]
        target = e_k * arr[k]
        if not _members(arr[:k]).contains(target):
            raise ValueError(f"{target} is not in the monoid of {arr[:k]}: "
                             "arrangement not free")
        alpha = tuple(0 if i != k else e_k for i in range(s))
        beta = least_factorization_over(target, arr, range(k - 1, -1, -1))
        pairs.append(RelationPair(alpha, beta, target))
    return Presentation(arr, tuple(pairs))
