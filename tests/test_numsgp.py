import itertools
import math
import random
from collections import Counter

import pytest

from curvesgp import (NumSgp, RelationPair, ci_relations, cli, is_free, numsgp,
                      presentation_for_generators)
from curvesgp.numsgp import gcd_chain
from curvesgp.reduction import BasisElement, ReductionContext
from util import (betti_graphs_by_full_sweep, brute_conductor, brute_semigroup_members,
                  deadline, factorization_components, factorization_table,
                  least_factorization, presentation_by_enumeration,
                  presentation_is_complete, presentation_sweep, xp)


def test_from_generators_conductor_18():
    assert NumSgp([4, 6, 15]).conductor == 18


def test_from_generators_full_monoid():
    S = NumSgp([1])
    assert S.conductor == 0
    assert S.genus == 0


def test_from_generators_gcd_handling():
    S = NumSgp([4, 6])
    assert S.d == 2
    assert S.scaled_conductor == 2 * NumSgp([2, 3]).conductor
    assert S.contains(10) and not S.contains(7)
    with pytest.raises(ValueError):
        S.conductor  # noqa: B018


def test_from_generators_rejects_bad_input():
    with pytest.raises(ValueError):
        NumSgp([])
    with pytest.raises(ValueError):
        NumSgp([0, 3])


def test_contains():
    S = NumSgp([4, 6, 13, 15])
    assert not S.contains(11)
    assert S.contains(0)
    assert not NumSgp([4, 6, 15]).contains(13)


def test_conductor_examples():
    assert NumSgp([4, 6, 13, 15]).conductor == 12
    assert NumSgp([2, 3]).conductor == 2


def test_gaps_and_genus():
    assert len(NumSgp([4, 6, 13, 15]).gaps()) == 7
    assert len(NumSgp([8, 12, 26, 53]).gaps()) == 42
    assert NumSgp([1]).gaps() == []


def test_minimal_generators():
    assert NumSgp([4, 6, 13, 15, 18, 19]).minimal_generators() == [4, 6, 13, 15]
    assert NumSgp([2, 7]).minimal_generators() == [2, 7]
    assert NumSgp([1, 5]).minimal_generators() == [1]


def test_apery_set():
    assert sorted(NumSgp([2, 7]).apery_set(2)) == [0, 7]
    assert NumSgp([1]).apery_set(1) == [0]
    assert sorted(NumSgp([4, 6, 13, 15]).apery_set(4)) == [0, 6, 13, 15]
    with pytest.raises(ValueError):
        NumSgp([4, 6, 15]).apery_set(13)


def test_apery_against_brute_force():
    S = NumSgp([5, 7, 9])
    table = brute_semigroup_members([5, 7, 9], 200)
    for n in (5, 7, 9, 14):
        got = S.apery_set(n)
        for r, m in enumerate(got):
            assert m % n == r and table[m]
            assert all(not table[k] for k in range(r, m, n))
        assert max(got) - n == S.frobenius


def test_type_set():
    assert NumSgp([4, 6, 13, 15]).type_set() == [2, 9, 11]
    assert NumSgp([2, 3]).type_set() == [1]
    assert NumSgp([1]).type_set() == [-1]


def test_symmetry():
    assert NumSgp([4, 6, 13]).is_symmetric()
    assert not NumSgp([4, 6, 13, 15]).is_symmetric()
    assert NumSgp([1]).is_symmetric()


def test_sporadic_count():
    assert NumSgp([4, 6, 13, 15]).sporadic_count() == 5
    assert NumSgp([1]).sporadic_count() == 0
    assert NumSgp([2, 3]).sporadic_count() == 1


def test_factorizations():
    assert set(NumSgp([4, 6]).factorizations(12)) == {(3, 0), (0, 2)}
    assert NumSgp([5, 11]).factorizations(0) == [(0, 0)]
    assert set(NumSgp([4, 6, 15]).factorizations(30)) == {
        (6, 1, 0), (3, 3, 0), (0, 5, 0), (0, 0, 2)}


def test_minimal_presentation_examples():
    pres = NumSgp([4, 6, 15]).minimal_presentation()
    pairs = {frozenset((p.alpha, p.beta)) for p in pres.pairs}
    assert pairs == {frozenset({(3, 0, 0), (0, 2, 0)}),
                     frozenset({(0, 5, 0), (0, 0, 2)})}
    pres2 = NumSgp([2, 3]).minimal_presentation()
    assert {frozenset((p.alpha, p.beta)) for p in pres2.pairs} == {
        frozenset({(3, 0), (0, 2)})}
    assert NumSgp([1]).minimal_presentation().pairs == ()


def test_presentation_scaling_invariance():
    doubled = presentation_for_generators((8, 12, 30))
    plain = presentation_for_generators((4, 6, 15))
    assert [(p.alpha, p.beta) for p in doubled.pairs] == [
        (p.alpha, p.beta) for p in plain.pairs]
    assert [p.value for p in doubled.pairs] == [2 * p.value for p in plain.pairs]


def test_presentation_handles_nonminimal_tuples():
    pres = presentation_for_generators((4, 6, 10))
    # 10 = 4 + 6 forces a relation whose one side is the pure third variable
    assert any(set(p.alpha) == {0, 1} or set(p.beta) == {0, 1} for p in pres.pairs
               if (0, 0, 1) in (p.alpha, p.beta))


def _random_generator_tuple(rng):
    """2-5 generators, sometimes with a repeat, a non-minimal sum or gcd > 1."""
    gens = [rng.randrange(3, 12) for _ in range(rng.randrange(2, 4))]
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if rng.random() < 0.3:
        gens.append(rng.choice(gens) + rng.choice(gens))
    if math.gcd(*gens) == 1 and rng.random() < 0.3:
        gens = [rng.choice((2, 3)) * g for g in gens]
    return tuple(gens)


def test_presentation_complete_and_minimal_on_random_tuples():
    rng = random.Random(2009)
    cases = [(4, 4, 6), (4, 6, 10), (8, 12, 30)]
    cases += [_random_generator_tuple(rng) for _ in range(60)]
    for gens in cases:
        pairs = presentation_for_generators(gens).pairs
        assert presentation_is_complete(gens, pairs), gens
        # one pair per extra component of each factorisation graph
        d, sweep = presentation_sweep(gens)
        expected = Counter()
        for n, vecs in sweep.items():
            extra = factorization_components(vecs) - 1
            if extra:
                expected[n * d] = extra
        assert Counter(p.value for p in pairs) == expected, gens


def _wide_generator_tuple(rng):
    """2-7 generators in 2..40, sometimes with a repeat or a non-minimal sum."""
    gens = [rng.randint(2, 40) for _ in range(rng.randint(2, 6))]
    if rng.random() < 0.3:
        gens.append(rng.choice(gens))
    if len(gens) < 7 and rng.random() < 0.3:
        gens.append(rng.choice(gens) + rng.choice(gens))
    return tuple(gens)


def _tied_threshold_tuple(rng):
    """Generators whose graphs nabla_n gain several vertices or edges at
    one value: an arithmetic run of 2-10, or 2-5 values with one or two
    repeated; sometimes times a common factor; in shuffled order."""
    if rng.random() < 0.5:
        s = rng.randint(2, 10)
        start, step = rng.randint(s, 2 * s + 4), rng.randint(1, 3)
        gens = [start + step * k for k in range(s)]
    else:
        gens = [rng.randint(3, 25) for _ in range(rng.randint(2, 5))]
        gens += rng.sample(gens, rng.randint(1, 2))
    if rng.random() < 0.3:
        gens = [rng.choice((2, 3)) * g for g in gens]
    rng.shuffle(gens)
    return tuple(gens)


def test_presentation_matches_enumeration_route():
    # the chosen vectors and their order reach the JSON report
    rng = random.Random(1999)
    cases = [(4, 4, 6), (4, 6, 10), (8, 12, 30), (16, 24, 52, 106, 213), (3, 5, 7),
             tuple(range(10, 17)), (5, 5), (6, 4, 4), tuple(range(16, 9, -1)),
             tuple(range(10, 30, 2)), (9, 6, 9, 6, 15)]
    cases += [_wide_generator_tuple(rng) for _ in range(300)]
    tied = random.Random(2020)
    cases += [_tied_threshold_tuple(tied) for _ in range(150)]
    for gens in cases:
        assert presentation_for_generators(gens).pairs == presentation_by_enumeration(gens), gens


def _betti_case(rng):
    """1-7 generators in 2..30, sometimes with a repeat; or a tied run of
    :func:`_tied_threshold_tuple`; sometimes times a common factor; in
    shuffled order."""
    if rng.random() < 0.25:
        gens = list(_tied_threshold_tuple(rng))
    else:
        gens = [rng.randint(2, 30) for _ in range(rng.randint(1, 7))]
        if len(gens) < 7 and rng.random() < 0.3:
            gens.append(rng.choice(gens))
    if rng.random() < 0.2:
        gens = [rng.choice((2, 3, 5)) * g for g in gens]
    rng.shuffle(gens)
    return tuple(gens)


def test_betti_graphs_match_a_sweep_of_every_class():
    # the sweep skips the classes that the column test calls clear; a class
    # wrongly called clear loses its Betti elements here
    rng = random.Random(4089)
    cases = [(1,), (5,), (2, 2), (4, 4, 6), (6, 4, 4), (3, 3, 5, 5), (9, 6, 9, 6, 15),
             (10, 11, 12, 13, 14, 15, 16), tuple(range(16, 9, -1))]
    cases += [_betti_case(rng) for _ in range(5000)]
    holding = classes = 0
    for gens in cases:
        d = math.gcd(*gens)
        scaled = tuple(g // d for g in gens)
        S = NumSgp(scaled)
        got = numsgp._betti_graphs(scaled, S)
        assert got == betti_graphs_by_full_sweep(scaled, S._ap, S._m), gens
        holding += len({n % S._m for n, _ in got})
        classes += S._m
    # classes with and without Betti elements are both exercised
    assert 0 < holding < classes


def test_presentation_at_huge_conductor_allocates_nothing_by_it(capsys):
    # <4, 2000000002> has scaled conductor 2 * 10^9: a table over it would
    # not fit in memory
    with deadline(2):
        assert presentation_for_generators((4, 2000000002)).pairs == (
            RelationPair((1000000001, 0), (0, 2), 4000000004),)
        assert cli.main(["global", "x^4,x^2000000002", "--json"]) == 0
    assert '"scaled_conductor": 2000000000' in capsys.readouterr().out


def test_least_factorization_is_lex_least():
    rng = random.Random(1999)
    for _ in range(80):
        gens = _wide_generator_tuple(rng)[:4]
        top = 3 * max(gens) + NumSgp(gens).scaled_conductor
        for n, vecs in enumerate(factorization_table(gens, top)):
            assert least_factorization(n, gens) == (min(vecs) if vecs else None), (gens, n)
    for gens in ((), (0, 3)):
        with pytest.raises(ValueError):
            least_factorization(5, gens)
    with deadline(2):  # one table answers a non-member, with no walk
        assert least_factorization(10**12 + 1, (2, 4)) is None


def test_least_factorization_over_builds_no_table_of_the_whole_tuple(monkeypatch):
    requested = []

    def recording(gens):
        requested.append(gens)
        return monoid(gens)

    monoid = numsgp._monoid
    monkeypatch.setattr(numsgp, "_monoid", recording)
    rng = random.Random(4089)
    for _ in range(60):
        gens = _wide_generator_tuple(rng)
        idx = rng.sample(range(len(gens)), rng.randint(2, len(gens)))
        sub = tuple(gens[i] for i in idx)
        members = [n for n in range(3 * max(sub)) if monoid(sub).contains(n)]
        for n in rng.sample(members, min(10, len(members))):
            requested.clear()
            vec = numsgp.least_factorization_over(n, gens, idx)
            assert sum(k * a for k, a in zip(vec, gens)) == n
            assert sub not in requested, (gens, idx, n)


def _factorization_case(rng):
    """2-4 generators in 2..24: a pair with gcd > 1, a repeat, or a
    non-minimal sum among them, in shuffled order."""
    gens = [rng.randint(2, 24) for _ in range(rng.randint(1, 3))]
    kind = rng.randrange(3)
    if kind == 0:
        d = rng.randint(2, 4)
        gens += [d * rng.randint(1, 6), d * rng.randint(1, 6)]
    elif kind == 1:
        gens.append(rng.choice(gens))
    else:
        gens.append(rng.choice(gens) + rng.choice(gens))
    rng.shuffle(gens)
    return tuple(gens[:4])


def test_least_factorization_over_is_lex_least_on_every_index_order():
    # the last two coordinates come from one modular inverse mod b/g
    rng = random.Random(1412)
    cases = [(4, 6), (6, 4), (6, 6, 9), (10, 4, 6), (12, 8, 18, 5)]
    cases += [_factorization_case(rng) for _ in range(120)]
    for gens in cases:
        s = len(gens)
        orders = [list(range(s)), list(range(s - 1, -1, -1))]
        orders += [rng.sample(range(s), rng.randint(2, s)) for _ in range(3)]
        top = 3 * max(gens) + NumSgp(gens).scaled_conductor
        table = factorization_table(gens, top)
        for idx in orders:
            off = set(range(s)) - set(idx)
            for n, vecs in enumerate(table):
                over = [v for v in vecs if not any(v[i] for i in off)]
                if over:
                    want = min(over, key=lambda v: [v[i] for i in idx])
                    got = numsgp.least_factorization_over(n, gens, idx)
                    assert got == want, (gens, idx, n)


def test_least_factorization_over_two_indices_reads_no_table(monkeypatch):
    requested = []

    def recording(gens):
        requested.append(gens)
        return monoid(gens)

    monoid = numsgp._monoid
    monkeypatch.setattr(numsgp, "_monoid", recording)
    rng = random.Random(1007)
    for _ in range(60):
        gens = _factorization_case(rng)
        idx = rng.sample(range(len(gens)), 2)
        a, b = (gens[i] for i in idx)
        values = range(0, 3 * a * b + 1, math.gcd(a, b))
        for n in rng.sample(values, min(10, len(values))):
            if monoid((a, b)).contains(n):
                requested.clear()
                vec = numsgp.least_factorization_over(n, gens, idx)
                assert vec[idx[0]] * a + vec[idx[1]] * b == n
                assert requested == [], (gens, idx, n)


def test_apery_skips_generators_already_in_the_monoid():
    # multiples of n and non-minimal sums, before or after their summands
    rng = random.Random(2007)
    for _ in range(150):
        gens = [rng.randint(2, 30) for _ in range(rng.randint(2, 4))]
        if math.gcd(*gens) != 1:
            gens.append(rng.randint(2, 30) | 1)
            gens.append(gens[-1] + 1)
        n = rng.choice(gens + [sum(rng.sample(gens, 2))])
        gens += [n * rng.randint(1, 3), rng.choice(gens) + rng.choice(gens)]
        rng.shuffle(gens)
        top = brute_conductor(gens) + n
        member = brute_semigroup_members(gens, top)
        expected = [next(k for k in range(r, top + 1, n) if member[k])
                    for r in range(n)]
        assert numsgp._apery(gens, n) == expected, (gens, n)


def test_pick_factorization_spends_high_values_last():
    rng = random.Random(2014)
    for _ in range(80):
        values = _wide_generator_tuple(rng)[:4]
        ctx = ReductionContext([BasisElement(xp(v), v) for v in values], "local")
        # largest value first, the later of two equal values first
        order = sorted(range(len(values)), key=lambda i: (-values[i], -i))
        priority = lambda v: [v[i] for i in order]
        top = 3 * max(values) + ctx.semigroup.scaled_conductor
        for n, vecs in enumerate(factorization_table(values, top)):
            if vecs:
                assert ctx.pick_factorization(n) == min(vecs, key=priority), (values, n)


def test_is_free():
    assert is_free(NumSgp([2, 7]), [2, 7])
    assert is_free(NumSgp([4, 6, 13]), [4, 6, 13])
    assert not is_free(NumSgp([4, 6, 13]), [4, 6])  # does not generate
    assert not is_free(NumSgp([5, 7, 9]), [5, 7, 9])  # 1 * 9 is not in <5, 7>


def test_ci_relations():
    pres = ci_relations([4, 6, 13])
    assert [(p.alpha, p.beta) for p in pres.pairs] == [
        ((0, 2, 0), (3, 0, 0)), ((0, 0, 2), (5, 1, 0))]
    pres2 = ci_relations([6, 4, 7])
    assert [(p.alpha, p.beta) for p in pres2.pairs] == [
        ((0, 3, 0), (2, 0, 0)), ((0, 0, 2), (1, 2, 0))]
    assert ci_relations([1]).pairs == ()
    with pytest.raises(ValueError):
        ci_relations([])
    # scaling invariance: <4,6> carries the complete intersection of <2,3>
    assert [(p.alpha, p.beta) for p in ci_relations([4, 6]).pairs] == [
        ((0, 2), (3, 0))]
    with pytest.raises(ValueError):
        ci_relations([9, 6, 1])  # 3*1 is not in <9,6>: not free
    with pytest.raises(ValueError):
        ci_relations([4, 5, 6])  # gcd chain stalls at 1 before the end


def _bounded_search(target, prefix, ds):
    """Every target = sum t_i r_i with 0 <= t_i < e_i for i >= 1, t_0 >= 0."""
    ranges = [range(ds[i - 1] // ds[i]) for i in range(1, len(prefix))]
    found = []
    for tail in itertools.product(*ranges):
        rest = target - sum(t * r for t, r in zip(tail, prefix[1:]))
        if rest >= 0 and rest % prefix[0] == 0:
            found.append((rest // prefix[0],) + tail)
    return found


def test_ci_relations_match_bounded_search():
    rng = random.Random(1412)
    checked = 0
    while checked < 150:
        arr = [rng.randint(2, 60) for _ in range(rng.randint(2, 5))]
        ds = gcd_chain(arr)
        if any(ds[k] >= ds[k - 1] for k in range(1, len(arr))):
            continue
        checked += 1
        found = [_bounded_search(ds[k - 1] // ds[k] * arr[k], arr[:k], ds)
                 for k in range(1, len(arr))]
        if all(found):
            assert all(len(f) == 1 for f in found), arr
            betas = [p.beta[:k] for k, p in enumerate(ci_relations(arr).pairs, 1)]
            assert betas == [f[0] for f in found], arr
        else:
            with pytest.raises(ValueError, match="arrangement not free"):
                ci_relations(arr)


def _free_arrangement(rng):
    """r_0 = d_0 = e_1...e_h and r_k = d_k u_k, gcd(u_k, e_k) = 1, with
    r_k > e_{k-1} r_{k-1}, as in the characteristic sequence of a branch."""
    es = [rng.choice((2, 3)) for _ in range(rng.randint(2, 4))]
    d = math.prod(es)
    arr, prev = [d], d
    for k, e in enumerate(es):
        d //= e
        u = next(u for u in itertools.count(prev // d + 1) if math.gcd(u, e) == 1)
        u += rng.randrange(3) * e
        arr.append(d * u)
        prev = e * d * u
    if rng.random() < 0.3:  # r_1, r_0, ... is free as well
        arr[0], arr[1] = arr[1], arr[0]
    return arr


def test_ci_relations_build_no_table_beyond_the_freeness_test(monkeypatch):
    # the reversed greedy's suffixes r_{j-1}, ..., r_0 are the prefixes
    # whose tables is_free already built
    built = []
    init = NumSgp.__init__

    def recording(self, generators):
        built.append(tuple(generators))
        init(self, generators)

    monkeypatch.setattr(NumSgp, "__init__", recording)
    rng = random.Random(1412)
    arrangements = [[8, 12, 26, 53], [60, 40, 70, 71]]
    arrangements += [_free_arrangement(rng) for _ in range(40)]
    for arr in arrangements:
        numsgp._monoid.cache_clear()
        assert is_free(numsgp._monoid(tuple(arr)), arr), arr
        built.clear()
        pres = ci_relations(arr)
        assert built == [], (arr, built)
        assert all(sum(t * r for t, r in zip(p.beta, arr)) == p.value
                   for p in pres.pairs)


def test_conductor_matches_brute_force():
    for gens in ([3, 5], [4, 7, 9], [5, 6, 7], [6, 10, 15]):
        assert NumSgp(gens).conductor == brute_conductor(gens)


def _brute_invariants(scaled):
    """Invariants of the gcd-1 semigroup <scaled> read off a DP table."""
    c = brute_conductor(scaled)
    top = 2 * c + 2 * max(scaled)
    member = brute_semigroup_members(scaled, top)
    gaps = [n for n in range(c) if not member[n]]
    return {
        "c": c,
        "top": top,
        "member": member,
        "gaps": gaps,
        "symmetric": all(member[x] != member[c - 1 - x] for x in range(c)),
        "pseudo_frobenius": [
            x for x in range(-max(scaled), c) if x < 0 or not member[x]
            if all(x + s >= 0 and member[x + s]
                   for s in range(1, c - x + 1) if member[s])],
        "atoms": [n for n in range(1, top + 1) if member[n]
                  and not any(member[a] and member[n - a] for a in range(1, n))],
    }


def test_apery_invariants_match_brute_force_on_random_tuples():
    rng = random.Random(1979)
    cases = [(1,), (2, 3), (4, 4, 6), (4, 6, 10), (8, 12, 30), (6, 10, 15)]
    cases += [_random_generator_tuple(rng) for _ in range(60)]
    for gens in cases:
        S = NumSgp(gens)
        d = math.gcd(*gens)
        scaled = [g // d for g in gens]
        b = _brute_invariants(scaled)
        c, member = b["c"], b["member"]
        assert [S.contains(n) for n in range(-d, d * b["top"] + 1)] == [
            n >= 0 and n % d == 0 and member[n // d]
            for n in range(-d, d * b["top"] + 1)], gens
        assert S.scaled_conductor == d * c, gens
        atoms = [d * a for a in b["atoms"]]
        assert S.minimal_generators() == atoms, gens
        assert S.equals(NumSgp(atoms)) and NumSgp(atoms).equals(S), gens
        # adjoining the Frobenius number changes the semigroup
        assert not S.equals(NumSgp(atoms + [d * (c - 1)] if c else [2 * d, 3 * d]))
        assert S.equals(NumSgp(scaled)) == (d == 1), gens
        if d != 1:
            assert not S.is_numerical
            with pytest.raises(ValueError):
                S.gaps()
            continue
        assert (S.conductor, S.frobenius) == (c, c - 1), gens
        assert S.gaps() == b["gaps"], gens
        assert S.genus == len(b["gaps"]), gens
        assert S.sporadic_count() == sum(member[:c]), gens
        assert S.is_symmetric() == b["symmetric"], gens
        assert S.type_set() == b["pseudo_frobenius"], gens
        for a in sorted(set(gens)):
            assert S.apery_set(a) == [
                next(n for n in range(r, b["top"] + 1, a) if member[n])
                for r in range(a)], (gens, a)


def test_apery_invariants_at_large_conductor():
    # Sylvester: <a, b> with gcd 1 has c = (a - 1)(b - 1), is symmetric,
    # and is presented by the single relation X^b = Y^a
    a, b = 1009, 1013
    S = NumSgp([a, b])
    c = (a - 1) * (b - 1)
    assert (S.conductor, S.genus, S.sporadic_count()) == (c, c // 2, c // 2)
    assert S.is_symmetric() and S.type_set() == [c - 1]
    assert not S.contains(c - 1) and S.contains(c) and S.contains(a * b)
    assert len(S.gaps()) == c // 2
    assert S.minimal_generators() == [a, b]
    assert max(S.apery_set(b)) == c - 1 + b
    assert presentation_for_generators((a, b)).pairs == (
        RelationPair((b, 0), (0, a), a * b),)
