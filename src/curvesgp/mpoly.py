"""Sparse multivariate polynomials and resultants.

Exponent tuples (one entry per variable) map to nonzero coefficients.  The
variable tuple is part of the value: ``MPoly(("x", "y"), ...)`` and the same
data over ``("u", "x")`` are different things, and mixing them is an error.
The curve of a parametrisation, Res_t(X - f(t), Y - g(t)), is the norm of
Y - g(t) over K[X][t]/(f(t) - X) and comes from power sums and Newton's
identities, without a matrix (Bostan, Flajolet, Salvy and Schost, J. Symb.
Comp. 41, 2006), in one integer kernel, :func:`_symmetric_of_values`,
behind one front end, :func:`_norm_values`: over Q, roots and values are
scaled to integral ones, so every division in Newton's identities is
exact; over GF(p), the residues run through it as integers and each
result is reduced mod p once, so every p answers.  The curve and the
intersection numbers of :func:`intersection_degree` (one call per pair of
curves) both go through it.  When the input is dense, the kernel runs
on packed integers: each polynomial in X becomes its value at X = 2^beta,
one Python int, and each result is unpacked once.  beta comes from a
proven bound: the results are coefficients of Res_t(mu, Y - h), at most
|mu|_1^m (1 + |h|_1)^n in size, since the 1-norm of a Sylvester
determinant is at most the product of its rows' 1-norms.  When the power
sums would take more packed bits than their dict terms warrant (one rule,
``_BITS_PER_TERM`` bits a term), it runs the same recurrence on dicts,
every product a ``poly._int_mul`` and every sum a ``poly._sub_scaled``.
Both forms compute only what the answer reads.
The power sums S_j are computed only at the j <= n m in the monoid
generated by the indices i with B_i != 0 (``numsgp.NumSgp.elements_upto``,
from its Apery set): at every other j, Newton's recurrence makes S_j zero,
by induction on j.  Each power h^k is read only at those exponents.  When
h is constant in X, as in every :func:`curve_resultant` call, and few of
the S_j are nonzero, h^k is one Kronecker-packed int, built by one product
per k, and only its live slots are read (``poly._unpack_at``).  Powers of
an h that depends on X stay dicts, one ``poly._int_mul`` each: a two-level
packing of them made the bench's ``curve-infinity`` jobs about twice as
slow (95-113% slower).
The approximate roots (``planebranch.approximate_root``, from the same
scaled coefficients, read by :meth:`MPoly.rows` as the intersection
numbers read theirs) and their evaluation (:meth:`MPoly.eval_univariate`,
by Horner's rule) run on integer numerators too, each divided once when
its result is rebuilt.  The Sylvester matrix with fraction-free (Bareiss)
elimination serves only :func:`resultant_eliminate` and the tests, as
their reference route.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import add, itemgetter, mul, sub
from typing import Mapping, Sequence

from .fields import QQ, check_same_field, rational
from .numsgp import _members
from .poly import (Poly, _int_mul, _int_pow, _integral_roots, _join_terms,
                   _lift, _pack, _power, _reduced, _sub_scaled, _unlift,
                   _unpack, _unpack_at)


class MPoly:
    __slots__ = ("vars", "field", "coeffs")

    def __init__(self, vars: Sequence[str], field, coeffs: dict):
        self.vars = tuple(vars)
        self.field = field
        coerce = field.coerce  # canonical coefficients, as in Poly
        self.coeffs = {e: v for e, c in coeffs.items() if (v := coerce(c))}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, vars, field=QQ) -> "MPoly":
        return cls(vars, field, {})

    @classmethod
    def constant(cls, vars, value, field=QQ) -> "MPoly":
        n = len(vars)
        return cls(vars, field, {(0,) * n: value})

    @classmethod
    def variable(cls, vars, name: str, field=QQ) -> "MPoly":
        exp = [0] * len(vars)
        exp[list(vars).index(name)] = 1
        return cls(vars, field, {tuple(exp): 1})

    @classmethod
    def from_poly(cls, p: Poly, vars, name: str) -> "MPoly":
        """Embed a univariate polynomial, its variable mapped to ``name``."""
        idx = list(vars).index(name)
        n = len(vars)
        coeffs = {}
        for e, c in p.coeffs.items():
            exp = [0] * n
            exp[idx] = e
            coeffs[tuple(exp)] = c
        return cls(vars, p.field, coeffs)

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "MPoly"):
        check_same_field(self.field, other.field)
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def degree_in(self, name: str) -> int:
        """Highest exponent of a variable; -1 for the zero polynomial."""
        if self.is_zero:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.coeffs)

    def coeff_in(self, name: str, k: int) -> "MPoly":
        """Coefficient of name^k, as an MPoly in the same variables."""
        i = self.vars.index(name)
        out = {}
        for e, c in self.coeffs.items():
            if e[i] == k:
                e2 = e[:i] + (0,) + e[i + 1:]
                out[e2] = c
        return MPoly(self.vars, self.field, out)

    def rows(self, name: str, w: int = 1) -> dict[int, dict]:
        """The terms by their exponent of ``name``: exponent -> {the other
        exponents packed into one int -> coefficient}.  The packing is the
        Kronecker substitution in base w, the first other variable lowest,
        so w must exceed every exponent but the last one's; with a single
        other variable the packed int is its exponent."""
        i = self.vars.index(name)
        out: dict = {}
        for e, c in self.coeffs.items():
            rest = e[:i] + e[i + 1:]
            out.setdefault(e[i], {})[sum(x * w ** k for k, x in enumerate(rest))] = c
        return out

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.coeffs)

    def constant_value(self):
        if self.is_zero:
            return 0
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.coeffs.values()))

    # -- arithmetic --------------------------------------------------

    def _termwise(self, other: "MPoly", op) -> "MPoly":
        """self op other term by term, for ``operator.add`` or
        ``operator.sub``; the constructor makes each result canonical."""
        self._check(other)
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = op(acc.get(e, 0), c)
        return MPoly(self.vars, self.field, acc)

    def __add__(self, other: "MPoly") -> "MPoly":
        return self._termwise(other, add)

    def __neg__(self) -> "MPoly":
        return MPoly(self.vars, self.field, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self._termwise(other, sub)

    def __mul__(self, other: "MPoly") -> "MPoly":
        """The schoolbook double loop on exponent tuples, canonicalised once
        by the constructor: the independent product behind the
        Sylvester/Bareiss reference route, on no shared integer kernel."""
        self._check(other)
        acc: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, 0) + c1 * c2
        return MPoly(self.vars, self.field, acc)

    def __pow__(self, n: int) -> "MPoly":
        """Binary powering by :func:`poly._power`."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MPoly.constant(self.vars, 1, self.field)
        return _power(self, n, mul)

    def scale(self, c) -> "MPoly":
        c = self.field.coerce(c)
        return MPoly(self.vars, self.field,
                     {e: v * c for e, v in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.vars == other.vars
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.vars, tuple(sorted(self.coeffs.items()))))

    # -- division ----------------------------------------------------

    def exact_div(self, other: "MPoly") -> "MPoly":
        """Quotient self/other when the division is exact (lex elimination)."""
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        f = self.field
        rem = dict(self.coeffs)
        lead = max(other.coeffs)
        lead_c = other.coeffs[lead]
        quot: dict = {}
        while rem:
            e = max(rem)
            diff = tuple(a - b for a, b in zip(e, lead))
            if any(d < 0 for d in diff):
                raise ArithmeticError("division is not exact")
            q = f.div(rem[e], lead_c)
            quot[diff] = q
            for e2, c2 in other.coeffs.items():
                tgt = tuple(a + b for a, b in zip(diff, e2))
                v = f.coerce(rem.get(tgt, 0) - q * c2)
                if not v:
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = v
        return MPoly(self.vars, f, quot)

    # -- substitution ------------------------------------------------

    def eval_univariate(self, values: Mapping[str, Poly]) -> Poly:
        """Substitute a univariate polynomial for every variable.

        Horner's rule in each variable, the last one outermost, on integer
        numerators.  G and each value v = a/d are lifted once
        (``poly._lift``; over GF(p) the residues, with d = 1).  With E the
        degree of G in the last variable y and G = sum_k y^k G_k over its
        exponents K > K' > ... > k_min, the integral d^E G(v) is
        (...(d^(E-K) G_K a^(K-K') + d^(E-K') G_K') a^(K'-K'') + ...)
        a^(k_min), each G_k evaluated the same way in the remaining
        variables.  Every product is a ``poly._int_mul``, every sum a
        ``poly._sub_scaled``, and the result is divided once, by the
        denominator of G times each d^E.
        """
        f = self.field
        p = f.char
        if self.is_zero:
            return Poly.zero(f)
        coeffs, den = _lift(f, self.coeffs)
        degs = [max(e[i] for e in coeffs) for i in range(len(self.vars))]
        lifted = [_lift(f, values[v].coeffs if E else {})
                  for v, E in zip(self.vars, degs)]

        def horner(terms: dict, i: int) -> dict:
            if i < 0:
                return {0: terms[()]}
            rows: dict = {}
            for e, c in terms.items():
                rows.setdefault(e[i], {})[e[:i]] = c
            a, d = lifted[i]
            exps = sorted(rows, reverse=True)
            acc: dict = {}
            for k, lower in zip(exps, exps[1:] + [0]):
                scale = d ** (degs[i] - k)
                _sub_scaled(acc, -scale, horner(rows[k], i - 1), p)
                if k > lower and acc:
                    acc = _int_mul(acc, _int_pow(a, k - lower, p), p) if a else {}
            return acc

        acc = horner(coeffs, len(self.vars) - 1)
        for (_, d), E in zip(lifted, degs):
            den *= d ** E
        return _unlift(f, acc, den)

    # -- display -----------------------------------------------------

    def __str__(self):
        return render_mpoly(self)

    def __repr__(self):
        return f"MPoly({self})"


def render_mpoly(p: MPoly) -> str:
    """Deterministic rendering; later variables dominate the term order."""
    coeffs = p.coeffs
    terms = []
    for e in sorted(coeffs, key=itemgetter(*range(len(p.vars) - 1, -1, -1)),
                    reverse=True):
        factors = []
        for name, k in zip(p.vars, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        terms.append((str(coeffs[e]), "*".join(factors)))
    return _join_terms(terms)


# -- determinants and resultants --------------------------------------


def bareiss_determinant(matrix: list[list[MPoly]], vars, field) -> MPoly:
    """Fraction-free determinant; entries stay polynomials throughout."""
    n = len(matrix)
    if n == 0:
        return MPoly.constant(vars, 1, field)
    m = [row[:] for row in matrix]
    sign = 1
    prev = MPoly.constant(vars, 1, field)
    for k in range(n - 1):
        if m[k][k].is_zero:
            pivot = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if pivot is None:
                return MPoly.zero(vars, field)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = MPoly.zero(vars, field)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_resultant(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Res of p, q with respect to one variable, as a polynomial in the rest.

    The result keeps the full variable tuple (the eliminated variable simply
    no longer occurs).  Degenerate degrees follow the usual conventions:
    both constant in the variable is an error, and one constant c of the
    other's degree d gives c^d, the determinant of the diagonal matrix.
    """
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of a zero polynomial")
    if dp <= 0 and dq <= 0:
        raise ValueError(f"both inputs are constant in {name}")
    pc = [p.coeff_in(name, k) for k in range(dp, -1, -1)]
    qc = [q.coeff_in(name, k) for k in range(dq, -1, -1)]
    n = dp + dq
    zero = MPoly.zero(p.vars, p.field)
    rows = []
    for i in range(dq):
        rows.append([zero] * i + pc + [zero] * (dq - 1 - i))
    for i in range(dp):
        rows.append([zero] * i + qc + [zero] * (dp - 1 - i))
    assert all(len(r) == n for r in rows)
    return bareiss_determinant(rows, p.vars, p.field)


def resultant_eliminate(p: MPoly, q: MPoly, name: str, monic_in: str | None = None) -> MPoly:
    """Resultant w.r.t. ``name``, sign-normalised to be monic in ``monic_in``.

    Normalisation happens only when the leading coefficient in ``monic_in``
    is a nonzero constant (a unit); otherwise the raw determinant is kept.
    """
    res = sylvester_resultant(p, q, name)
    if monic_in is not None and not res.is_zero:
        d = res.degree_in(monic_in)
        lead = res.coeff_in(monic_in, d)
        if lead.is_constant():
            res = res.scale(res.field.inv(lead.constant_value()))
    return res


# The packed form of :func:`_symmetric_of_values` holds the power sums
# S_0, ..., S_N, N = n m, as ints of about beta (j delta + 1) bits, delta =
# max_i deg_X(B_i) / i the X-degree that each step in t adds: beta N
# (N delta / 2 + 1) bits in all.  It is picked when they take at most
# _BITS_PER_TERM bits for each term that the inputs (the B_i and the h_j)
# bring to each of the N + 1 sums: a dict term costs about as much as that
# many packed bits.  Otherwise the inputs are sparse beside the slots, as
# for (x^4, x^6 + x^1001): each of its power sums is one term, and each
# would be packed at beta = 1016 bits a slot.
_BITS_PER_TERM = 1 << 10


class _ZX:
    """An integer polynomial in X, a dict exponent -> nonzero int: the
    sparse form of Z[X], the ring that :func:`_symmetric_of_values` runs
    in over Q and GF(p) alike, with the operations its recurrence uses.
    Each product is one ``poly._int_mul``; ``+=`` and ``-=`` are one
    ``poly._sub_scaled`` each and write into the left operand, which must
    be a fresh value."""

    __slots__ = ("c",)

    def __init__(self, c: dict):
        self.c = c

    def __bool__(self) -> bool:
        return bool(self.c)

    def __iadd__(self, other: "_ZX") -> "_ZX":
        _sub_scaled(self.c, -1, other.c, 0)
        return self

    def __isub__(self, other: "_ZX") -> "_ZX":
        _sub_scaled(self.c, 1, other.c, 0)
        return self

    def __mul__(self, other: "_ZX") -> "_ZX":
        return _ZX(_int_mul(self.c, other.c, 0) if self.c and other.c else {})

    def __divmod__(self, k: int) -> tuple["_ZX", "_ZX"]:
        """(q, r) with self = k q + r, coefficient by coefficient."""
        qr = [(e, *divmod(v, k)) for e, v in self.c.items()]
        return (_ZX({e: q for e, q, _ in qr if q}),
                _ZX({e: r for e, _, r in qr if r}))


def _slot_bytes(b: list, h: dict, n: int, m: int) -> int:
    """Bytes per slot of the packed form of :func:`_symmetric_of_values`,
    or 0 for its sparse form, by the rule stated at ``_BITS_PER_TERM``,
    in integers: with delta = top / at, the packed bits
    8 nbytes (N + 1) (N delta / 2 + 1) are at most ``_BITS_PER_TERM`` a
    term exactly when 4 nbytes (N + 1) (N top + 2 at) is at most
    at ``_BITS_PER_TERM`` terms."""
    norm_mu = 1 + sum(abs(c) for bi in b for c in bi.values())
    norm_h = sum(abs(c) for hj in h.values() for c in hj.values())
    nbytes = ((norm_mu ** m * (1 + norm_h) ** n).bit_length() + 8) // 8
    N = n * m
    top, at = 0, 1
    for i, bi in enumerate(b, 1):
        if bi and max(bi) * at > top * i:
            top, at = max(bi), i
    terms = (N + 1) * (sum(map(len, b)) + sum(map(len, h.values())))
    return (nbytes if 4 * nbytes * (N + 1) * (N * top + 2 * at)
            <= at * _BITS_PER_TERM * terms else 0)


def _symmetric_of_values(b: list, h: dict, p: int) -> list[dict]:
    """E_0, ..., E_n: the elementary symmetric functions of the values
    h(tau_i) at the n roots tau_i of mu(t) = t^n + sum_i B_i t^(n-i).

    b lists B_1, ..., B_n and h maps j to the coefficient h_j of t^j; all
    are integer polynomials in X as dicts exponent -> nonzero int (residues
    over GF(p), p > 0), empty for zero, and h has no empty entry.  Newton's
    recurrence S_j = -(j B_j + sum_{i<j} B_i S_{j-i}) gives the power sums
    of the tau_i without division, the traces P_k = sum_j [t^j]h^k S_j
    follow, then k E_k = sum_{i=1}^{k} (-1)^(i-1) E_{k-i} P_i.  That
    division by k is exact on integers: E_k is a symmetric polynomial with
    integer coefficients in the tau_i, hence an integer polynomial in the
    B_i (equivalently, it lies in Q[X] and is integral over Z[X], which is
    integrally closed by Gauss's lemma); a remainder raises
    ArithmeticError.

    Over GF(p) the residues are lifted to Z as they are, the recurrence
    runs over Z in both forms, and each E_k is reduced mod p once, at the
    end: E_k is an integer polynomial in the inputs, so its value at the
    residues, reduced mod p, is its value over GF(p), and no step divides
    by p, whatever n is.

    S_j is computed only for j in the monoid generated by the i with
    B_i != 0: by induction on j, every other S_j is zero, since then B_j = 0
    and no j - i with B_i != 0 lies in the monoid.  P_k reads h^k only at
    those j.

    One recurrence runs in one of two forms of Z[X], picked by
    :func:`_slot_bytes` (the rule at ``_BITS_PER_TERM``).  Packed, each
    polynomial in X is its value at X = 2^beta, one Python int (Kronecker
    substitution, as in ``poly._int_mul``).  There h^k is a dict
    t-exponent -> int, one ``poly._int_mul`` each, unless h is constant in
    X and at most about half of the S_j are nonzero: then
    h = t^lo g(t^d) with d the gcd of the differences of its exponents,
    g^k is one int packed at 2^(8 hbytes) (its coefficients are at most
    |g|_1^n), built by one product per k, and ``poly._unpack_at`` reads
    only the slots of the nonzero S_j, one ``to_bytes`` per k.  Evaluation at
    2^beta is a ring homomorphism, so every step, the divisions by k
    included, is exact whatever the size of its values, and beta only has
    to be wide enough for ``poly._unpack`` to read each E_k back.  Its
    coefficients are those of Res_t(mu, Y - h) = sum_k (-1)^k E_k Y^(n-k),
    the determinant of the Sylvester matrix of mu and Y - h: m = deg_t h
    rows of coefficients of mu and n rows of those of Y - h.  The 1-norm
    of a determinant is at most the product of the 1-norms of its rows
    (expand it over permutations, and |ab|_1 <= |a|_1 |b|_1), so every such
    coefficient is at most |mu|_1^m (1 + |h|_1)^n, the norms taken over all
    coefficients in t and X; beta is that bound's bit length plus a sign
    bit, in whole bytes.  Sparse, each polynomial in X is a :class:`_ZX`,
    and h is packed into one polynomial in X, t^j X^e to X^(j w + e) with
    w = n deg_X h + 1, which no power h^k, k <= n, overflows; each h^k is
    one ``poly._int_mul``, and only its rows at nonzero S_j are kept.
    """
    n = len(b)
    m = max(h, default=0)
    nbytes = _slot_bytes(b, h, n, m)
    if nbytes:
        width = 8 * nbytes

        def lift(c: dict) -> int:
            return sum(v << width * e for e, v in c.items())

        def coeffs(v: int) -> dict:
            return _unpack(v, 0, v.bit_length() // width + 1, nbytes)

        zero = int  # int() == 0

        def powers(support: list):
            # reading slots one by one pays only when few S_j are nonzero
            if (2 * len(support) > n * m + 1
                    or any(max(hj) for hj in h.values())):
                H = {j: lift(hj) for j, hj in h.items()}
                hk = {0: 1}
                for _ in range(n):
                    hk = _int_mul(hk, H, 0) if H else {}
                    yield hk.items()
                return
            lo = min(h)  # h = t^lo g(t^d), and g^k is one packed int
            d = math.gcd(*(j - lo for j in h)) or 1
            top = (m - lo) // d
            g = {(j - lo) // d: hj[0] for j, hj in h.items()}
            hbytes = ((sum(map(abs, g.values())) ** n).bit_length() + 8) // 8
            packed, V = _pack(g, 0, top, hbytes), 1
            for k in range(1, n + 1):
                V *= packed
                base = k * lo
                js = [j for j in support[bisect_left(support, base):
                                         bisect_right(support, k * m)]
                      if (j - base) % d == 0]
                yield zip(js, _unpack_at(V, [(j - base) // d for j in js],
                                         k * top + 1, hbytes))
    else:
        lift = _ZX

        def coeffs(v: _ZX) -> dict:
            return v.c

        def zero() -> _ZX:  # a fresh value, since += writes into it
            return _ZX({})

        def powers(support: list):
            live = set(support)
            w = n * max((max(hj) for hj in h.values()), default=0) + 1
            H = {j * w + e: c for j, hj in h.items() for e, c in hj.items()}
            hk = {0: 1}
            for _ in range(n):
                hk = _int_mul(hk, H, 0) if H else {}
                rows: dict = {}
                for x, c in hk.items():
                    j, e = divmod(x, w)
                    if j in live:  # a row that meets a zero power sum is not read
                        rows.setdefault(j, {})[e] = c
                yield ((j, _ZX(row)) for j, row in rows.items())
    B = [lift(bi) for bi in b]
    terms = [(i, Bi) for i, Bi in enumerate(B, 1) if Bi]
    sums = [lift({0: n})] + [zero()] * (n * m)  # S_0, ..., S_N; zeros only read
    support = [0]  # the j with S_j != 0, in increasing order
    for j in (_members([i for i, _ in terms]).elements_upto(n * m)[1:]
              if terms else ()):
        acc = B[j - 1] * lift({0: -j}) if j <= n else zero()
        for i, Bi in terms:
            if i >= j:
                break
            if S := sums[j - i]:
                acc -= Bi * S
        if acc:
            sums[j] = acc
            support.append(j)
    traces = [zero()]
    for hk in powers(support):
        acc = zero()
        for j, c in hk:
            if S := sums[j]:
                acc += c * S
        traces.append(acc)
    E = [lift({0: 1})]
    for k in range(1, n + 1):
        acc = zero()
        for i in range(1, k + 1):
            if traces[i] and E[k - i]:
                if i % 2:
                    acc += E[k - i] * traces[i]
                else:
                    acc -= E[k - i] * traces[i]
        q, r = divmod(acc, k)
        if r:
            raise ArithmeticError(f"Newton's identity for E_{k} is not "
                                  f"divisible by {k}")
        E.append(q)
    return [_reduced(coeffs(Ek), p) for Ek in E]


def _norm_values(b: list, h: dict, char: int) -> tuple[list[dict], int]:
    """(E, M): E_0, ..., E_n of :func:`_symmetric_of_values` for the values
    h(tau_i) at the n roots tau_i of t^n + sum_i b_i t^(n-i), with
    E_k = M^k e_k for the elementary symmetric functions e_k of the values.

    b and h are given as the kernel takes them, over Q with fractions.
    ``poly._integral_roots`` scales the roots to D tau_i, integral, D the
    lcm of the denominators of the b_i.  With L the lcm of those of h and
    m = deg_t h, the values become those of H(t) = M h(t/D), with
    H_j = L h_j D^(m-j) integral and M = L D^m, so that H(D tau_i) =
    M h(tau_i).  Over GF(p), D = M = 1.
    """
    B, D = _integral_roots(b, char)
    M = 1
    if not char and h:
        m = max(h)
        L = math.lcm(*(c.denominator for hj in h.values() for c in hj.values()))
        h = {j: {e: c.numerator * (L // c.denominator) * D ** (m - j)
                 for e, c in hj.items()} for j, hj in h.items()}
        M = L * D ** m
    return _symmetric_of_values(B, h, char), M


def curve_resultant(f: Poly, g: Poly) -> MPoly:
    """Res_t(X - f(t), Y - g(t)), normalised monic in the second variable.

    This is the minimal polynomial F(X, Y) of the parametrised curve
    X = f(t), Y = g(t) when the parametrisation is proper (a power of it
    otherwise).  F is the characteristic polynomial of multiplication by g
    on K(X)[t]/(f(t) - X), that is F = prod_i (Y - g(tau_i)) = sum_k
    (-1)^k e_k Y^(n-k) over the n = deg f roots tau_i of f(t) = X, with
    f(t) - X = c*(t^n + b_1 t^(n-1) + ... + b_n) (only b_n = (f_0 - X)/c
    involves X).  The e_k come from :func:`_symmetric_of_values` on
    integers, through the front end :func:`_norm_values` that
    :func:`intersection_degree` shares: over Q with the roots D tau_i of
    t^n + sum_i D^i b_i t^(n-i), D the lcm of the denominators of the b_i,
    and the values M g(tau_i) of an integral H, so each e_k is rebuilt once
    as E_k / M^k.  For a dense pair the kernel evaluates X at 2^beta and
    runs on one int per polynomial in X; beta is the bit length of
    |mu|_1^deg g (1 + |H|_1)^n plus a sign bit, a bound on every
    coefficient of the Sylvester determinant Res_t(mu, Y - H) (the product
    of its rows' 1-norms), mu = t^n + sum_i D^i b_i t^(n-i).  A sparse pair,
    whose packed power sums would take more than ``_BITS_PER_TERM`` bits
    for each of their input terms, runs the same recurrence on dicts.  The
    value equals :func:`resultant_eliminate` on the same pair.
    """
    check_same_field(f.field, g.field)
    field = f.field
    if f.is_zero or f.degree < 1:
        raise ValueError("first generator must have positive degree")
    n = int(f.degree)
    c_inv = field.inv(f.leading_coeff)
    b = [{0: field.coerce(f.coeff(n - i) * c_inv)} for i in range(1, n + 1)]
    b[-1][1] = field.coerce(-c_inv)
    E, M = _norm_values(b, {j: {0: c} for j, c in g.coeffs.items()}, field.char)
    out, Mk = {}, 1
    for k, Ek in enumerate(E):
        for ex, v in Ek.items():
            v = -v if k % 2 else v
            out[(ex, n - k)] = rational(v, Mk)  # over GF(p), Mk = 1; MPoly reduces
        Mk *= M
    return MPoly(("x", "y"), field, out)


def intersection_degree(F: MPoly, G: MPoly) -> int:
    """int(F, G) = deg_x Res_y(F, G), for F monic in y.

    Res_y(F, G) = prod_i G(y_i) over the roots y_i of F is the e_n of the
    values G(y_i), which :func:`_norm_values`, the front end of
    :func:`curve_resultant`, computes on the y-rows of F below y^n and
    those of G.  Its E_n is a nonzero constant multiple of e_n, so the
    degree is deg_x E_n.  The kernel picks its form, packed or sparse, for
    the pair, and computes the power sums of the scaled roots of F as far
    as deg_y G needs, only at the exponents in the monoid of the i with a
    nonzero y^(n-i) row of F.  G's powers are dicts whenever its y-rows
    depend on x, whatever its degree or leading coefficient.  Its cost
    grows with n = deg_y F times deg_y G: so
    ``planebranch.gamma_curve_infinity`` puts the approximate root, of
    y-degree below F's, first and F reduced modulo it second, which
    leaves the degree unchanged, as Res_y(F, G) = +-Res_y(G, F mod G) for
    G monic in y.
    """
    field = F.field
    n = F.degree_in("y")
    if F.vars != ("x", "y") or F.coeff_in("y", n) != MPoly.constant(F.vars, 1, field):
        raise ValueError("the first curve must be in (x, y) and monic in y")
    F._check(G)
    rows = F.rows("y")
    b = [rows.get(n - i, {}) for i in range(1, n + 1)]
    res = _norm_values(b, G.rows("y"), field.char)[0][n]
    if not res:
        raise ValueError("the two curves share a component")
    return max(res)


def eval_bipoly(G: MPoly, f: Poly, g: Poly) -> Poly:
    """Substitute X -> f, Y -> g into a polynomial in two variables."""
    check_same_field(f.field, g.field)
    check_same_field(G.field, f.field)
    if len(G.vars) != 2:
        raise ValueError("expected a polynomial in exactly two variables")
    return G.eval_univariate({G.vars[0]: f, G.vars[1]: g})
