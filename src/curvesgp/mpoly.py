"""Sparse multivariate polynomials and resultants.

Exponent tuples (one entry per variable) map to nonzero coefficients.  The
variable tuple is part of the value: ``MPoly(("x", "y"), ...)`` and the same
data over ``("u", "x")`` are different things, and mixing them is an error.
The curve of a parametrisation, Res_t(X - f(t), Y - g(t)), is the norm of
Y - g(t) over K[X][t]/(f(t) - X) and comes from power sums and Newton's
identities, without a matrix (Bostan, Flajolet, Salvy and Schost, J. Symb.
Comp. 41, 2006), in one integer kernel, :func:`_symmetric_of_values`:
over Q, roots and values are scaled to integral ones, so every product is
a ``poly._int_mul`` and every division in Newton's identities is exact;
``planebranch.intersection_degree`` shares it.  The approximate roots
(``planebranch.approximate_root``, from the same scaled coefficients) and
their evaluation (:meth:`MPoly.eval_univariate`, by Horner's rule) run on
integer numerators too, each divided once when its result is rebuilt.
The Sylvester matrix with
fraction-free (Bareiss) elimination serves only :func:`resultant_eliminate`
and the tests, as their reference route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .fields import QQ, check_same_field
from .poly import Poly, _int_mul, _int_pow, _join_terms, _lift, _unlift


class MPoly:
    __slots__ = ("vars", "field", "coeffs")

    def __init__(self, vars: Sequence[str], field, coeffs: dict):
        self.vars = tuple(vars)
        self.field = field
        self.coeffs = {e: c for e, c in coeffs.items() if not field.is_zero(c)}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, vars, field=QQ) -> "MPoly":
        return cls(vars, field, {})

    @classmethod
    def constant(cls, vars, value, field=QQ) -> "MPoly":
        n = len(vars)
        return cls(vars, field, {(0,) * n: field.coerce(value)})

    @classmethod
    def variable(cls, vars, name: str, field=QQ) -> "MPoly":
        exp = [0] * len(vars)
        exp[list(vars).index(name)] = 1
        return cls(vars, field, {tuple(exp): field.one})

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

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.coeffs)

    def constant_value(self):
        if self.is_zero:
            return self.field.zero
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.coeffs.values()))

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        f = self.field
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = f.add(acc.get(e, f.zero), c)
        return MPoly(self.vars, f, acc)

    def __neg__(self) -> "MPoly":
        f = self.field
        return MPoly(self.vars, f, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other: "MPoly") -> "MPoly":
        self._check(other)
        f = self.field
        acc: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = f.add(acc.get(e, f.zero), f.mul(c1, c2))
        return MPoly(self.vars, f, acc)

    def __pow__(self, n: int) -> "MPoly":
        """Binary powering from the base; a single term in one step."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return MPoly.constant(self.vars, 1, self.field)
        if len(self.coeffs) == 1:
            (e, c), = self.coeffs.items()
            return MPoly(self.vars, self.field,
                         {tuple(k * n for k in e): self.field.pow(c, n)})
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c) -> "MPoly":
        f = self.field
        c = f.coerce(c)
        return MPoly(self.vars, f, {e: f.mul(v, c) for e, v in self.coeffs.items()})

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
                v = f.sub(rem.get(tgt, f.zero), f.mul(q, c2))
                if f.is_zero(v):
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
        variables.  Every product is a ``poly._int_mul``, and the result
        is divided once, by the denominator of G times each d^E.
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
                for e, c in horner(rows[k], i - 1).items():
                    acc[e] = acc.get(e, 0) + scale * c
                acc = _reduced(acc, p)
                if k > lower and acc:
                    acc = _int_mul(acc, _int_pow(a, k - lower, p), p) if a else {}
            return acc

        acc = horner(coeffs, len(self.vars) - 1)
        for (_, d), E in zip(lifted, degs):
            den *= d ** E
        return _unlift(f, acc, den)

    def to_poly(self) -> Poly:
        """Collapse to a univariate Poly; needs at most one active variable."""
        active = [i for i in range(len(self.vars))
                  if any(e[i] for e in self.coeffs)]
        if len(active) > 1:
            raise ValueError("more than one variable present")
        i = active[0] if active else 0
        return Poly(self.field, {e[i]: c for e, c in self.coeffs.items()})

    # -- display -----------------------------------------------------

    def __str__(self):
        return render_mpoly(self)

    def __repr__(self):
        return f"MPoly({self})"


def render_mpoly(p: MPoly) -> str:
    """Deterministic rendering; later variables dominate the term order."""
    terms = []
    for e in sorted(p.coeffs, key=lambda t: tuple(reversed(t)), reverse=True):
        factors = []
        for name, k in zip(p.vars, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        terms.append((p.coeffs[e], "*".join(factors)))
    return _join_terms(p.field, terms)


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
    both constant in the variable is an error, one constant gives a power.
    """
    dp = p.degree_in(name)
    dq = q.degree_in(name)
    if p.is_zero or q.is_zero:
        raise ValueError("resultant of a zero polynomial")
    if dp <= 0 and dq <= 0:
        raise ValueError(f"both inputs are constant in {name}")
    if dp == 0:
        return p ** dq
    if dq == 0:
        return q ** dp
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


def _add_product(acc: dict, a: dict, b: dict, p: int, k: int = 1) -> None:
    """acc += k * a * b, for integer polynomials as dicts and an integer k."""
    if a and b:
        get = acc.get
        for e, c in _int_mul(a, b, p).items():
            acc[e] = get(e, 0) + k * c


def _reduced(acc: dict, p: int) -> dict:
    """acc with its coefficients reduced mod p (when p > 0), zeros dropped."""
    return {e: c % p if p else c for e, c in acc.items() if (c % p if p else c)}


def _symmetric_of_values(b: list, h: dict, w: int, p: int, s: list) -> list[dict]:
    """E_0, ..., E_n: the elementary symmetric functions of the values
    h(tau_i) at the n roots tau_i of mu(t) = t^n + sum_i B_i t^(n-i).

    b lists B_1, ..., B_n and h maps j*w + e (0 <= e < w) to the
    coefficient of t^j X^e; all are integer polynomials in X as dicts
    exponent -> int (residues over GF(p), p > 0), empty for zero, and w
    must exceed n deg_X h.  s holds the power sums S_0, S_1, ... of the
    tau_i and is extended in place, so a caller can keep it for many h.
    Newton's recurrence S_j = -(j B_j + sum_{i<j} B_i S_{j-i}) needs no
    division; the traces P_k = sum_j [t^j]h^k S_j follow, then
    k E_k = sum_{i=1}^{k} (-1)^(i-1) E_{k-i} P_i.  That division by k is
    exact on integers: E_k is a symmetric polynomial with integer
    coefficients in the tau_i, hence an integer polynomial in the B_i
    (equivalently, it lies in Q[X] and is integral over Z[X], which is
    integrally closed by Gauss's lemma); a remainder raises
    ArithmeticError.  Over GF(p) it needs p > n.
    """
    n = len(b)
    if 0 < p <= n:
        raise ValueError(f"characteristic {p} does not exceed the degree {n}")
    if not s:
        s.append({0: n})
    terms = [(i, bi) for i, bi in enumerate(b, 1) if bi]
    for j in range(len(s), n * (max(h) // w if h else 0) + 1):
        acc = {e: -j * c for e, c in b[j - 1].items()} if j <= n else {}
        for i, bi in terms:
            if i >= j:
                break
            _add_product(acc, bi, s[j - i], p, -1)
        s.append(_reduced(acc, p))
    traces = [{}]
    hk = {0: 1}
    for _ in range(n):
        hk = _int_mul(hk, h, p) if hk and h else {}
        acc = {}
        for e, c in hk.items():
            sj = s[e // w]
            if sj:
                x = e % w
                for es, cs in sj.items():
                    acc[x + es] = acc.get(x + es, 0) + c * cs
        traces.append(_reduced(acc, p))
    E = [{0: 1}]
    for k in range(1, n + 1):
        acc = {}
        for i in range(1, k + 1):
            _add_product(acc, E[k - i], traces[i], p, 1 if i % 2 else -1)
        inv = pow(k, -1, p) if p else None
        for e, c in acc.items():
            if p:
                acc[e] = c * inv
                continue
            acc[e], r = divmod(c, k)
            if r:
                raise ArithmeticError(f"Newton's identity for E_{k}: {c} is "
                                      f"not divisible by {k}")
        E.append(_reduced(acc, p))
    return E


def _integral_roots(b: list, char: int) -> tuple[list, int]:
    """(B, D) with B_i = D^i b_i: for b_1, ..., b_n in Q[X] (dicts exponent
    -> Fraction) and D the lcm of their denominators, the roots of
    t^n + sum_i B_i t^(n-i) are D times those of t^n + sum_i b_i t^(n-i),
    and every B_i is integral.  Over GF(p), D = 1; zeros are dropped.  The
    inputs of ``planebranch._miller`` are scaled the same way, U_i = D^i a_i."""
    D = 1 if char else math.lcm(*(c.denominator for bi in b for c in bi.values()))
    return [{e: c if char else c.numerator * (D ** i // c.denominator)
             for e, c in bi.items() if c} for i, bi in enumerate(b, 1)], D


def _integral_values(h: dict, w: int, D: int, char: int) -> tuple[dict, int]:
    """(H, M) with H(t) = M h(t/D) integral: for h = sum_j h_j t^j packed as
    in :func:`_symmetric_of_values`, L the lcm of its denominators and
    m = deg_t h, H_j = L h_j D^(m-j) and M = L D^m, so that H(D tau) =
    M h(tau) and the E_k of H scale the e_k of h by M^k.  Over GF(p),
    M = 1."""
    if char or not h:
        return h, 1
    m = max(h) // w
    L = math.lcm(*(c.denominator for c in h.values()))
    return {e: c.numerator * (L // c.denominator) * D ** (m - e // w)
            for e, c in h.items()}, L * D ** m


def curve_resultant(f: Poly, g: Poly) -> MPoly:
    """Res_t(X - f(t), Y - g(t)), normalised monic in the second variable.

    This is the minimal polynomial F(X, Y) of the parametrised curve
    X = f(t), Y = g(t) when the parametrisation is proper (a power of it
    otherwise).  F is the characteristic polynomial of multiplication by g
    on K(X)[t]/(f(t) - X), that is F = prod_i (Y - g(tau_i)) = sum_k
    (-1)^k e_k Y^(n-k) over the n = deg f roots tau_i of f(t) = X, with
    f(t) - X = c*(t^n + b_1 t^(n-1) + ... + b_n) (only b_n = (f_0 - X)/c
    involves X).  The e_k come from :func:`_symmetric_of_values` on
    integers: over Q with the roots D tau_i of t^n + sum_i D^i b_i t^(n-i),
    D the lcm of the denominators of the b_i, and the values M g(tau_i) of
    the integral H of :func:`_integral_values`, so each e_k is rebuilt once
    as E_k / M^k.  The last step divides by 1, ..., n, so the
    characteristic must be 0 or exceed deg f.  The value equals
    :func:`resultant_eliminate` on the same pair.
    """
    check_same_field(f.field, g.field)
    field = f.field
    if f.is_zero or f.degree < 1:
        raise ValueError("first generator must have positive degree")
    n = int(f.degree)
    c_inv = field.inv(f.leading_coeff)
    b = [{0: field.mul(f.coeff(n - i), c_inv)} for i in range(1, n + 1)]
    b[-1][1] = field.neg(c_inv)
    B, D = _integral_roots(b, field.char)
    H, M = _integral_values(g.coeffs, 1, D, field.char)
    E = _symmetric_of_values(B, H, 1, field.char, [])
    out, Mk = {}, 1
    for k, Ek in enumerate(E):
        for ex, v in Ek.items():
            v = -v if k % 2 else v
            out[(ex, n - k)] = v % field.char if field.char else Fraction(v, Mk)
        Mk *= M
    return MPoly(("x", "y"), field, out)


def eval_bipoly(G: MPoly, f: Poly, g: Poly) -> Poly:
    """Substitute X -> f, Y -> g into a polynomial in two variables."""
    check_same_field(f.field, g.field)
    check_same_field(G.field, f.field)
    if len(G.vars) != 2:
        raise ValueError("expected a polynomial in exactly two variables")
    return G.eval_univariate({G.vars[0]: f, G.vars[1]: g})
