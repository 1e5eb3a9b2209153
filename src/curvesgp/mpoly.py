"""Sparse multivariate polynomials and resultants.

Exponent tuples (one entry per variable) map to nonzero coefficients.  The
variable tuple is part of the value: ``MPoly(("x", "y"), ...)`` and the same
data over ``("u", "x")`` are different things, and mixing them is an error.
The curve of a parametrisation, Res_t(X - f(t), Y - g(t)), is the norm of
Y - g(t) over K[X][t]/(f(t) - X) and comes from power sums and Newton's
identities in K[X], without a matrix; that route needs characteristic 0 or
above deg f; ``planebranch.intersection_degree`` shares its helpers.  The
Sylvester matrix with fraction-free (Bareiss) elimination now serves only
:func:`resultant_eliminate` and the tests, as their reference route.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .fields import QQ, check_same_field
from .poly import Poly, _join_terms


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
    def variable(cls, vars, name: str, field=QQ, power: int = 1) -> "MPoly":
        exp = [0] * len(vars)
        exp[list(vars).index(name)] = power
        return cls(vars, field, {tuple(exp): field.one})

    @classmethod
    def monomial(cls, vars, exps: Sequence[int], coeff, field=QQ) -> "MPoly":
        return cls(vars, field, {tuple(exps): field.coerce(coeff)})

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

    def subs(self, values: Mapping[str, "MPoly"]) -> "MPoly":
        """Substitute MPolys (all over one common variable tuple) for variables."""
        items = list(values.items())
        target_vars = items[0][1].vars
        f = self.field
        out = MPoly.zero(target_vars, f)
        cache: dict = {}

        def power(name, k):
            if (name, k) not in cache:
                cache[(name, k)] = values[name] ** k
            return cache[(name, k)]

        for e, c in self.coeffs.items():
            term = MPoly.constant(target_vars, c, f)
            for name, k in zip(self.vars, e):
                if k:
                    term = term * power(name, k)
            out = out + term
        return out

    def eval_univariate(self, values: Mapping[str, Poly]) -> Poly:
        """Substitute a univariate polynomial for every variable.

        Horner's rule in each variable, the last one outermost: with G =
        sum_k y^k G_k over the exponents k of the last variable y, G(v) =
        (...(G_K(v) y^(K-K') + G_K'(v)) y^(K'-K'') + ...) y^(k_min), each
        G_k evaluated the same way in the remaining variables.
        """
        f = self.field

        def horner(terms: dict, i: int) -> Poly:
            if i < 0:
                return Poly(f, {0: terms[()]})
            rows: dict = {}
            for e, c in terms.items():
                rows.setdefault(e[i], {})[e[:i]] = c
            exps = sorted(rows, reverse=True)
            acc = horner(rows[exps[0]], i - 1)
            if not exps[0]:
                return acc
            x = values[self.vars[i]]
            for hi, lo in zip(exps, exps[1:]):
                acc = acc * x ** (hi - lo) + horner(rows[lo], i - 1)
            return acc * x ** exps[-1] if exps[-1] else acc

        if self.is_zero:
            return Poly.zero(f)
        return horner(self.coeffs, len(self.vars) - 1)

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


def _power_sums(b: list, n: int, top: int, field, s: list | None = None) -> list[Poly]:
    """s_0, ..., s_top of the roots of t^n + sum_i b_i t^(n-i), b = [(i, b_i)]
    with b_i in K[X], by Newton's identities (no division); a list s of
    the first power sums is extended in place."""
    b = [(i, bi) for i, bi in b if not bi.is_zero]
    if s is None:
        s = [Poly.constant(n, field)]
    for j in range(len(s), top + 1):
        acc = Poly.zero(field)
        for i, bi in b:
            if i < j:
                acc = acc + bi * s[j - i]
            elif i == j:
                acc = acc + bi.scale(j)
        s.append(-acc)
    return s


def _elementary_symmetric(p: list[Poly], field) -> list[Poly]:
    """e_0, ..., e_n of n values from their power sums p_1, ..., p_n (p[0]
    unused); dividing by 1, ..., n needs characteristic 0 or above n."""
    n = len(p) - 1
    if 0 < field.char <= n:
        raise ValueError(
            f"characteristic {field.char} does not exceed the degree {n}")
    e = [Poly.constant(1, field)]
    for k in range(1, n + 1):
        acc = Poly.zero(field)
        for i in range(1, k + 1):
            term = e[k - i] * p[i]
            acc = acc + term if i % 2 else acc - term
        e.append(acc.scale(field.inv(field.coerce(k))))
    return e


def curve_resultant(f: Poly, g: Poly, vars=("x", "y")) -> MPoly:
    """Res_t(X - f(t), Y - g(t)), normalised monic in the second variable.

    This is the minimal polynomial F(X, Y) of the parametrised curve
    X = f(t), Y = g(t) when the parametrisation is proper (a power of it
    otherwise).  F is the characteristic polynomial of multiplication by g
    on K(X)[t]/(f(t) - X), that is F = prod_i (Y - g(tau_i)) over the n =
    deg f roots tau_i of f(t) = X, and it is computed from power sums
    without a matrix: with f(t) - X = c*(t^n + b_{n-1} t^{n-1} + ... + b_0)
    (only b_0 = (f_0 - X)/c involves X), Newton's identities give the
    power sums s_j of the tau_i in K[X] for j <= n*deg g; then the traces
    p_k = Tr(g^k) = sum_j [t^j]g^k * s_j for k <= n, and the elementary
    symmetric functions of the g(tau_i) from k*e_k = sum_{i=1}^{k}
    (-1)^(i-1) e_{k-i} p_i, so F = sum_k (-1)^k e_k Y^(n-k).  The last step
    divides by 1, ..., n, so the characteristic must be 0 or exceed deg f.
    The value equals :func:`resultant_eliminate` on the same pair.
    """
    check_same_field(f.field, g.field)
    field = f.field
    if f.is_zero or f.degree < 1:
        raise ValueError("first generator must have positive degree")
    n = int(f.degree)
    c_inv = field.inv(f.leading_coeff)
    # (i, b_{n-i}), as polynomials in X
    b = [(i, Poly.constant(f.coeff(n - i), field).scale(c_inv)) for i in range(1, n)]
    b.append((n, Poly(field, {0: f.coeff(0), 1: field.neg(field.one)}).scale(c_inv)))
    m = int(g.degree) if not g.is_zero else 0
    s = _power_sums(b, n, n * m, field)
    p = [Poly.zero(field)]
    gk = Poly.constant(1, field)
    add, mul, zero = field.add, field.mul, field.zero
    for _ in range(n):
        gk = gk * g
        tr: dict = {}
        get = tr.get
        for j, cj in gk.coeffs.items():
            for ex, c in s[j].coeffs.items():
                tr[ex] = add(get(ex, zero), mul(c, cj))
        p.append(Poly(field, tr))
    e = _elementary_symmetric(p, field)
    out = {}
    for k, ek in enumerate(e):
        for ex, c in ek.coeffs.items():
            out[(ex, n - k)] = field.neg(c) if k % 2 else c
    return MPoly(tuple(vars), field, out)


def eval_bipoly(G: MPoly, f: Poly, g: Poly) -> Poly:
    """Substitute X -> f, Y -> g into a polynomial in two variables."""
    check_same_field(f.field, g.field)
    check_same_field(G.field, f.field)
    if len(G.vars) != 2:
        raise ValueError("expected a polynomial in exactly two variables")
    return G.eval_univariate({G.vars[0]: f, G.vars[1]: g})
