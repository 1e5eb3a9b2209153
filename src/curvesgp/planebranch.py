"""Two-generator pipelines: gcd descent, approximate roots, delta-sequences.

For K[[f, g]] the semigroup of orders comes out of the gcd descent (the
Newton-Puiseux data) on g in a uniformiser turning f into an exact n-th
power, read one coefficient at a time.  For K[f, g] the semigroup of
degrees comes out of the resultant curve F(X, Y) through its approximate
roots; the same descent on intersection numbers also applies to a bare
polynomial F believed to have one place at infinity, and failure of the
delta-sequence conditions refutes that.  All approximate roots come from
one descent, :func:`_descend`, which takes the value of a root as a
function: the degree or the order of G(f, g), or an intersection number.

All three pipelines read the semigroup off one arrangement type,
:class:`CharSequence`: the r_k with their gcd chain d_k, ratios e_k and
conductor, plus the Newton-Puiseux exponents m_k when a local descent
produced them; the semigroup itself is the shared table of
``numsgp._monoid``.  Every pipeline on a pair normalises it by the basis
loop's own :func:`reduction.basis_element` (monic at the term that
carries the value) in :func:`_ordered_pair`; :func:`local_pipeline`
normalises a local pair once and picks its pipeline from the result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice
from typing import Iterator, NamedTuple, Sequence

from .fields import check_same_field
from .mpoly import (MPoly, _add_product, _integral_roots, _integral_values,
                    _symmetric_of_values, curve_resultant, eval_bipoly)
from .numsgp import NumSgp, _monoid, gcd_chain, is_free
from .poly import Poly
from .reduction import LimitExceeded, basis_element, value_of


class NotOnePlaceAtInfinity(ValueError):
    """The gcd descent or the delta-sequence conditions failed."""


PRECISION_CAP = 2 ** 14


class CharSequence(NamedTuple):
    """An arrangement r_0, ..., r_h with its gcd chain d_1 = r_0, ...,
    d_{h+1} = 1 (d_{k+1} = gcd(d_k, r_k)) and ratios e_k = d_k / d_{k+1}.

    Zariski's characteristic sequence of a local branch carries the
    Newton-Puiseux exponents m_k of its descent; since gcd(d_k, r_k) =
    gcd(d_k, m_k), the chain read off r is the descent's own.  An
    Abhyankar-Moh delta-sequence at infinity has no m (None).
    """

    r: tuple[int, ...]  # r_0 .. r_h
    m: tuple[int, ...] | None = None

    @property
    def d(self) -> tuple[int, ...]:
        return tuple(gcd_chain(self.r))

    @property
    def e(self) -> tuple[int, ...]:
        d = self.d
        return tuple(d[k] // d[k + 1] for k in range(self.h))

    @property
    def h(self) -> int:
        return len(self.r) - 1

    @property
    def conductor(self) -> int:
        """C = sum (e_k - 1) r_k - r_0 + 1."""
        r = self.r
        return sum((e - 1) * r[k] for k, e in enumerate(self.e, 1)) - r[0] + 1


def char_sequence_from_support(n: int, supp: Sequence[int]) -> CharSequence:
    """Run the gcd descent m_k = inf { i in supp : d_k does not divide i }."""
    supp = sorted(set(supp))
    if n < 1 or not supp:
        raise ValueError("need a positive order and a nonempty support")
    ds = [n]
    ms: list[int] = []
    while ds[-1] != 1:
        d = ds[-1]
        m = next((i for i in supp if i % d), None)
        if m is None:
            raise ValueError(
                f"gcd descent stalls at {d}: support has no exponent outside {d}*N")
        ms.append(m)
        ds.append(math.gcd(d, m))
    rs = [n, *ms[:1]]
    for k in range(2, len(ms) + 1):
        rs.append(rs[k - 1] * (ds[k - 2] // ds[k - 1]) + ms[k - 1] - ms[k - 2])
    seq = CharSequence(tuple(rs), tuple(ms))
    # sanity: the products r_k d_k must increase in the local ordering
    for k in range(1, seq.h):
        assert seq.r[k] * seq.d[k - 1] < seq.r[k + 1] * seq.d[k]
    return seq


def delta_check(r: Sequence[int]) -> bool:
    """The delta-sequence conditions on an arrangement (r_0, ..., r_h).

    (1) the gcd chain descends strictly to 1, (2) the products r_k d_k
    strictly decrease, (3) e_k r_k lies in the monoid of the prefix, that
    is the arrangement is free (:func:`numsgp.is_free`).
    """
    r = list(r)
    if not r or any(x <= 0 for x in r):
        return False
    ds = gcd_chain(r)
    if ds[-1] != 1:
        return False
    for k in range(1, len(ds)):
        if ds[k] >= ds[k - 1]:
            return False
    for k in range(2, len(r)):
        if r[k] * ds[k - 1] >= r[k - 1] * ds[k - 2]:
            return False
    return is_free(_monoid(tuple(r)), r)


def delta_sequence(r: Sequence[int]) -> CharSequence:
    if not delta_check(r):
        raise NotOnePlaceAtInfinity(f"{tuple(r)} is not a delta-sequence")
    return CharSequence(tuple(r))


def _ordered_pair(f: Poly, g: Poly, setting: str) -> tuple[Poly, Poly]:
    """f and g over one field of characteristic zero, each made a
    :func:`reduction.basis_element` of the setting, in the order of their
    values (the larger degree first globally; f first on a tie)."""
    check_same_field(f.field, g.field)
    if f.field.char != 0:
        raise ValueError("the plane-branch pipeline needs characteristic zero")
    sign = 1 if setting == "local" else -1
    f, g = (b.poly for b in sorted((basis_element(f, setting),
                                     basis_element(g, setting)),
                                    key=lambda b: sign * b.value))
    return f, g


# -- local pipeline ----------------------------------------------------


def _miller(a: Sequence[dict], alpha: Fraction, N: int) -> list[tuple[dict, int]]:
    """(N_j, s_j) for j < N, with v_j = N_j / s_j the coefficients of
    (1 + sum_i a_i z^i)^alpha, on integers.

    a lists a_1, a_2, ... as polynomials in one variable over Q (dicts
    exponent -> Fraction; a scalar sits at exponent 0).  They are scaled
    as ``mpoly._integral_roots`` scales them, to the integral U_i = D^i a_i,
    D the lcm of their denominators.  The J.C.P. Miller recurrence
    j v_j = sum_{i=1}^{j} ((alpha + 1) i - j) a_i v_{j-i} divides by j and
    by the denominator b of alpha; both divisions are deferred into
    s_j = b^j j! D^j.  Multiplied by b^(j-1) (j-1)! D^j, and with the
    integer k = b (alpha + 1), it becomes
    N_j = sum_i (k i - b j) b^(i-1) (j-1)!/(j-i)! U_i N_{j-i},
    N_0 = 1, with every product a ``poly._int_mul`` and no division; the
    caller divides each N_j by s_j once (characteristic zero).
    """
    U, D = _integral_roots(a, 0)
    u = [(i, Ui) for i, Ui in enumerate(U, 1) if Ui]
    b = alpha.denominator
    k = alpha.numerator + b
    out = [({0: 1}, 1)]
    s = 1
    for j in range(1, N):
        acc: dict = {}
        w, t = 1, 1  # w = b^(t-1) (j-1)!/(j-t)!
        for i, Ui in u:
            if i > j:
                break
            while t < i:
                w *= b * (j - t)
                t += 1
            c = (k * i - b * j) * w
            if c:
                _add_product(acc, Ui, out[j - i][0], 0, c)
        s *= b * j * D
        out.append(({e: c for e, c in acc.items() if c}, s))
    return out


def _right_factor(f: Poly, g: Poly) -> Poly | None:
    """The common right composition factor q of f and g (f = F(q),
    g = G(q)) of largest degree above 1, monic with q(0) = 0, or None.

    By Lüroth's theorem K(f, g) = K(q) for a polynomial q, and q is the
    common right factor of largest degree (Schinzel, Polynomials with
    Special Regard to Reducibility, 2000, ch. 1); a smaller one may have
    ord(q' - q'(0)) = 1 while q has more, so the degrees r dividing both
    degrees are tried largest first.  In characteristic zero a right factor
    of degree r is, up to an additive constant, the polynomial part of
    f^(r/deg f) for f made monic (Kozen and Landau, J. Symb. Comp. 7,
    1989), that is the :func:`approximate_root` App_{n/r}(f) of f as a
    polynomial in one variable, without its constant term.  The candidate
    is a factor when f and g expand in its powers, that is when cancelling
    leading terms never meets a degree that r does not divide.
    """
    f = basis_element(f, "global").poly
    n, m = f.degree, math.gcd(f.degree, g.degree)
    F = MPoly.from_poly(f, ("y",), "y")
    for r in (r for r in range(m, 1, -1) if m % r == 0):
        root = approximate_root(F, n // r)
        q = Poly(f.field, {e: c for (e,), c in root.coeffs.items() if e})
        for h in (f, g):
            while h.degree > 0 and h.degree % r == 0:
                h = h - (q ** (h.degree // r)).scale(h.leading_coeff)
            if h.degree > 0:
                break
        else:
            return q
    return None


def _lagrange_coeffs(f: Poly, g: Poly) -> Iterator:
    """[s^0], [s^1], ... of :func:`reparametrize`, untruncated: [s^k]
    reads f and g only below t^k."""
    zero = f.field.zero
    n = int(f.order)
    a = [{0: f.coeffs.get(n + i, 0)} for i in range(1, int(f.degree) - n + 1)]
    dg = sorted(g.derivative().coeffs.items())
    yield g.coeff(0)
    for k in count(1):
        terms = [(e, c) for e, c in dg if e < k]
        if not terms:
            yield zero
            continue
        v = _miller(a, Fraction(-k, n), k - terms[0][0])
        total = zero
        for e, c in terms:
            N, s = v[k - 1 - e]
            total += c * Fraction(N.get(0, 0), s)
        yield total / k


def reparametrize(f: Poly, g: Poly, prec: int) -> Poly:
    """g rewritten in the uniformiser that turns f into an exact n-th power.

    With s(t) = t * (f/t^n)^(1/n) and t(s) its reverse, the result is the
    Poly g(t(s)) mod s^prec, so that K[[f, g]] = K[[s^n, result]].  By
    Lagrange inversion (t = s * u(t)^(-1/n) with u = f/t^n, u(0) = 1),
    [s^k] g(t(s)) = (1/k) [t^(k-1)] g'(t) u(t)^(-k/n) for k >= 1, and
    [s^0] = g(0); each u^(-k/n) comes from :func:`_miller`, linear in the
    support of u.  Both divide by arbitrary integers, so the field must
    have characteristic zero.  The value equals
    ``compose_series(g, reverse_series(s)).poly``.
    """
    if f.is_zero:
        raise ValueError("zero first generator")
    field = f.field
    if field.char != 0:
        raise ValueError("reparametrisation needs characteristic zero")
    n = int(f.order)
    if n < 1:
        raise ValueError("first generator must have positive order")
    if f.trailing_coeff != field.one:
        raise ValueError("first generator must have trailing coefficient 1")
    if prec < 1:
        raise ValueError("precision must be positive")
    return Poly(field, dict(enumerate(islice(_lagrange_coeffs(f, g), prec))))


def gamma_local_pair(f: Poly, g: Poly) -> tuple[NumSgp, CharSequence]:
    """Semigroup of orders of K[[f, g]] via the Newton-Puiseux descent.

    The descent reads the coefficients of :func:`reparametrize` one at a
    time (for a monomial f, g's own support) and stops at d = 1 (its
    minima increase, so later ones cannot move it).  It gets there exactly
    when t -> (f, g) parametrises its branch primitively, which is decided
    first.  By Lüroth's theorem f = F(q) and g = G(q) for the q of
    :func:`_right_factor` (q = t if there is none), and y -> (F, G) is
    birational onto its image, so it parametrises each branch primitively;
    the semigroup therefore has gcd e = ord(q - q(0)), which divides both
    orders.  If e > 1 this raises ValueError naming q and e.  If e = 1 the
    descent ends below precision (D - 1)^2 + 1, D = max(deg f, deg g):
    the branch lies on a rational plane curve of degree at most D, whose
    delta invariant is at most (D - 1)(D - 2)/2 (genus formula, Fulton,
    Algebraic Curves, ch. 8), and Zariski's formula for the conductor
    c = 2 delta = sum (d_k - d_{k+1}) m_k - n + 1 bounds the last
    characteristic exponent by c + n - 1.  Reaching ``PRECISION_CAP``
    first raises LimitExceeded.
    """
    return _gamma_local(*_ordered_pair(f, g, "local"))


def _require_primitive(f: Poly, g: Poly) -> None:
    """Raise ValueError naming q and e when the q of :func:`_right_factor`
    has order e > 1, that is when t -> (f, g) is not primitive."""
    q = _right_factor(f, g)
    if q is not None and q.order > 1:
        raise ValueError(f"f and g are polynomials in q = {q} of order e = {q.order}: "
                         "t -> (f, g) is not a primitive parametrisation")


def _gamma_local(f: Poly, g: Poly) -> tuple[NumSgp, CharSequence]:
    """:func:`gamma_local_pair` on a pair :func:`_ordered_pair` has
    normalised."""
    n = int(f.order)
    if math.gcd(n, g.order) > 1:
        _require_primitive(f, g)
    # every d_k divides n, so n never moves the descent; for a monomial f
    # s = t, and g's own support (however sparse) completes it at once
    supp = [n, *g.support] if len(f.support) == 1 else [n]
    d = math.gcd(*supp)
    for k, c in enumerate(_lagrange_coeffs(f, g)):
        if d == 1:
            seq = char_sequence_from_support(n, supp)
            return _monoid(seq.r), seq
        if k >= PRECISION_CAP:
            raise LimitExceeded(
                f"gcd descent stalls at {d} at precision {k} (PRECISION_CAP)")
        if not f.field.is_zero(c):
            supp.append(k)
            d = math.gcd(d, k)


# -- approximate roots -------------------------------------------------


def approximate_root(F: MPoly, d: int, var: str = "y") -> MPoly:
    """App_d(F): the one monic G of degree q = n/d in ``var`` with
    deg(F - G^d) < n - q, n = deg F (Abhyankar-Moh, 1973).

    With F = y^n (1 + sum_{i>=1} a_i y^(-i)), G is the polynomial part
    sum_{j=0}^{q} v_j y^(q-j) of F^(1/d) in K[x]((y^(-1))), where
    v = (1 + sum_i a_i z^i)^(1/d) comes from :func:`_miller`
    (characteristic zero).  Then F^(1/d) = G + R with
    deg R < 0, so F - G^d = sum_{k>=1} C(d, k) G^(d-k) R^k has degree at
    most (d - 1) q - 1 < n - q.  And only one monic G of degree q does: for
    two, G^d - G'^d = (G - G') (d y^((d-1)q) + lower) has degree at least
    (d - 1) q = n - q unless G = G'.

    The a_i, i <= q, are read in one pass over F, with the other variables
    packed into one exponent in base w = q m + 1, m the largest exponent
    in F (Kronecker substitution): every term :func:`_miller` forms is a
    product of at most q of the a_i, so no exponent reaches w.  The
    recurrence runs on integers, and each coefficient of v_j is divided
    once, by its s_j = d^j j! D^j, when G is rebuilt.
    """
    if F.field.char != 0:
        raise ValueError("approximate roots need characteristic zero")
    n = F.degree_in(var)
    if n <= 0:
        raise ValueError("input must involve the root variable")
    if F.coeff_in(var, n) != MPoly.constant(F.vars, 1, F.field):
        raise ValueError(f"input must be monic in {var}")
    if d < 1 or n % d:
        raise ValueError(f"{d} does not divide the {var}-degree {n}")
    q = n // d
    r = F.vars.index(var)
    w = q * max(map(max, F.coeffs)) + 1
    weights = [w ** k for k in range(len(F.vars) - 1)]
    a: list = [{} for _ in range(q)]
    for e, c in F.coeffs.items():
        if n - q <= e[r] < n:
            rest = e[:r] + e[r + 1:]
            a[n - 1 - e[r]][sum(x * wk for x, wk in zip(rest, weights))] = c
    coeffs = {}
    for j, (N, s) in enumerate(_miller(a, Fraction(1, d), q + 1)):
        for packed, c in N.items():
            exp = []
            for _ in weights:
                packed, x = divmod(packed, w)
                exp.append(x)
            exp.insert(r, q - j)
            coeffs[tuple(exp)] = Fraction(c, s)
    return MPoly(F.vars, F.field, coeffs)


# -- global pipelines --------------------------------------------------


def intersection_degree(F: MPoly, G: MPoly) -> int:
    """int(F, G) = deg_x Res_y(F, G), for F monic in y.

    Res_y(F, G) = prod_i G(y_i) over the roots y_i of F is the E_n of the
    values G(y_i), found by the integer kernel of :func:`curve_resultant`.
    """
    return _intersection_numbers(F)(G)


def _intersection_numbers(F: MPoly):
    """G -> int(F, G) of :func:`intersection_degree`, for one F and many G.

    F is scaled as in :func:`curve_resultant`, by the lcm D of the
    denominators of its y-coefficients in Q[x], and each G to the integral
    L D^m G(x, y/D), m = deg_y G; that multiplies Res_y(F, G) by a nonzero
    constant, so the degree is deg_x E_n.  G is packed into one exponent
    ey*W + ex with W = n deg_x G + 1, which no power G^k, k <= n, overflows
    (Kronecker substitution), so its powers are plain integer products.
    The integer power sums of the scaled roots of F are kept in one list,
    extended as far as the y-degree of each G needs.
    """
    field = F.field
    n = F.degree_in("y")
    if F.vars != ("x", "y") or F.coeff_in("y", n) != MPoly.constant(F.vars, 1, field):
        raise ValueError("the first curve must be in (x, y) and monic in y")
    b: list = [{} for _ in range(n)]
    for (ex, ey), c in F.coeffs.items():
        if ey < n:
            b[n - 1 - ey][ex] = c
    B, D = _integral_roots(b, field.char)
    s: list = []

    def value(G: MPoly) -> int:
        w = n * max(G.degree_in("x"), 0) + 1
        h, _ = _integral_values({ey * w + ex: c for (ex, ey), c in G.coeffs.items()},
                                w, D, field.char)
        res = _symmetric_of_values(B, h, w, field.char, s)[n]
        if not res:
            raise ValueError("the two curves share a component")
        return max(res)

    return value


def _normalize_global_pair(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """f and g monic, f of the larger degree (f first on a tie), and g
    then cleared of f's degree."""
    f, g = _ordered_pair(f, g, "global")
    while not g.is_zero and g.degree == f.degree:
        g = g - f.scale(g.leading_coeff)
    if g.is_zero or g.degree <= 0:
        raise ValueError("generators are algebraically dependent in degree 1")
    return f, basis_element(g, "global").poly


class PlaneResult(NamedTuple):
    semigroup: NumSgp
    sequence: CharSequence
    curve: MPoly                # F(x, y)
    roots: list[MPoly]          # approximate roots G_1, G_2, ...
    evaluated: list[Poly]       # g_k = G_k(f, g) when a parametrisation exists
    generators: list[Poly]      # normalised f, g when a parametrisation exists


def _descend(F: MPoly, value) -> tuple[list[int], list[MPoly]]:
    """r_0 = deg_y F, then r_k = value(App_{d_k}(F)) with d_0 = r_0 and
    d_{k+1} = gcd(d_k, r_{k+1}) until d reaches 1; returns the r_k, roots.

    ``value`` is the valuation the pipeline reads the semigroup in: the
    degree or the order of G(f, g), or an intersection number."""
    d = F.degree_in("y")
    rs = [d]
    roots: list[MPoly] = []
    while d != 1:
        G = approximate_root(F, d)
        rk = value(G)
        nxt = math.gcd(d, rk)
        if nxt == d:
            raise NotOnePlaceAtInfinity(
                f"gcd descent stalls at {d} (int value {rk})")
        rs.append(rk)
        roots.append(G)
        d = nxt
    return rs, roots


def _descend_pair(f: Poly, g: Poly, setting: str
                  ) -> tuple[list[int], MPoly, list[MPoly], list[Poly]]:
    """:func:`_descend` on the resultant curve F of (f, g), each root G
    valued by ``reduction.value_of(G(f, g), setting)``; returns the r_k, F,
    the roots and the G(f, g)."""
    F = curve_resultant(f, g)
    evaluated: list[Poly] = []

    def value(G: MPoly) -> int:
        evaluated.append(eval_bipoly(G, f, g))
        return value_of(evaluated[-1], setting)

    rs, roots = _descend(F, value)
    return rs, F, roots, evaluated


def gamma_at_infinity(f: Poly, g: Poly) -> PlaneResult:
    """Degree semigroup of K[f, g] via approximate roots of the resultant.

    The value of a root G is deg G(f, g).  A parametrisation that is not
    proper, with [K(t):K(f, g)] = deg q > 1 for the q of
    :func:`_right_factor`, raises ValueError naming q.  A proper one makes
    the resultant irreducible, so no approximate root, of y-degree below
    deg_y F, vanishes at (f, g).
    """
    f, g = _normalize_global_pair(f, g)
    q = _right_factor(f, g)
    if q is not None:
        raise ValueError(f"parametrisation is not proper: f and g are "
                         f"polynomials in q = {q}")
    rs, F, roots, evaluated = _descend_pair(f, g, "global")
    seq = delta_sequence(rs)
    return PlaneResult(_monoid(seq.r), seq, F, roots, evaluated, [f, g])


def gamma_curve_infinity(F: MPoly) -> PlaneResult:
    """Degree semigroup of a plane curve with one place at infinity.

    Only the necessary delta-sequence conditions are checked; when they
    fail the input cannot have one place at infinity and the error says
    so.  The value of a root G is the intersection number int(F, G) of
    :func:`intersection_degree`.
    """
    if F.field.char != 0:
        raise ValueError("the plane-branch pipeline needs characteristic zero")
    n = F.degree_in("y")
    if n <= 0:
        raise ValueError("curve must involve y")
    lead = F.coeff_in("y", n)
    if not lead.is_constant():
        raise NotOnePlaceAtInfinity("leading y-coefficient is not a unit")
    F = F.scale(F.field.inv(lead.constant_value()))
    rs, roots = _descend(F, _intersection_numbers(F))
    seq = delta_sequence(rs)
    return PlaneResult(_monoid(seq.r), seq, F, roots, [], [])


# -- local pipeline with roots (monomial first generator) ---------------


def plane_local(f: Poly, g: Poly) -> PlaneResult:
    """Local two-generator pipeline with explicit approximate roots.

    The pair is normalised as in :func:`gamma_local_pair`, after which f
    must be a monomial x^n, of order below g's (reach that situation
    through :func:`reparametrize` otherwise).  The descent of
    :func:`_descend` on the orders of the G_k(f, g) then yields the
    characteristic sequence that g's support gives, and the
    g_k = G_k(f, g) realise its r_k as orders, giving a concrete basis of
    K[[f, g]].  When n and g's support share a factor, f and g are
    polynomials in some x^e, e > 1, and the ValueError of
    :func:`gamma_local_pair` names q and e.
    """
    return _plane_local(*_ordered_pair(f, g, "local"))


def _plane_local(f: Poly, g: Poly) -> PlaneResult:
    """:func:`plane_local` on a pair :func:`_ordered_pair` has normalised."""
    if len(f.support) != 1:
        raise ValueError("first generator must be a monomial x^n")
    n = int(f.order)
    if n == g.order:
        raise ValueError("need o(f) < o(g) for the monomial pipeline")
    if math.gcd(n, *g.support) > 1:
        _require_primitive(f, g)
    seq = char_sequence_from_support(n, g.support)
    rs, F, roots, evaluated = _descend_pair(f, g, "local")
    if tuple(rs) != seq.r:
        raise RuntimeError(f"approximate roots give the orders {rs}, "
                           f"the support of g gives {list(seq.r)}")
    return PlaneResult(_monoid(seq.r), seq, F, roots, evaluated, [f, g])


def local_pipeline(f: Poly, g: Poly) -> PlaneResult | tuple[NumSgp, CharSequence]:
    """K[[f, g]] through the pipeline its pair calls for, normalised once:
    :func:`plane_local` (with F and the approximate roots) when the
    normalised f is a monomial of order below g's, :func:`gamma_local_pair`
    otherwise.  So the choice does not depend on the order of the pair or
    on constant terms."""
    f, g = _ordered_pair(f, g, "local")
    if len(f.support) == 1 and f.order < g.order:
        return _plane_local(f, g)
    return _gamma_local(f, g)
