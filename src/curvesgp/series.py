"""Truncated power series: n-th roots, reversion, composition.

A :class:`SeriesApprox` is a polynomial known to agree with some series
modulo ``x^prec``; the stored part always has degree < prec.  These are the
carriers for the analytic change of variables that turns a curve generator
of order n into an exact n-th power of a new uniformiser.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .poly import Poly, _power


# the fields alone: a NamedTuple body cannot override __new__, which
# SeriesApprox needs to check prec and truncate poly
class _Series(NamedTuple):
    poly: Poly
    prec: int


class SeriesApprox(_Series):
    __slots__ = ()

    def __new__(cls, poly: Poly, prec: int):
        if prec < 1:
            raise ValueError("precision must be positive")
        return super().__new__(cls, poly.truncate(prec), prec)

    @property
    def field(self):
        return self.poly.field

    def coeff(self, k: int):
        return self.poly.coeff(k)

    def __add__(self, other: "SeriesApprox") -> "SeriesApprox":
        prec = min(self.prec, other.prec)
        return SeriesApprox(self.poly + other.poly, prec)

    def __sub__(self, other: "SeriesApprox") -> "SeriesApprox":
        prec = min(self.prec, other.prec)
        return SeriesApprox(self.poly - other.poly, prec)

    def __mul__(self, other: "SeriesApprox") -> "SeriesApprox":
        prec = min(self.prec, other.prec)
        return SeriesApprox(self.poly * other.poly, prec)

    def scale(self, c) -> "SeriesApprox":
        return SeriesApprox(self.poly.scale(c), self.prec)

    def truncated(self, prec: int) -> "SeriesApprox":
        return SeriesApprox(self.poly, min(prec, self.prec))

    def power(self, n: int) -> "SeriesApprox":
        """self^n, n >= 0, by :func:`poly._power` with each product
        truncated at ``prec``, so no term past the precision is formed
        beyond one product's worth."""
        if n < 0:
            raise ValueError("negative power")
        if n == 0:
            return SeriesApprox(Poly.constant(1, self.field), self.prec)
        return _power(self, n, mul)


def inverse_series(s: SeriesApprox) -> SeriesApprox:
    """1/s by Newton iteration; needs a unit constant term."""
    c0 = s.coeff(0)
    f = s.field
    if not c0:
        raise ZeroDivisionError("series has no inverse: zero constant term")
    v = SeriesApprox(Poly.constant(f.inv(c0), f), 1)
    two = Poly.constant(2, f)
    k = 1
    while k < s.prec:
        k = min(2 * k, s.prec)
        vk = SeriesApprox(v.poly, k)
        sv = (s.truncated(k)) * vk
        v = SeriesApprox(vk.poly * (two - sv.poly), k)
    return v


def nth_root_series(s: SeriesApprox, n: int) -> SeriesApprox:
    """g with g^n = s mod x^prec and g(0) = 1.

    Requires s(0) = 1.  One Newton iteration for g^n - s = 0 serves every
    field, each step doubling the precision (R. P. Brent and H. T. Kung,
    *Fast algorithms for manipulating formal power series*, J. ACM 25,
    1978); over GF(p), p | n is rejected.  This is the reference route of
    ``planebranch.reparametrize``, which runs J.C.P. Miller's recurrence
    instead.
    """
    if n < 1:
        raise ValueError("root index must be positive")
    f = s.field
    if s.coeff(0) != f.one:
        raise ValueError("series must have constant term 1")
    if f.char and n % f.char == 0:
        raise ValueError(f"characteristic {f.char} divides root index {n}")
    if n == 1:
        return s
    prec = s.prec
    g = SeriesApprox(Poly.constant(1, f), 1)
    k = 1
    while k < prec:
        k = min(2 * k, prec)
        gk = SeriesApprox(g.poly, k)
        gn1 = gk.power(n - 1)
        delta = (gn1 * gk - s.truncated(k)) * inverse_series(gn1.scale(f.coerce(n)))
        g = gk - delta
    return g


def compose_series(g: SeriesApprox, t: SeriesApprox) -> SeriesApprox:
    """g(t(x)), truncated; requires o(t) >= 1."""
    if not t.poly.is_zero and t.poly.order < 1:
        raise ValueError("inner series must have positive order")
    inner_order = t.poly.order if not t.poly.is_zero else 1
    prec = min(t.prec, g.prec * max(1, inner_order))
    f = g.field
    if g.poly.is_zero:
        return SeriesApprox(Poly.zero(f), prec)
    exps = list(reversed(g.poly.support))
    tp = t.truncated(prec)
    acc = SeriesApprox(Poly.constant(g.poly.coeffs[exps[0]], f), prec)
    for prev, nxt in zip(exps, exps[1:]):
        acc = acc * tp.power(prev - nxt)
        acc = acc + SeriesApprox(Poly.constant(g.poly.coeffs[nxt], f), prec)
    acc = acc * tp.power(exps[-1]) if exps[-1] else acc
    return acc


def reverse_series(u: SeriesApprox) -> SeriesApprox:
    """Compositional inverse: t with u(t(x)) = x mod x^prec.

    Requires o(u) = 1 with linear coefficient exactly 1.
    """
    f = u.field
    if u.poly.is_zero or u.poly.order != 1 or u.coeff(1) != f.one:
        raise ValueError("series must start with x (unit linear coefficient)")
    prec = u.prec
    x = Poly.x_power(1, f)
    t = SeriesApprox(x, 2)
    k = 2
    while k < prec:
        k = min(2 * k, prec)
        tk = SeriesApprox(t.poly, k)
        uk = u.truncated(k)
        ut = compose_series(uk, tk)
        du = uk.poly.derivative()
        dut = compose_series(SeriesApprox(du, k), tk)
        err = ut - SeriesApprox(x, k)
        t = tk - err * inverse_series(dut)
        t = SeriesApprox(t.poly, k)
    return SeriesApprox(t.poly, prec)
