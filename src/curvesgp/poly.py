"""Sparse univariate polynomials with exact coefficients.

A polynomial is a mapping exponent -> nonzero coefficient over one of the
fields in :mod:`curvesgp.fields`.  The support is the stored exponent set;
the order o(f) is its minimum and the degree d(f) its maximum.  Orders of
the zero polynomial are +infinity by convention, degrees -infinity, so
comparisons against conductors and bounds work without special cases.

Instances are immutable after construction and safe to share.  The
constructor puts every coefficient in the field's canonical form
(``field.coerce``: over Q an ``int`` when integral, else a ``Fraction``;
over GF(p) a residue; a float is a ``TypeError``) and drops the zeros, so
equal polynomials have equal dicts; ``Poly._of`` wraps results that are
already in that form.

Products run on integers in both fields.  One lift, ``_lift(field,
coeffs)``, serves both: over Q each operand becomes integer numerators over
one common denominator (the lcm of its denominators); over GF(p) the
residues, and over Q coefficients that are all ``int``, already are
integers and come back as they are, over 1.  One private kernel,
``_int_mul``, multiplies two such integer forms, reduces mod p over GF(p)
and drops zeros; ``Poly.__mul__`` rebuilds its result into one canonical
coefficient per output term, ``fields.rational(c, da*db)`` over Q (an
``int`` when da*db divides c, so integral operands build no ``Fraction``),
and the reduction step of :mod:`curvesgp.reduction` keeps it lifted.  This
module owns every update of that integer form, exponent -> nonzero int
(residues in [0, p) over GF(p)): ``_reduced`` reduces a dict mod p and
drops its zeros, and ``_sub_scaled`` subtracts a scaled dict in place; the
reduction step, the resultant kernel, Horner evaluation, the Miller
recurrence and the parser all call these two.

The integer product picks its path by one slot rule: a schoolbook double
loop on plain ints when the product has more than one exponent slot per
``_PAIRS_PER_SLOT`` term pairs #a * #b, as for short operands and for
sparse ones like (x^1009 + 1) * (x^1013 + x).  Otherwise each operand
is packed densely into one Python int, one coefficient per slot of w bits
(Kronecker substitution x -> 2^w: A. Schonhage, 1982; D. Harvey, *Faster
polynomial multiplication via multipoint Kronecker substitution*, J. Symb.
Comp. 44, 2009; FLINT's ``fmpz_poly_mul_KS``), and one big-integer
multiply gives the product.  Every product coefficient is a sum of at
most min(#a, #b) terms a_i b_j, so its absolute value is at most the
signed bound B = max|a| * max|b| * min(#a, #b) < 2^(w-1) for w =
bitlength(B) + 1, rounded up to whole bytes for ``int.to_bytes``.  A
negative coefficient borrows 2^w from the slot above, so unpacking reads
the slots from the lowest up, adds the borrow of the slot below, and
reads a value of at least 2^(w-1) as that value minus 2^w, passing a
borrow of 1 upward.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

from .fields import QQ, check_same_field, rational

# Products with more than one product slot to unpack per _PAIRS_PER_SLOT
# term pairs #a * #b stay on the schoolbook loop: a slot costs about as
# much as that many pairs.  As the slots number at least #a + #b - 1,
# packing needs #a * #b >= 240.
_PAIRS_PER_SLOT = 8


class Poly:
    """Sparse polynomial in one variable over an exact field."""

    __slots__ = ("field", "coeffs", "_exps")

    def __init__(self, field, coeffs: dict):
        """Each coefficient in the field's canonical form (``coerce``: an
        ``int`` when integral over Q, a residue over GF(p); a float is a
        ``TypeError``), zeros dropped."""
        self.field = field
        coerce = field.coerce
        self.coeffs = {e: v for e, c in coeffs.items() if (v := coerce(c))}
        self._exps = tuple(sorted(self.coeffs))

    @classmethod
    def _of(cls, field, coeffs: dict) -> "Poly":
        """Wrap a dict whose coefficients are known to be canonical and
        nonzero."""
        p = object.__new__(cls)
        p.field = field
        p.coeffs = coeffs
        p._exps = tuple(sorted(coeffs))
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, field=QQ) -> "Poly":
        return cls(field, {})

    @classmethod
    def constant(cls, value, field=QQ) -> "Poly":
        return cls(field, {0: value})

    @classmethod
    def x_power(cls, exp: int, field=QQ, coeff=1) -> "Poly":
        return cls(field, {exp: coeff})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, object]], field=QQ) -> "Poly":
        acc: dict = {}
        for exp, c in terms:
            if exp < 0:
                raise ValueError("negative exponent")
            acc[exp] = acc.get(exp, 0) + field.coerce(c)
        return cls(field, acc)

    # -- structure ---------------------------------------------------

    @property
    def support(self) -> tuple[int, ...]:
        return self._exps

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self):
        """min supp(f); +infinity for the zero polynomial."""
        return self._exps[0] if self._exps else math.inf

    @property
    def degree(self):
        """max supp(f); -infinity for the zero polynomial."""
        return self._exps[-1] if self._exps else -math.inf

    def coeff(self, exp: int):
        return self.coeffs.get(exp, 0)

    @property
    def trailing_coeff(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no trailing coefficient")
        return self.coeffs[self._exps[0]]

    @property
    def leading_coeff(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[self._exps[-1]]

    # -- arithmetic --------------------------------------------------

    def _termwise(self, other: "Poly", op) -> "Poly":
        """self op other term by term, for ``operator.add`` or
        ``operator.sub``; the constructor makes each result canonical."""
        check_same_field(self.field, other.field)
        acc = dict(self.coeffs)
        for e, c in other.coeffs.items():
            acc[e] = op(acc.get(e, 0), c)
        return Poly(self.field, acc)

    def __add__(self, other: "Poly") -> "Poly":
        return self._termwise(other, operator.add)

    def __neg__(self) -> "Poly":
        return Poly(self.field, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self._termwise(other, operator.sub)

    def __mul__(self, other: "Poly") -> "Poly":
        """Exact product through one integer product of the two operands:
        :func:`_int_mul` on the lifted forms, rebuilt once."""
        check_same_field(self.field, other.field)
        field = self.field
        if not self.coeffs or not other.coeffs:
            return Poly._of(field, {})
        a, da = _lift(field, self.coeffs)
        b, db = _lift(field, other.coeffs)
        return _unlift(field, _int_mul(a, b, field.char), da * db)

    def __pow__(self, n: int) -> "Poly":
        """Binary powering by :func:`_int_pow` on the lifted form."""
        if n < 0:
            raise ValueError("negative power")
        field = self.field
        if n == 0:
            return Poly.constant(1, field)
        if not self.coeffs:
            return self
        a, d = _lift(field, self.coeffs)
        return _unlift(field, _int_pow(a, n, field.char), d ** n)

    def scale(self, c) -> "Poly":
        c = self.field.coerce(c)
        return Poly(self.field, {e: v * c for e, v in self.coeffs.items()})

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k may be negative if all exponents allow it)."""
        if k < 0 and self._exps and self._exps[0] + k < 0:
            raise ValueError("shift would create negative exponents")
        return Poly(self.field, {e + k: c for e, c in self.coeffs.items()})

    def truncate(self, prec: int) -> "Poly":
        """Drop all terms of exponent >= prec."""
        return Poly(self.field, {e: c for e, c in self.coeffs.items() if e < prec})

    def derivative(self) -> "Poly":
        return Poly(self.field, {e - 1: c * e for e, c in self.coeffs.items() if e})

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    # -- display -----------------------------------------------------

    def __str__(self):
        return render_poly(self, "x")

    def __repr__(self):
        return f"Poly({self})"


def _lift(field, coeffs: dict) -> tuple[dict, int]:
    """(numerators, d): over Q, integer numerators over the lcm d of the
    denominators, in a new dict; over GF(p), and over Q when every
    coefficient is an ``int``, the dict itself (not copied) with d = 1.
    ``Poly`` and ``MPoly`` hold canonical coefficients, so their integral
    ones are ``int``s; an integral ``Fraction`` from a sum in the parser
    lifts over 1 like any other."""
    if field.char or all(type(c) is int for c in coeffs.values()):
        return coeffs, 1
    d = math.lcm(*[c.denominator for c in coeffs.values()])
    return {e: c.numerator * (d // c.denominator) for e, c in coeffs.items()}, d


def _integral_roots(b: list, char: int) -> tuple[list, int]:
    """(B, D) with B_i = D^i b_i: for b_1, ..., b_n in Q[X] (dicts exponent
    -> rational) and D the lcm of their denominators, the roots of
    t^n + sum_i B_i t^(n-i) are D times those of t^n + sum_i b_i t^(n-i),
    and every B_i is integral: the weighted form of :func:`_lift`.  Over
    GF(p), D = 1; zeros are dropped.  The resultant kernel of
    :mod:`curvesgp.mpoly` and ``planebranch._miller`` (U_i = D^i a_i) both
    scale their inputs this way."""
    D = 1 if char else math.lcm(*(c.denominator for bi in b for c in bi.values()))
    return [{e: c if char else c.numerator * (D ** i // c.denominator)
             for e, c in bi.items() if c} for i, bi in enumerate(b, 1)], D


def _unlift(field, coeffs: dict, d: int) -> Poly:
    """The polynomial coeffs / d, for nonzero integer coeffs (residues over
    GF(p), with d = 1); with d = 1 the polynomial keeps the dict itself, so
    the caller must not write to it afterwards."""
    if d == 1:
        return Poly._of(field, coeffs)
    return Poly._of(field, {e: rational(c, d) for e, c in coeffs.items()})


def _reduced(acc: dict, p: int) -> dict:
    """acc as a new dict with its coefficients reduced into [0, p) when p
    is nonzero, and its zero coefficients dropped."""
    if p:
        return {e: v for e, c in acc.items() if (v := c % p)}
    return {e: c for e, c in acc.items() if c}


def _sub_scaled(w: dict, b: int, q: dict, p: int) -> None:
    """w <- w - b q in place at the exponents of q, mod p when p is nonzero;
    zeros are deleted.  Precondition: b q has no zero term (b is nonzero,
    and nonzero mod p over GF(p), and q has no zero coefficient), so a sum
    that comes out zero had its exponent in w."""
    get = w.get
    for k, c in q.items():
        v = get(k, 0) - b * c
        if p:
            v %= p
        if v:
            w[k] = v
        else:
            del w[k]


def _int_mul(a: dict, b: dict, p: int) -> dict:
    """exponent -> nonzero integer coefficient of the product of two
    nonempty integer polynomials, reduced into [0, p) when p is nonzero.

    The schoolbook loop runs when the product has more than one slot per
    ``_PAIRS_PER_SLOT`` term pairs, Kronecker packing otherwise, as the
    module docstring sets out.  The slots number at least #a + #b - 1, so
    that count alone settles most short products before any min or max."""
    na, nb = len(a), len(b)
    if (na + nb - 1) * _PAIRS_PER_SLOT > na * nb:
        return _reduced(_schoolbook(a, b), p)
    alo, ahi = min(a), max(a)
    blo, bhi = min(b), max(b)
    slots = ahi - alo + bhi - blo + 1
    if slots * _PAIRS_PER_SLOT > na * nb:
        return _reduced(_schoolbook(a, b), p)
    bound = (max(map(abs, a.values())) * max(map(abs, b.values()))
             * min(na, nb))
    nbytes = (bound.bit_length() + 8) // 8
    prod = _unpack(_pack(a, alo, ahi, nbytes) * _pack(b, blo, bhi, nbytes),
                   alo + blo, slots, nbytes)
    return _reduced(prod, p) if p else prod


def _power(x, k: int, mul):
    """x^k, k >= 1, by binary powering from the base: the one powering
    loop, shared by integer polynomials, ``MPoly`` and ``SeriesApprox``."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def _int_pow(a: dict, k: int, p: int) -> dict:
    """a^k, k >= 1, for a nonempty integer polynomial a, by :func:`_power`
    on :func:`_int_mul` (reduced into [0, p) when p is nonzero)."""
    return _power(a, k, lambda u, v: _int_mul(u, v, p))


def _schoolbook(a: dict, b: dict) -> dict:
    """exponent -> integer coefficient of the product; zeros may remain."""
    acc: dict = {}
    get = acc.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2
    return acc


def _pack(coeffs: dict, lo: int, hi: int, nbytes: int) -> int:
    """sum_e c_e 2^(8 nbytes (e - lo)), each slot written as nbytes bytes."""
    zero = bytes(nbytes)
    pos = [zero] * (hi - lo + 1)
    neg = None
    for e, c in coeffs.items():
        if c > 0:
            pos[e - lo] = c.to_bytes(nbytes, "little")
        else:
            if neg is None:
                neg = [zero] * (hi - lo + 1)
            neg[e - lo] = (-c).to_bytes(nbytes, "little")
    value = int.from_bytes(b"".join(pos), "little")
    return value if neg is None else value - int.from_bytes(b"".join(neg), "little")


def _unpack(value: int, lo: int, slots: int, nbytes: int) -> dict:
    """Coefficients c_k with value = sum_k c_k 2^(w k), w = 8 nbytes and
    |c_k| < 2^(w-1), keyed by lo + k; a slot read as at least 2^(w-1) is
    negative and borrows 1 from the slot above."""
    sign = 1
    if value < 0:
        value, sign = -value, -1
    size = slots * nbytes
    buf = value.to_bytes(size, "little")
    read = int.from_bytes
    half = 1 << (8 * nbytes - 1)
    full = half << 1
    out = {}
    borrow = 0
    e = lo
    for i in range(0, size, nbytes):
        c = read(buf[i:i + nbytes], "little") + borrow
        if c >= half:
            c -= full
            borrow = 1
        else:
            borrow = 0
        if c:
            out[e] = sign * c
        e += 1
    return out


def _join_terms(terms) -> str:
    """The signed sum of (coefficient string, monomial) terms in the given
    order: a coefficient 1 is elided before a monomial, only a negative
    first term is signed, and no terms give ``"0"``."""
    parts = []
    for s, mono in terms:
        if mono:
            s = (mono if s == "1" else "-" + mono if s == "-1"
                 else f"{s}*{mono}")
        parts.append(s if not parts or s[0] == "-" else "+" + s)
    return "".join(parts) or "0"


def _render_terms(terms, var: str) -> str:
    """The rendering of (exponent, coefficient string) terms given in
    increasing exponent, highest first, in the variable var."""
    return _join_terms([(s, "" if e == 0 else var if e == 1 else f"{var}^{e}")
                        for e, s in reversed(terms)])


def render_poly(p: Poly, var: str) -> str:
    """GAP-style rendering, highest exponent first: ``-1/2*x^15+x^13``."""
    coeffs = p.coeffs
    return _render_terms([(e, str(coeffs[e])) for e in p.support], var)
