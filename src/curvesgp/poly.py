"""Sparse univariate polynomials with exact coefficients.

A polynomial is a mapping exponent -> nonzero coefficient over one of the
fields in :mod:`curvesgp.fields`.  The support is the stored exponent set;
the order o(f) is its minimum and the degree d(f) its maximum.  Orders of
the zero polynomial are +infinity by convention, degrees -infinity, so
comparisons against conductors and bounds work without special cases.

Instances are immutable after construction and safe to share.

Products run on integers in both fields.  Over Q each operand is lifted to
integer numerators over one common denominator (the lcm of its
denominators); over GF(p) the residues already are integers.  One private
kernel, ``_int_mul``, multiplies two such integer forms, reduces mod p over
GF(p) and drops zeros; ``Poly.__mul__`` rebuilds its result into one
coefficient per output term, a ``Fraction(c, da*db)`` over Q, and the
reduction step of :mod:`curvesgp.reduction` keeps it lifted.

The integer product is a schoolbook double loop on plain ints for fewer
than ``_PACK_PAIRS`` term pairs #a * #b, and for operands too sparse to
pack: more than one exponent slot of the product per ``_PAIRS_PER_SLOT``
term pairs, as for (x^1009 + 1) * (x^1013 + x).  Otherwise each operand
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
from fractions import Fraction
from typing import Iterable

from .fields import QQ, check_same_field

# Products with fewer term pairs #a * #b stay on the schoolbook loop, and
# so do those with more than one product slot to unpack per
# _PAIRS_PER_SLOT term pairs: a slot costs about as much as that many pairs.
_PACK_PAIRS = 256
_PAIRS_PER_SLOT = 8


class Poly:
    """Sparse polynomial in one variable over an exact field."""

    __slots__ = ("field", "coeffs", "_exps")

    def __init__(self, field, coeffs: dict):
        self.field = field
        clean = {e: c for e, c in coeffs.items() if not field.is_zero(c)}
        self.coeffs = clean
        self._exps = tuple(sorted(clean))

    @classmethod
    def _of(cls, field, coeffs: dict) -> "Poly":
        """Wrap a dict whose coefficients are known to be nonzero."""
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
        return cls(field, {0: field.coerce(value)})

    @classmethod
    def x_power(cls, exp: int, field=QQ, coeff=1) -> "Poly":
        return cls(field, {exp: field.coerce(coeff)})

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, object]], field=QQ) -> "Poly":
        acc: dict = {}
        for exp, c in terms:
            if exp < 0:
                raise ValueError("negative exponent")
            c = field.coerce(c)
            acc[exp] = field.add(acc.get(exp, field.zero), c)
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
        return self.coeffs.get(exp, self.field.zero)

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

    def trailing_monomial(self) -> "Poly":
        """M_o(f), the lowest-order term."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        e = self._exps[0]
        return Poly(self.field, {e: self.coeffs[e]})

    def leading_monomial(self) -> "Poly":
        """M(f), the highest-degree term."""
        if self.is_zero:
            raise ValueError("zero polynomial")
        e = self._exps[-1]
        return Poly(self.field, {e: self.coeffs[e]})

    # -- arithmetic --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        check_same_field(self.field, other.field)
        acc = dict(self.coeffs)
        f = self.field
        for e, c in other.coeffs.items():
            acc[e] = f.add(acc.get(e, f.zero), c)
        return Poly(f, acc)

    def __neg__(self) -> "Poly":
        f = self.field
        return Poly(f, {e: f.neg(c) for e, c in self.coeffs.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        check_same_field(self.field, other.field)
        acc = dict(self.coeffs)
        f = self.field
        for e, c in other.coeffs.items():
            acc[e] = f.sub(acc.get(e, f.zero), c)
        return Poly(f, acc)

    def __mul__(self, other: "Poly") -> "Poly":
        """Exact product through one integer product of the two operands:
        :func:`_int_mul` on the lifted forms, rebuilt once."""
        check_same_field(self.field, other.field)
        field = self.field
        if not self.coeffs or not other.coeffs:
            return Poly._of(field, {})
        if field.char:
            return Poly._of(field, _int_mul(self.coeffs, other.coeffs, field.char))
        a, da = _lift(self.coeffs)
        b, db = _lift(other.coeffs)
        return _unlift(field, _int_mul(a, b, 0), da * db)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return Poly.constant(1, self.field) if result is None else result

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.coerce(c)
        return Poly(f, {e: f.mul(v, c) for e, v in self.coeffs.items()})

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k (k may be negative if all exponents allow it)."""
        if k < 0 and self._exps and self._exps[0] + k < 0:
            raise ValueError("shift would create negative exponents")
        return Poly(self.field, {e + k: c for e, c in self.coeffs.items()})

    def truncate(self, prec: int) -> "Poly":
        """Drop all terms of exponent >= prec."""
        return Poly(self.field, {e: c for e, c in self.coeffs.items() if e < prec})

    def derivative(self) -> "Poly":
        f = self.field
        return Poly(f, {e - 1: f.mul(c, f.coerce(e))
                        for e, c in self.coeffs.items() if e > 0})

    def substitute(self, g: "Poly") -> "Poly":
        """f(g(x)), by Horner over the sparse support."""
        check_same_field(self.field, g.field)
        if self.is_zero:
            return Poly.zero(self.field)
        exps = list(reversed(self._exps))
        acc = Poly(self.field, {0: self.coeffs[exps[0]]})
        for prev, nxt in zip(exps, exps[1:]):
            acc = acc * g ** (prev - nxt)
            acc = acc + Poly(self.field, {0: self.coeffs[nxt]})
        return acc * g ** exps[-1]

    def __eq__(self, other):
        return (isinstance(other, Poly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items()))))

    # -- normalisation -----------------------------------------------

    def monic_trailing(self) -> tuple["Poly", object]:
        """(f/a, a) for the trailing coefficient a, so M_o becomes x^o(f)."""
        if self.is_zero:
            raise ValueError("cannot normalise the zero polynomial")
        a = self.trailing_coeff
        f = self.field
        return self.scale(f.inv(a)), a

    def monic_leading(self) -> tuple["Poly", object]:
        """(f/a, a) for the leading coefficient a."""
        if self.is_zero:
            raise ValueError("cannot normalise the zero polynomial")
        a = self.leading_coeff
        f = self.field
        return self.scale(f.inv(a)), a

    # -- display -----------------------------------------------------

    def __str__(self):
        return render_poly(self, "x")

    def __repr__(self):
        return f"Poly({self})"


def _lift(coeffs: dict) -> tuple[dict, int]:
    """(numerators, d): integer numerators over the lcm d of the denominators."""
    d = math.lcm(*[c.denominator for c in coeffs.values()])
    if d == 1:
        return {e: c.numerator for e, c in coeffs.items()}, 1
    return {e: c.numerator * (d // c.denominator) for e, c in coeffs.items()}, d


def _unlift(field, coeffs: dict, d: int) -> Poly:
    """The polynomial coeffs / d, for nonzero integer coeffs (residues over
    GF(p), with d = 1); the dict is copied."""
    if field.char:
        return Poly._of(field, dict(coeffs))
    return Poly._of(field, {e: Fraction(c, d) for e, c in coeffs.items()})


def _int_mul(a: dict, b: dict, p: int) -> dict:
    """exponent -> nonzero integer coefficient of the product of two
    nonempty integer polynomials, reduced into [0, p) when p is nonzero.

    The schoolbook loop runs below ``_PACK_PAIRS`` term pairs or when the
    operands are too sparse to pack, Kronecker packing otherwise, as the
    module docstring sets out."""
    alo, ahi = min(a), max(a)
    blo, bhi = min(b), max(b)
    na, nb = len(a), len(b)
    slots = ahi - alo + bhi - blo + 1
    if na * nb < _PACK_PAIRS or slots * _PAIRS_PER_SLOT > na * nb:
        prod = _schoolbook(a, b)
        if not p:
            return {e: c for e, c in prod.items() if c}
    else:
        bound = (max(map(abs, a.values())) * max(map(abs, b.values()))
                 * min(na, nb))
        nbytes = (bound.bit_length() + 8) // 8
        prod = _unpack(_pack(a, alo, ahi, nbytes) * _pack(b, blo, bhi, nbytes),
                       alo + blo, slots, nbytes)
        if not p:
            return prod
    out = {}
    for e, c in prod.items():
        c %= p
        if c:
            out[e] = c
    return out


def _int_pow(a: dict, k: int, p: int) -> dict:
    """a^k, k >= 1, for a nonempty integer polynomial a, by binary
    powering on :func:`_int_mul` (reduced into [0, p) when p is nonzero)."""
    out = None
    while k:
        if k & 1:
            out = a if out is None else _int_mul(out, a, p)
        k >>= 1
        if k:
            a = _int_mul(a, a, p)
    return out


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


def _join_terms(field, terms) -> str:
    """The signed sum of (coefficient, monomial) terms in the given order:
    a coefficient 1 is elided before a monomial, only a negative first term
    is signed, and no terms give ``"0"``."""
    parts = []
    for c, mono in terms:
        s = field.coeff_str(c)
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        if mono:
            s = mono if s == "1" else f"{s}*{mono}"
        parts.append(("-" if neg else "+" if parts else "") + s)
    return "".join(parts) or "0"


def render_poly(p: Poly, var: str) -> str:
    """GAP-style rendering, highest exponent first: ``-1/2*x^15+x^13``."""
    return _join_terms(p.field, [
        (p.coeffs[e], "" if e == 0 else var if e == 1 else f"{var}^{e}")
        for e in reversed(p.support)])


# Operation aliases matching the mathematical vocabulary.

def order(f: Poly):
    """o(f) = min supp(f); o(0) = +infinity."""
    return f.order


def degree(f: Poly):
    """d(f) = max supp(f); d(0) = -infinity."""
    return f.degree


def mul(f: Poly, g: Poly) -> Poly:
    return f * g


def trailing_normalize(f: Poly) -> tuple[Poly, object]:
    return f.monic_trailing()
