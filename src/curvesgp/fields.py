"""Exact coefficient fields: the rationals and prime fields GF(p).

Coefficients are plain Python values; a field object bundles the
arithmetic so polynomials can stay agnostic of which field they live over.
Over GF(p) a coefficient is an ``int`` residue in ``[0, p)``.  Over Q it is
in one canonical form: an ``int`` when it is integral, and otherwise a
``fractions.Fraction`` in lowest terms with denominator > 1, never a
float.  So integral coefficients, the common case, cost only integer
arithmetic, as in FLINT's ``fmpq_poly`` (W. Hart, *Fast Library for Number
Theory: An Introduction*, ICMS 2010); :func:`rational` builds the form from
a numerator and a denominator.  All operations are exact; division by zero
raises ``ZeroDivisionError`` instead of producing any sentinel value.

Every coefficient a polynomial holds is canonical, so a field needs no
zero test or printer of its own: a coefficient is falsy exactly when it is
zero, and ``str`` writes it as the reports print it (``-1/2``, ``3``).
"""

from __future__ import annotations

from fractions import Fraction


class MixedFieldError(ValueError):
    """Operands belong to different coefficient fields."""


def rational(num: int, den: int):
    """num / den over Q in canonical form: an ``int`` when den divides num,
    else a ``Fraction`` in lowest terms."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


def _canonical(a):
    """A sum, difference or product of canonical rationals, or a parsed
    ``Fraction``, in canonical form: ``Fraction`` arithmetic can return a
    whole number."""
    return a if type(a) is int or a.denominator != 1 else a.numerator


class Rationals:
    """The field of rational numbers: ``int`` coefficients when integral,
    ``Fraction`` ones otherwise (module docstring)."""

    char = 0

    def coerce(self, value):
        if type(value) is int:
            return value
        if isinstance(value, int):
            return int(value)  # a bool becomes 0 or 1
        if isinstance(value, Fraction):
            return _canonical(value)
        if isinstance(value, str):
            return _canonical(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into the rationals")

    zero = 0
    one = 1

    def add(self, a, b):
        return _canonical(a + b)

    def sub(self, a, b):
        return _canonical(a - b)

    def mul(self, a, b):
        return _canonical(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return rational(a.denominator, a.numerator)

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return rational(a.numerator * b.denominator, a.denominator * b.numerator)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


# Miller-Rabin to the prime bases 2, ..., 41 is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin in integer arithmetic, for p < _MR_BOUND."""
    if p >= _MR_BOUND:
        raise ValueError(f"cannot certify {p} as prime: the test is exact "
                         f"only below {_MR_BOUND}")
    if p in _MR_BASES or p < 2 or p % 2 == 0:
        return p in _MR_BASES
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:  # a base sharing a factor with p finds it composite
        xs = [pow(a, d << i, p) for i in range(r)]
        if xs[0] != 1 and p - 1 not in xs:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p; residues stored as ints in [0, p)."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return value.numerator * self.inv(value.denominator % self.p) % self.p
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise TypeError(f"cannot coerce {value!r} into GF({self.p})")

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)


def field_of_characteristic(char: int):
    """Field for a CLI ``--char`` value: 0 gives the rationals."""
    if char == 0:
        return QQ
    return PrimeField(char)


def check_same_field(a, b):
    if a != b:
        raise MixedFieldError(f"mixed coefficient fields: {a!r} and {b!r}")
