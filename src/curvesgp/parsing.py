"""Expression parser for polynomial input.

Grammar (explicit ``*`` required, ``^`` binds tighter than unary minus):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" NUMBER)?
    atom   := NUMBER | NAME | "(" expr ")"

Division is only defined by nonzero constants, which is how rational
coefficients like ``-135/32*x^83`` are written.  A NUMBER has at most
``sys.get_int_max_str_digits()`` digits.  A character outside the grammar,
and then an over-long NUMBER, is reported before any error of the grammar.

One pass over the tokens of one ``re.findall``; a value is a plain dict,
exponent tuple -> coefficient.  A term folds its factors into one
coefficient and one exponent vector; coefficients stay integers until a
division, and each output term gets one canonical rational
(``fields.rational``: an ``int`` when integral, else a ``Fraction``; over
GF(p), one residue).  A sum of such terms may come out as a whole
``Fraction``; the ``Poly`` or ``MPoly`` built from the value puts it in
canonical form, so the reader only drops the zeros.  Sums of several
terms are multiplied and raised by the integer kernel of
:mod:`curvesgp.poly`, once a bound on the result's size stays within
``_SIZE_CAP`` bits (:meth:`_Reader.mul`).  Errors carry the offending
position in the input string, recomputed with the token pattern only once
an error is raised.
"""

from __future__ import annotations

import functools
import math
import re
import sys

from .fields import field_of_characteristic, rational
from .mpoly import MPoly
from .poly import Poly, _int_mul, _int_pow, _lift, _reduced
from .reduction import LimitExceeded

# The most bits that a product or power of sums in the input may hold, by
# the estimate of _Reader.mul: (N + 1)^2 for (x+1)^N, so (x+1)^2047 is the
# largest power of x+1 within it, parsed in about half a second
_SIZE_CAP = 1 << 22

_TOKEN = r"[-+*/^()]|[A-Za-z_]\w*|\d+"
_TOKENS = re.compile(_TOKEN)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Bad(Exception):
    """A parse error at a token index: (message, index)."""


class _Reader:
    """The grammar over one variable tuple and field, on token lists that
    end with the empty string."""

    def __init__(self, vars: tuple[str, ...], char: int):
        self.field = field_of_characteristic(char)
        self.p = self.field.char
        self.index = {v: k for k, v in enumerate(vars)}
        self.zero = (0,) * len(vars)

    def expr(self, toks: list[str], i: int) -> tuple[dict, int]:
        """The sum from token i, not yet reduced, and the index after it.
        A term is read as num/den * x^exps * poly, poly the product of its
        factors of several terms."""
        index, p, zero = self.index, self.p, self.zero
        acc, num = {}, 1
        while True:
            den, exps, poly, div = 1, list(zero), None, None
            while True:
                while toks[i] == "-":
                    num, i = -num, i + 1
                tok, i = toks[i], i + 1
                k = index.get(tok)
                if tok == "(":
                    value, i = self.expr(toks, i)
                    if toks[i] != ")":
                        raise _Bad("expected ')'", i)
                    i += 1
                elif tok.isdigit():
                    c = int(tok)
                elif k is None:
                    raise _Bad(f"unknown variable {tok!r}" if tok and tok not in ")+*/^"
                               else f"unexpected {tok or 'end of input'!r}", i - 1)
                e = 1
                if toks[i] == "^":
                    if not toks[i + 1].isdigit():
                        raise _Bad("exponent must be a nonnegative integer", i + 1)
                    e, i = int(toks[i + 1]), i + 2
                if k is not None:
                    if e and div is not None:
                        raise _Bad("division only by constants", div)
                    exps[k] += e
                else:
                    if tok != "(":
                        c = self.power({zero: c}, e).get(zero, 0)
                    elif (value := self.power(value, e)).keys() <= {zero}:
                        c = value.get(zero, 0)
                    elif div is not None:
                        raise _Bad("division only by constants", div)
                    elif len(value) > 1:
                        poly, c = value if poly is None else self.mul(poly, value), 1
                    else:
                        (mono, c), = value.items()
                        exps = [a + b for a, b in zip(exps, mono)]
                    if div is None and type(c) is int:
                        num *= c
                    elif div is None:
                        num, den = num * c.numerator, den * c.denominator
                    elif not c:
                        raise _Bad("division by zero", div)
                    else:
                        num, den = num * c.denominator, den * c.numerator
                if toks[i] != "*" and toks[i] != "/":
                    break
                div, i = (i if toks[i] == "/" else None), i + 1
            c = (num * pow(den, -1, p) % p if p
                 else num if den == 1 else rational(num, den))
            mono = tuple(exps)
            if poly is None:
                acc[mono] = acc[mono] + c if mono in acc else c
            else:
                for e, v in poly.items():
                    e, v = tuple([a + b for a, b in zip(e, mono)]), v * c
                    acc[e] = acc[e] + v if e in acc else v
            if toks[i] != "+" and toks[i] != "-":
                return acc, i
            num, i = 1 if toks[i] == "+" else -1, i + 1

    def power(self, value: dict, n: int) -> dict:
        """value^n with its terms reduced (``poly._reduced``); by
        ``_int_pow`` for n >= 2."""
        value = _reduced(value, self.p)
        if n == 0:
            return {self.zero: 1}
        return self.mul(value, None, n) if value and n > 1 else value

    def mul(self, a: dict, b: dict | None, n: int = 1) -> dict:
        """a*b, or a^n when b is None, for nonzero reduced values: exponent
        vectors packed in base w (as ``planebranch.approximate_root`` packs
        them), w - 1 the largest total degree of the result, and each side
        lifted to numerators over one denominator (as ``Poly.__mul__``).

        Before it multiplies, it bounds the result's size and raises
        :class:`LimitExceeded` past ``_SIZE_CAP`` bits.  With A and B the
        lifted numerators, each coefficient of A^n B is at most
        |A|_1^n |B|_1 in absolute value (and below p over GF(p)).  The
        terms number at most C(#a + n - 1, n) #b, and at most the product
        over the variables of (degree + 1), the degree of a^n b in each
        being n times a's plus b's."""
        other = b or {self.zero: 1}  # a^n is a^n * 1
        w = n * max(map(sum, a)) + max(map(sum, other)) + 1
        weights = [w ** k for k in range(len(self.zero))]

        def lift(value):
            return _lift(self.field, {sum([x * v for x, v in zip(e, weights)]): c
                                      for e, c in value.items()})

        def bits(lifted):  # ceil(log2 |lifted|_1)
            return (sum(map(abs, lifted.values())) - 1).bit_length()

        def degrees(value):
            return [max(column) for column in zip(*value)]

        (A, da), (B, db) = lift(a), lift(other)
        # past the cap, C(#a + n - 1, n) >= n + 1 need not be computed
        terms = len(B) * (n + 1 if len(A) > 1 and n > _SIZE_CAP
                          else math.comb(len(A) + n - 1, n))
        slots = math.prod(n * x + y + 1 for x, y in zip(degrees(a), degrees(other)))
        size = n * bits(A) + bits(B) + 1
        size = min(size, self.p.bit_length() or size) * min(terms, slots)
        if size > _SIZE_CAP:
            if b is not None:
                what = f"a product of sums of {len(a)} and {len(b)} terms"
            elif a.keys() == {self.zero}:
                what = f"a power ^{n} of a constant"
            elif len(a) == 1:
                what = f"a power ^{n} of a term"
            else:
                what = f"a power ^{n} of a sum of {len(a)} terms"
            raise LimitExceeded(
                f"{what} in the input would hold up to 2^{size.bit_length()} "
                f"bits, past the cap of 2^{_SIZE_CAP.bit_length() - 1}")
        prod = _int_pow(A, n, self.p) if b is None else _int_mul(A, B, self.p)
        d = da ** n * db
        return {tuple([x // v % w for v in weights]): rational(c, d)
                for x, c in prod.items()}

    def parse(self, text: str) -> dict:
        """exponent tuple -> nonzero coefficient of the polynomial text, put
        in canonical form by the ``Poly`` or ``MPoly`` built from it."""
        toks = _TOKENS.findall(text)
        if "".join(toks) != "".join(text.split()):
            scan = re.finditer(rf"({_TOKEN})|\S", text)
            bad = next(m for m in scan if m.group(1) is None)
            raise ParseError(f"unexpected character {bad.group()!r}", bad.start())
        toks.append("")
        cap = sys.get_int_max_str_digits()
        try:
            if cap and len(text) > cap:  # int() refuses a longer literal
                for i, t in enumerate(toks):
                    if len(t) > cap and t.isdigit():
                        raise _Bad(f"integer literal of {len(t)} digits exceeds "
                                   f"the limit of {cap} digits", i)
            value, i = self.expr(toks, 0)
            if toks[i]:
                raise _Bad(f"unexpected {toks[i]!r}", i)
        except _Bad as err:
            message, at = err.args
            starts = [m.start() for m in _TOKENS.finditer(text)] + [len(text)]
            raise ParseError(message, starts[at]) from None
        return _reduced(value, self.p)


_reader = functools.lru_cache(maxsize=16)(_Reader)


def parse_mpoly(text: str, vars: tuple[str, ...], char: int = 0) -> MPoly:
    reader = _reader(tuple(vars), char)
    return MPoly(vars, reader.field, reader.parse(text))


def parse_poly(text: str, char: int = 0) -> Poly:
    """Univariate parse; the variable may be named x or t, but not both."""
    return _univariate(_reader(("x", "t"), char), text)


def parse_poly_list(text: str, char: int = 0) -> list[Poly]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty polynomial list", 0)
    reader = _reader(("x", "t"), char)
    return [_univariate(reader, p) for p in parts]


def _univariate(reader: _Reader, text: str) -> Poly:
    value = reader.parse(text)
    if "t" in text and any(a for a, _ in value) and any(b for _, b in value):
        raise ParseError("use a single variable (x or t) per polynomial", 0)
    return Poly(reader.field, {a + b: c for (a, b), c in value.items()})
