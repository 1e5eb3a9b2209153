"""Reference routes kept for the tests.

``parse_mpoly``, ``parse_poly`` and ``parse_poly_list`` below are the
recursive-descent parser that ``curvesgp.parsing`` replaced: one token
record per lexeme, and one ``MPoly`` of field elements per atom, power,
product and sum.  The differential test in ``test_parsing.py`` holds the
package's one-pass integer parser to the values, exception types,
messages and positions of this one.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from curvesgp.fields import field_of_characteristic
from curvesgp.mpoly import MPoly
from curvesgp.parsing import ParseError
from curvesgp.poly import Poly


class Token(NamedTuple):
    kind: str
    value: str
    pos: int


_TOKEN_RE = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()])")


def tokenize(text: str) -> list[Token]:
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        tokens.append(Token(kind, m.group(), i))
        i = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], vars: tuple[str, ...], field):
        self.tokens = tokens
        self.i = 0
        self.vars = vars
        self.field = field

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> Token:
        tok = self.peek()
        if tok.kind != "op" or tok.value != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    def parse(self) -> MPoly:
        value = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.value!r}", tok.pos)
        return value

    def expr(self) -> MPoly:
        """One coefficient dict per sum, built into an MPoly once: adding
        MPoly values term by term copies the sum so far at every sign."""
        f = self.field
        acc = dict(self.term().coeffs)
        while self.peek().kind == "op" and self.peek().value in "+-":
            combine = f.add if self.advance().value == "+" else f.sub
            for e, c in self.term().coeffs.items():
                acc[e] = combine(acc.get(e, f.zero), c)
        return MPoly(self.vars, f, acc)

    def term(self) -> MPoly:
        value = self.factor()
        while self.peek().kind == "op" and self.peek().value in "*/":
            tok = self.advance()
            rhs = self.factor()
            if tok.value == "*":
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError("division only by constants", tok.pos)
                c = rhs.constant_value()
                if self.field.is_zero(c):
                    raise ParseError("division by zero", tok.pos)
                value = value.scale(self.field.inv(c))
        return value

    def factor(self) -> MPoly:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "-":
            self.advance()
            return -self.factor()
        return self.power()

    def power(self) -> MPoly:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "^":
            self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "num":
                raise ParseError("exponent must be a nonnegative integer",
                                 exp_tok.pos)
            self.advance()
            base = base ** int(exp_tok.value)
        return base

    def atom(self) -> MPoly:
        tok = self.advance()
        if tok.kind == "num":
            return MPoly.constant(self.vars, int(tok.value), self.field)
        if tok.kind == "name":
            if tok.value not in self.vars:
                raise ParseError(f"unknown variable {tok.value!r}", tok.pos)
            return MPoly.variable(self.vars, tok.value, self.field)
        if tok.kind == "op" and tok.value == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ParseError(f"unexpected {tok.value or 'end of input'!r}", tok.pos)


def parse_mpoly(text: str, vars: tuple[str, ...], char: int = 0) -> MPoly:
    field = field_of_characteristic(char)
    return _Parser(tokenize(text), tuple(vars), field).parse()


def parse_poly(text: str, char: int = 0) -> Poly:
    """Univariate parse; the variable may be named x or t, but not both."""
    mp = parse_mpoly(text, ("x", "t"), char)
    try:
        return mp.to_poly()
    except ValueError:
        raise ParseError("use a single variable (x or t) per polynomial", 0) from None


def parse_poly_list(text: str, char: int = 0) -> list[Poly]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty polynomial list", 0)
    return [parse_poly(p, char) for p in parts]
