"""Reference routes kept for the tests.

``parse_mpoly``, ``parse_poly`` and ``parse_poly_list`` below are the
recursive-descent parser that ``curvesgp.parsing`` replaced: one token
record per lexeme, and one ``MPoly`` of field elements per atom, power,
product and sum.  The differential test in ``test_parsing.py`` holds the
package's one-pass integer parser to the values, exception types,
messages and positions of this one.

``global_apery`` is an independent route to the degree semigroup of
K[f_1, ..., f_s], the Apéry basis of the algebra as a K[f]-module, on
plain ``Poly`` arithmetic; ``test_global_basis.py`` holds the basis loop
to it.  ``local_apery`` is the same closure for the order semigroup of
K[[f_1, ..., f_s]] over K[[f]], truncated at a cap that it doubles on its
own; ``test_local_basis.py`` holds the basis loop to it.

``local_echelon`` is a route that is not a subduction: the reduced row
echelon form of the truncated span of the monomials in the generators,
by schoolbook products and Gauss-Jordan elimination on field elements.
``test_local_basis.py`` holds the local semigroup and the minimal reduced
basis to its pivots and rows.

``basis_loop`` is the basis loop with no bound on the relations: every
round divides the relation element of every pair of the full minimal
presentation.  ``test_reduction.py`` holds ``build_basis``, which skips the
relations that cannot change the semigroup, to its elements, in order.
"""

from __future__ import annotations

import math
import operator
import re
from typing import NamedTuple

from curvesgp.fields import check_same_field, field_of_characteristic
from curvesgp.mpoly import MPoly
from curvesgp.parsing import ParseError
from curvesgp.poly import Poly
from curvesgp.reduction import (MAX_ELEMENTS, BasisElement, LimitExceeded, ValueBasis,
                                basis_element, reduce_poly, relation_element)
from util import to_poly


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
            combine = operator.add if self.advance().value == "+" else operator.sub
            for e, c in self.term().coeffs.items():
                acc[e] = f.coerce(combine(acc.get(e, 0), c))
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
                if not c:
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
        return to_poly(mp)
    except ValueError:
        raise ParseError("use a single variable (x or t) per polynomial", 0) from None


def parse_poly_list(text: str, char: int = 0) -> list[Poly]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ParseError("empty polynomial list", 0)
    return [parse_poly(p, char) for p in parts]


def global_apery(gens: list[Poly]) -> tuple[int, dict[int, int]]:
    """(n, Ap) for generators of positive degree: the least degree n of a
    generator and, for each residue class mod n that the degrees of
    A = K[f_1, ..., f_s] meet, the least such degree, so that the degree
    semigroup of A is <n, Ap>.

    Let f be the first generator of least degree n, made monic.  K[x] is a
    free K[f]-module on 1, x, ..., x^(n-1), and A is a submodule.  The
    closure keeps, for each class mod n, the element of least degree found
    so far, starting from 1, and multiplies each newly kept element by
    every other generator.  A newcomer is reduced against the kept element
    of its class times f^k while that element's degree is at most its own;
    what is left, if nonzero, is kept, and an element it displaces is
    reduced again.  When the queue is empty, the K[f]-span M of the kept
    elements contains 1, every element ever reduced to zero or displaced,
    and every product of a kept element with a generator, so M = A.  The
    kept degrees lie in distinct classes, so a K[f]-combination of them
    has the degree of one of its terms, and the degrees of A are the kept
    ones plus multiples of n.  Each displacement lowers the degree kept
    in a class, so the closure ends.
    """
    field = gens[0].field
    first = min(range(len(gens)), key=lambda i: gens[i].degree)
    f = gens[first].scale(field.inv(gens[first].leading_coeff))
    n = int(f.degree)
    others = [g for i, g in enumerate(gens) if i != first]
    kept: dict[int, Poly] = {}
    powers = [Poly.constant(1, field)]  # f^0, f^1, ...
    queue = [powers[0]]
    while queue:
        h = queue.pop()
        while not h.is_zero:
            d = int(h.degree)
            g = kept.get(d % n)
            if g is None or g.degree > d:
                break
            k = (d - int(g.degree)) // n
            while len(powers) <= k:
                powers.append(powers[-1] * f)
            step = g * powers[k]
            h = h - step.scale(field.div(h.leading_coeff, step.leading_coeff))
        if h.is_zero:
            continue
        h = h.scale(field.inv(h.leading_coeff))
        displaced = kept.get(int(h.degree) % n)
        kept[int(h.degree) % n] = h
        if displaced is not None:
            queue.append(displaced)
        queue.extend(h * g for g in others)
    return n, {i: int(g.degree) for i, g in kept.items()}


def local_apery(gens: list[Poly]) -> tuple[int, dict[int, int]]:
    """(n, Ap) for generators of positive order whose orders have gcd 1:
    the least order n of a generator and, for each residue class mod n,
    the least order of A = K[[f_1, ..., f_s]] in it, so that the order
    semigroup of A is <n, Ap>.

    Let f be the first generator of least order n, made monic at its
    trailing term.  K[[x]] is a free K[[f]]-module on 1, x, ..., x^(n-1),
    and A is a submodule.  :func:`_local_closure` runs the closure of
    :func:`global_apery` with orders for degrees, in K[[x]]/(x^c): a
    reduction step and a product only raise orders, so the image of A
    there is the K[[f]]-span M of the kept elements, and an element of M
    has the order of one of its terms (their orders lie in distinct
    classes) unless that order reaches c.  So every order of A below c is
    a kept order plus a multiple of n, and once each of the n classes
    holds a kept element (of order below c), the kept orders are the
    Apéry set.  Otherwise c doubles, from one more than the largest
    degree of the inputs; the cap comes from nothing else.  It fills for
    c past n plus the Frobenius number of the semigroup of the inputs'
    orders, which lies in that of A; their gcd 1 makes that number finite.
    """
    if math.gcd(*(int(g.order) for g in gens)) != 1:
        raise ValueError("the orders of the generators must have gcd 1")
    field = gens[0].field
    first = min(range(len(gens)), key=lambda i: gens[i].order)
    f = gens[first].scale(field.inv(gens[first].trailing_coeff))
    n = int(f.order)
    others = [g for i, g in enumerate(gens) if i != first]
    cap = 1 + max(int(g.degree) for g in gens)
    while True:
        kept = _local_closure(f, others, cap)
        if len(kept) == n:
            return n, {i: int(g.order) for i, g in kept.items()}
        cap *= 2


def _local_closure(f: Poly, others: list[Poly], cap: int) -> dict[int, Poly]:
    """The class mod n = o(f) -> the kept element of least order of
    :func:`local_apery`'s closure, every product truncated below x^cap.
    A newcomer is reduced against the kept element of its class times f^k
    while that element's order is at most its own; what is left, if
    nonzero, is kept, and an element it displaces is reduced again.  Each
    step raises the newcomer's order below the cap, and each displacement
    lowers the order kept in a class, so the closure ends."""
    field = f.field
    n = int(f.order)
    kept: dict[int, Poly] = {}
    powers = [Poly.constant(1, field)]  # f^0, f^1, ... mod x^cap
    queue = [powers[0]]
    while queue:
        h = queue.pop()
        while not h.is_zero:
            d = int(h.order)
            g = kept.get(d % n)
            if g is None or g.order > d:
                break
            k = (d - int(g.order)) // n
            while len(powers) <= k:
                powers.append((powers[-1] * f).truncate(cap))
            step = (g * powers[k]).truncate(cap)
            h = h - step.scale(field.div(h.trailing_coeff, step.trailing_coeff))
        if h.is_zero:
            continue
        h = h.scale(field.inv(h.trailing_coeff))
        displaced = kept.get(int(h.order) % n)
        kept[int(h.order) % n] = h
        if displaced is not None:
            queue.append(displaced)
        queue.extend((h * g).truncate(cap) for g in others)
    return kept


def local_echelon(gens: list[Poly], N: int) -> dict[int, Poly]:
    """Pivot -> row of the reduced row echelon form, pivots lowest first,
    of the K-span of {f^alpha mod x^(N+1) : alpha . v <= N}, for f_i the
    generators with their constant terms dropped and v_i their orders.
    Each row is monic at its pivot and zero at every other pivot.

    Truncation to K[[x]]/(x^(N+1)) is a ring map, and f^alpha vanishes
    there once alpha . v > N, so the span is the image of
    A = K[[f_1, ..., f_s]], and its pivots are the orders of A up to N:
    Gamma meets [0, N] in exactly the pivots.  Take N >= c - 1, c the
    conductor, and N at least the largest minimal generator.  Then the row
    at a minimal generator gamma is the minimal reduced basis element at
    gamma: both are monic at gamma with every other term at a gap below c,
    so their difference lies in A with every term at a gap, and is zero.
    """
    field = gens[0].field
    fs = [{e: c for e, c in g.coeffs.items() if e} for g in gens]
    orders = [min(f) for f in fs]

    def times(a: dict, b: dict) -> dict:
        out: dict = {}
        for i, x in a.items():
            for j, y in b.items():
                if i + j <= N:
                    out[i + j] = field.coerce(out.get(i + j, 0) + x * y)
        return {e: c for e, c in out.items() if c}

    def subtract(row: dict, c, other: dict) -> None:
        """row -= c * other, in place."""
        for e, y in other.items():
            z = field.coerce(row.get(e, 0) - c * y)
            if not z:
                row.pop(e, None)
            else:
                row[e] = z

    # every alpha once, as a nondecreasing sequence of factor indices:
    # (f^alpha, alpha . v, index of the last factor)
    monomials = [({0: 1}, 0, 0)]
    for prod, weight, last in monomials:  # grows while it is walked
        for i in range(last, len(fs)):
            if weight + orders[i] <= N:
                monomials.append((times(prod, fs[i]), weight + orders[i], i))
    rows: dict[int, dict] = {}
    for prod, _, _ in monomials:
        row = dict(prod)
        while row:
            e = min(row)
            if e not in rows:
                inv = field.inv(row[e])
                rows[e] = {k: field.coerce(c * inv) for k, c in row.items()}
                break
            subtract(row, row[e], rows[e])
    # Gauss-Jordan, lowest pivot first: a row only has terms at or past
    # its pivot, so clearing q from the rows below q puts no term back at
    # a pivot already cleared
    for q in sorted(rows):
        for p, row in rows.items():
            if p < q and q in row:
                subtract(row, row[q], rows[q])
    return {e: Poly(field, rows[e]) for e in sorted(rows)}


def basis_loop(gens: list[Poly], setting: str) -> ValueBasis:
    """The adjoin-and-restart loop over every pair of the full presentation
    of the values: a round adjoins the normalised remainder of the first
    relation element that does not divide to zero."""
    if not gens:
        raise ValueError("at least one generator is required")
    field = gens[0].field
    elements: list[BasisElement] = []
    for g in gens:
        check_same_field(field, g.field)
        elements.append(basis_element(g, setting))

    while True:
        basis = ValueBasis(elements, setting, len(gens))
        for alpha, beta, _value in basis.presentation.pairs:
            s_poly, _kappa = relation_element(basis, alpha, beta)
            if s_poly.is_zero:
                continue
            out = reduce_poly(s_poly, basis, "algorithmic", record=False)
            if out.remainder.is_zero:
                continue
            if len(elements) + 1 > MAX_ELEMENTS:
                raise LimitExceeded(
                    f"basis grew past max_elements={MAX_ELEMENTS}")
            elements.append(basis_element(out.remainder, setting))
            break
        else:
            return basis
