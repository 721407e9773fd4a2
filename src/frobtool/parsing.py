"""Parser for polynomial expressions.

Grammar: integers, variable names ``[A-Za-z][A-Za-z0-9_]*``, operators
``+ - * ^``, parentheses; ``*`` is mandatory between factors; whitespace is
insignificant.  The parser is total on the grammar and round-trips through
the canonical printer (str of a Polynomial).  Parentheses nest at most
MAX_NESTING deep: deeper input is a located ParseError, where the recursive
descent would otherwise exhaust the interpreter's stack.
"""

from __future__ import annotations

import re

from .polyring import Polynomial, RingSpec


class ParseError(ValueError):
    """Syntax or semantic error in a polynomial expression, with location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class UnknownVariableError(ParseError):
    pass


MAX_NESTING = 200  # parenthesis depth; each level is two Python frames

_TOKEN = re.compile(r"\s*(?:(\d+)|([^\W\d_]\w*)|([-+*^()])|(\S))")


def _tokenize(src: str) -> list:
    """The tokens (kind, text, k), k counting from 0; kinds: int, name, op,
    end.  Locations are found again only for an error (see _error)."""
    tokens = []
    for k, (num, name, op, bad) in enumerate(_TOKEN.findall(src)):
        if num:
            tokens.append(("int", num, k))
        elif name:
            tokens.append(("name", name, k))
        elif op:
            tokens.append(("op", op, k))
        else:
            raise _error(ParseError, f"unexpected character {bad!r}", src, k)
    tokens.append(("end", "", len(tokens)))
    return tokens


def _error(cls, message: str, src: str, k: int) -> ParseError:
    """A `cls` error at the k-th token of src (its end when there is none),
    located by line and column, both from 1."""
    index = len(src)
    for i, m in enumerate(_TOKEN.finditer(src)):
        if i == k:
            index = m.start(m.lastindex)
            break
    line_start = src.rfind("\n", 0, index) + 1
    return cls(message, src.count("\n", 0, index) + 1, index - line_start + 1)


class _Parser:
    def __init__(self, src: str, ring: RingSpec):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0
        self.ring = ring
        self.index = {v: i for i, v in enumerate(ring.variables)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok=None, cls=ParseError):
        tok = tok or self.peek()
        raise _error(cls, message, self.src, tok[2])

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, text, _ = self.peek()
        if kind != "end":
            self.error(f"unexpected {text!r} after expression")
        return poly

    def expr(self) -> Polynomial:
        # accumulate the terms and canonicalize once: long canonical sums
        # (for example cached bases) parse in linear time
        acc: dict = {}
        p = self.ring.field.p
        sign = 1
        term = self.term()
        while True:
            for mono, coeff in term:
                v = (acc.get(mono, 0) + sign * coeff) % p
                if v:
                    acc[mono] = v
                elif mono in acc:
                    del acc[mono]
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                sign = 1 if text == "+" else -1
                term = self.term()
            else:
                return Polynomial(self.ring, acc)

    def term(self):
        """The (exponent vector, coefficient) pairs of one product of
        factors.  Integer and variable factors fold directly into one pair;
        only parenthesized factors take the polynomial-product path."""
        ring = self.ring
        p = ring.field.p
        coeff = 1
        expo = [0] * ring.nvars
        poly = None
        while True:
            sign = 1
            while True:
                kind, text, _ = self.peek()
                if kind == "op" and text in "+-":
                    self.advance()
                    if text == "-":
                        sign = -sign
                else:
                    break
            tok = self.peek()
            kind, text, _ = tok
            if kind == "int":
                self.advance()
                coeff = coeff * pow(int(text) % p, self._opt_exponent(), p) % p
            elif kind == "name":
                self.advance()
                i = self.index.get(text)
                if i is None:
                    self.error(f"unknown variable {text!r}", tok, UnknownVariableError)
                expo[i] += self._opt_exponent()
            elif kind == "op" and text == "(":
                if self.depth == MAX_NESTING:
                    self.error(f"parentheses nested too deeply (more than {MAX_NESTING})")
                self.advance()
                self.depth += 1
                factor = self.expr()
                self.depth -= 1
                tok = self.advance()
                if tok[:2] != ("op", ")"):
                    self.error("expected ')'", tok)
                factor = factor ** self._opt_exponent()
                poly = factor if poly is None else poly * factor
            else:
                self.error(f"expected a number, variable or '(': got {text!r}")
            if sign == -1:
                coeff = -coeff % p
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                continue
            if kind in ("int", "name") or (kind == "op" and text == "("):
                self.error("missing '*' between factors")
            break
        if poly is None:
            return ((tuple(expo), coeff),)
        return (Polynomial(ring, {tuple(expo): coeff}) * poly).terms

    def _opt_exponent(self) -> int:
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            tok = self.advance()
            if tok[0] != "int":
                self.error("exponent must be a non-negative integer", tok)
            return int(tok[1])
        return 1


def parse_polynomial(src: str, ring: RingSpec) -> Polynomial:
    """Parse an expression into a canonical Polynomial over the given ring."""
    return _Parser(src, ring).parse()
