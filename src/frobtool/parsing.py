"""Parser for polynomial expressions.

Grammar: integers, variable names ``[A-Za-z][A-Za-z0-9_]*``, operators
``+ - * ^``, parentheses; ``*`` is mandatory between factors; whitespace is
insignificant.  The parser is total on the grammar and round-trips through
the canonical printer (str of a Polynomial).
"""

from __future__ import annotations

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


_OPS = set("+-*^()")


def _tokenize(src: str):
    """Yield (kind, text, line, col); kinds: int, name, op, end."""
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            yield ("int", src[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            yield ("name", src[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch in _OPS:
            yield ("op", ch, line, col)
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield ("end", "", line, col)


class _Parser:
    def __init__(self, src: str, ring: RingSpec):
        self.tokens = list(_tokenize(src))
        self.pos = 0
        self.ring = ring

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self) -> Polynomial:
        poly = self.expr()
        kind, text, line, col = self.peek()
        if kind != "end":
            self.error(f"unexpected {text!r} after expression")
        return poly

    def expr(self) -> Polynomial:
        # accumulate the term dicts and canonicalize once: long canonical
        # sums (for example cached bases) parse in linear time
        acc: dict = {}
        p = self.ring.field.p
        sign = 1
        term = self.term()
        while True:
            for mono, coeff in term.terms:
                v = (acc.get(mono, 0) + sign * coeff) % p
                if v:
                    acc[mono] = v
                elif mono in acc:
                    del acc[mono]
            kind, text, _, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                sign = 1 if text == "+" else -1
                term = self.term()
            else:
                return Polynomial(self.ring, acc)

    def term(self) -> Polynomial:
        # integer and variable factors fold directly into one
        # (coefficient, exponent vector) pair; only parenthesized factors
        # take the generic polynomial-product path
        ring = self.ring
        p = ring.field.p
        coeff = 1
        expo = [0] * ring.nvars
        poly = None
        while True:
            sign = 1
            while True:
                kind, text, _, _ = self.peek()
                if kind == "op" and text in "+-":
                    self.advance()
                    if text == "-":
                        sign = -sign
                else:
                    break
            kind, text, line, col = self.peek()
            if kind == "int":
                self.advance()
                coeff = coeff * pow(int(text) % p, self._opt_exponent(), p) % p
            elif kind == "name":
                self.advance()
                if text not in ring.variables:
                    raise UnknownVariableError(f"unknown variable {text!r}", line, col)
                expo[ring.variables.index(text)] += self._opt_exponent()
            elif kind == "op" and text == "(":
                self.advance()
                factor = self.expr()
                kind, text, line, col = self.advance()
                if not (kind == "op" and text == ")"):
                    raise ParseError("expected ')'", line, col)
                factor = factor ** self._opt_exponent()
                poly = factor if poly is None else poly * factor
            else:
                self.error(f"expected a number, variable or '(': got {text!r}")
            if sign == -1:
                coeff = -coeff % p
            kind, text, _, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                continue
            if kind in ("int", "name") or (kind == "op" and text == "("):
                self.error("missing '*' between factors")
            break
        head = Polynomial(ring, {tuple(expo): coeff})
        return head if poly is None else head * poly

    def _opt_exponent(self) -> int:
        kind, text, _, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, line, col = self.advance()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", line, col)
            return int(text)
        return 1


def parse_polynomial(src: str, ring: RingSpec) -> Polynomial:
    """Parse an expression into a canonical Polynomial over the given ring."""
    return _Parser(src, ring).parse()
