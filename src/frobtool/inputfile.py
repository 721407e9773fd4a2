"""The .frob input file format.

::

    char <prime>
    vars <name> <name> ...
    weights <int> ...            # optional, default all 1
    order grevlex|lex            # optional, default grevlex
    degree_guard <int>           # optional
    ideal <Name> = <poly>, <poly>, ...

Each line but `ideal` may appear at most once, and each ideal name once.
Lines starting with '#' (or trailing '#' comments) are ignored.  Documents
parse losslessly to and from the canonical printed form.
"""

from __future__ import annotations

import re
from typing import Optional

from .groebner import Ideal
from .parsing import ParseError, parse_polynomial
from .polyring import GREVLEX, LEX, Order, PrimeField, RingSpec

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")


class InputFileError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        loc = f" (line {line})" if line else ""
        super().__init__(f"{message}{loc}")
        self.line = line


class InputDocument:
    """A parsed .frob file: the ring, its named ideals and its options."""

    def __init__(self, ring: RingSpec, ideals: Optional[dict] = None,
                 options: Optional[dict] = None):
        self.ring = ring
        self.ideals = {} if ideals is None else ideals
        self.options = {} if options is None else options

    def ideal(self, name: str) -> Ideal:
        if name not in self.ideals:
            known = ", ".join(sorted(self.ideals)) or "none"
            raise InputFileError(f"no ideal named {name!r} (declared: {known})")
        return Ideal(self.ring, self.ideals[name])


def parse_input_text(text: str) -> InputDocument:
    char: Optional[int] = None
    variables: Optional[tuple] = None
    weights: Optional[tuple] = None
    order: Order = GREVLEX
    options: dict = {}
    ideal_lines = []
    first = {}  # directive other than ideal -> the line that gave it

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split(None, 1)  # a tab separates as a space does
        rest = rest[0] if rest else ""
        if head != "ideal" and first.setdefault(head, lineno) != lineno:
            raise InputFileError(f"{head!r} declared twice (first on line {first[head]})", lineno)
        if head == "char":
            try:
                char = int(rest)
            except ValueError:
                raise InputFileError(f"bad characteristic {rest!r}", lineno)
        elif head == "vars":
            names = tuple(rest.split())
            for name in names:
                if not _NAME_RE.match(name):
                    raise InputFileError(f"bad variable name {name!r}", lineno)
            variables = names
        elif head == "weights":
            try:
                weights = tuple(int(w) for w in rest.split())
            except ValueError:
                raise InputFileError(f"bad weights {rest!r}", lineno)
        elif head == "order":
            if rest == "grevlex":
                order = GREVLEX
            elif rest == "lex":
                order = LEX
            else:
                raise InputFileError(f"unknown order {rest!r} (grevlex or lex)", lineno)
        elif head == "degree_guard":
            try:
                options["degree_guard"] = int(rest)
            except ValueError:
                raise InputFileError(f"bad degree guard {rest!r}", lineno)
            if options["degree_guard"] < 1:
                raise InputFileError(f"degree guard must be at least 1: {rest}", lineno)
        elif head == "ideal":
            ideal_lines.append((lineno, rest))
        else:
            raise InputFileError(f"unknown directive {head!r}", lineno)

    if char is None:
        raise InputFileError("missing 'char' line")
    if variables is None:
        raise InputFileError("missing 'vars' line")
    try:
        fieldspec = PrimeField(char)
        ring = RingSpec(fieldspec, variables, weights or (), order)
    except ValueError as exc:
        raise InputFileError(str(exc)) from exc

    doc = InputDocument(ring, {}, options)
    for lineno, rest in ideal_lines:
        name, eq, body = rest.partition("=")
        name = name.strip()
        if not eq or not _NAME_RE.match(name):
            raise InputFileError("ideal lines read 'ideal <Name> = <poly>, ...'", lineno)
        if name in doc.ideals:
            raise InputFileError(f"ideal {name!r} declared twice", lineno)
        gens = []
        for chunk in body.split(","):
            chunk = chunk.strip()
            if not chunk:
                raise InputFileError(f"empty generator in ideal {name!r}", lineno)
            try:
                poly = parse_polynomial(chunk, ring)
            except ParseError as exc:
                raise InputFileError(f"in ideal {name!r}: {exc}", lineno) from exc
            if poly.is_zero():
                raise InputFileError(f"zero generator in ideal {name!r}", lineno)
            gens.append(poly)
        doc.ideals[name] = tuple(gens)
    return doc


def parse_input_file(path) -> InputDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_input_text(handle.read())


def print_input_document(doc: InputDocument) -> str:
    lines = [
        f"char {doc.ring.field.p}",
        "vars " + " ".join(doc.ring.variables),
        "weights " + " ".join(str(w) for w in doc.ring.weights),
        f"order {doc.ring.order.tag}",
    ]
    if "degree_guard" in doc.options:
        lines.append(f"degree_guard {doc.options['degree_guard']}")
    for name in doc.ideals:
        gens = ", ".join(str(g) for g in doc.ideals[name])
        lines.append(f"ideal {name} = {gens}")
    return "\n".join(lines) + "\n"
