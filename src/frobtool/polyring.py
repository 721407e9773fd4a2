"""Exact arithmetic in GF(p) and in multivariate polynomial rings over GF(p).

Polynomials are sparse, canonical and immutable: a term list strictly sorted
in descending ring order, no zero coefficients, coefficients reduced to the
least non-negative residue.  Equality is structural.  Rings carry a weighted
grading (default: all weights 1) and a monomial order; grevlex ties inside
equal weighted degree are broken by reverse lexicographic comparison on the
declared variable order, so all outputs are reproducible.

The value types `PrimeField`, `Order`, `RingSpec` and, in `monomials`,
`MonomialIdeal`, `SemigroupSpec` and `FracMonomialModule` subclass
`_Value`, which derives immutability, equality, hashing and pickling from
their public `__slots__`.  `Polynomial` does not: it equals ints too.

The order is encoded once, as packed ints (Monagan and Pearce, CASC 2007):
a `Packing` maps a monomial to M = (K << W*n) | P.  P packs the n exponents
in fields of W bits; K packs n nonnegative linear forms whose integer order
is the monomial order: grevlex packs (d, sum_{i<n-1} w_i m_i, ...), with d
the weighted degree; an elimination order packs that per block, head block
on top; lex packs the exponents themselves.  So a product is an addition,
an order comparison an int comparison, and lm divides m exactly when
m - lm leaves every field's top (guard) bit clear.  Every field holds at
most the weighted degree; W adds SPARE_BITS and the guard bit to a degree
bound, and `pack` raises ArithmeticError on a monomial past it.  Term
sorting, the cache's checks, monomial ideals and the Groebner engine all
compare these ints; `_order_key` packs for any collection of monomials.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul
from typing import Callable, Iterable, Mapping, Optional, Union

Mono = tuple  # exponent vector, one entry per ring variable

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _immutable(self, *args):
    """__setattr__ and __delattr__ of `_Value`."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {args[0]!r}")


class _Value:
    """An immutable value whose fields are its public `__slots__`, in slot
    order, and whose constructor takes them in that order.  It equals an
    instance of its own class with equal fields only, hashes as the tuple
    of its fields, and copies and pickles through its constructor."""

    __slots__ = ()
    __setattr__ = __delattr__ = _immutable

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))

    def _set(self, *values) -> None:
        """Assign the fields, once, in the constructor."""
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()


class PrimeField(_Value):
    """The field GF(p) for a prime p < 2**31."""

    __slots__ = ("p",)

    def __init__(self, p: int) -> None:
        if not isinstance(p, int) or not 2 <= p < 2**31:
            raise ValueError(f"characteristic must be an integer in [2, 2^31): {p!r}")
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime: {p}")
        self._set(p)

    def inv(self, value: int) -> int:
        value %= self.p
        if value == 0:
            raise ZeroDivisionError("inverse of 0 in GF(p)")
        return pow(value, self.p - 2, self.p)


class Order(_Value):
    """Monomial order tag: grevlex, lex, or elimination of a leading block."""

    __slots__ = ("kind", "block")

    def __init__(self, kind: str, block: int = 0) -> None:
        if kind not in ("grevlex", "lex", "elim"):
            raise ValueError(f"unknown monomial order: {kind!r}")
        if kind == "elim" and block < 1:
            raise ValueError("elimination order needs a leading block of size >= 1")
        self._set(kind, block)

    @property
    def tag(self) -> str:
        return self.kind if self.kind != "elim" else f"elim{self.block}"


GREVLEX = Order("grevlex")
LEX = Order("lex")


class RingMismatch(ValueError):
    """Operands from different rings met: an internal error, not bad input."""


class RingSpec(_Value):
    """A polynomial ring GF(p)[variables] with weights and a monomial order.

    Its hash is computed once, when it is made: rings are hashed with every
    polynomial and packing memo lookup.  The hash of a str differs between
    processes, so a copy or an unpickled ring hashes anew."""

    __slots__ = ("field", "variables", "weights", "order", "_hash")

    def __init__(self, field: PrimeField, variables: tuple, weights: tuple = (),
                 order: Order = GREVLEX) -> None:
        variables = tuple(variables)
        if not variables:
            raise ValueError("a ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        weights = tuple(weights) if weights else (1,) * len(variables)
        if len(weights) != len(variables):
            raise ValueError("one weight per variable")
        if any(not isinstance(w, int) or w < 1 for w in weights):
            raise ValueError("weights must be positive integers")
        if order.kind == "elim" and order.block >= len(variables):
            raise ValueError("elimination block must leave at least one trailing variable")
        self._set(field, variables, weights, order)
        object.__setattr__(self, "_hash", hash(self._values()))

    def __hash__(self) -> int:
        return self._hash

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def weighted_degree(self, mono: Mono) -> int:
        return sum(w * e for w, e in zip(self.weights, mono))

    # -- element construction -------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name: str) -> "Polynomial":
        if name not in self.variables:
            raise ValueError(f"unknown variable {name!r}")
        i = self.variables.index(name)
        mono = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {mono: 1})

    def monomial(self, mono: Mono, coeff: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(mono): coeff})


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b; raises if not divisible."""
    q = tuple(x - y for x, y in zip(a, b))
    if any(e < 0 for e in q):
        raise ValueError(f"monomial {a} not divisible by {b}")
    return q


def mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_gcd(a: Mono, b: Mono) -> Mono:
    return tuple(min(x, y) for x, y in zip(a, b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    return tuple(max(x, y) for x, y in zip(a, b))


@lru_cache(maxsize=256)
def monomials_of_weighted_degree(weights: tuple, d: int) -> tuple:
    """All exponent vectors of weighted degree exactly d, lexicographically
    descending (the first exponent largest first)."""
    n = len(weights)
    out = []

    def rec(prefix, remaining, i):
        w = weights[i]
        if i == n - 1:
            if remaining % w == 0:
                out.append(prefix + (remaining // w,))
            return
        for e in range(remaining // w, -1, -1):
            rec(prefix + (e,), remaining - e * w, i + 1)

    if d >= 0:
        rec((), d, 0)
    return tuple(out)


class Polynomial:
    """Sparse polynomial over GF(p), canonical and immutable."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingSpec, data: Union[Mapping, Iterable]):
        self.ring = ring
        p = ring.field.p
        n = ring.nvars
        acc: dict = {}
        items = data.items() if isinstance(data, Mapping) else data
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != n:
                raise ValueError(f"exponent vector {mono} has wrong length for {ring.variables}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            c = (acc.get(mono, 0) + int(coeff)) % p
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        terms = acc.items()
        if len(acc) > 1:
            pack = _order_key(ring, acc)
            terms = sorted(terms, key=lambda t: pack(t[0]), reverse=True)
        self.terms = tuple(terms)
        self._hash = None

    @classmethod
    def _from_sorted(cls, ring: RingSpec, terms: tuple) -> "Polynomial":
        """A polynomial from terms that are already canonical: strictly
        descending in the ring order, coefficients reduced and nonzero."""
        self = cls.__new__(cls)
        self.ring = ring
        self.terms = terms
        self._hash = None
        return self

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def leading_monomial(self) -> Mono:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def leading_coefficient(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def weighted_degree(self) -> Optional[int]:
        """Max weighted degree over terms; None for the zero polynomial."""
        if not self.terms:
            return None
        wd = self.ring.weighted_degree
        if self.ring.order.kind == "grevlex":
            # the weighted degree is the order's first key field: the lead has the largest
            return wd(self.terms[0][0])
        return max(wd(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        wd = self.ring.weighted_degree
        degs = {wd(m) for m, _ in self.terms}
        return len(degs) == 1

    def coefficient(self, mono: Mono) -> int:
        mono = tuple(mono)
        for m, c in self.terms:
            if m == mono:
                return c
        return 0

    # -- arithmetic -----------------------------------------------------------

    def _check_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatch("ring mismatch")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        p = self.ring.field.p
        for m, c in other.terms:
            v = (acc.get(m, 0) + c) % p
            if v:
                acc[m] = v
            elif m in acc:
                del acc[m]
        return Polynomial(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        p = self.ring.field.p
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(x + y for x, y in zip(m1, m2))
                v = (acc.get(m, 0) + c1 * c2) % p
                if v:
                    acc[m] = v
                elif m in acc:
                    del acc[m]
        return Polynomial(self.ring, acc)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, int):
            return self.ring.constant(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take a non-negative integer exponent")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def scale(self, c: int) -> "Polynomial":
        p = self.ring.field.p
        c %= p
        if c == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {m: cc * c % p for m, cc in self.terms})

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return self.scale(self.ring.field.inv(lc))

    def frobenius_power(self, e: int) -> "Polynomial":
        """f ** (p**e), computed termwise: exponents scale by p**e and
        coefficients are fixed by Frobenius on the prime field."""
        if not isinstance(e, int) or e < 0:
            raise ValueError("Frobenius exponent must be a non-negative integer")
        if e == 0 or not self.terms:
            return self
        q = self.ring.field.p ** e
        return Polynomial(self.ring, {tuple(x * q for x in m): c for m, c in self.terms})

    def substitute(self, images: Mapping[str, "Polynomial"], target: RingSpec) -> "Polynomial":
        """Ring map sending each variable to the given image polynomial."""
        missing = [v for v in self.ring.variables if v not in images]
        if missing:
            raise ValueError(f"no image for variables {missing}")
        result = target.zero()
        for mono, coeff in self.terms:
            term = target.constant(coeff)
            for var, e in zip(self.ring.variables, mono):
                if e:
                    term = term * images[var] ** e
            result = result + term
        return result

    # -- comparison / hashing / printing --------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.ring.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.terms))
        return self._hash

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        variables = self.ring.variables
        chunks = []
        for mono, coeff in self.terms:
            parts = []
            if coeff != 1 or not any(mono):
                parts.append(str(coeff))
            for var, e in zip(variables, mono):
                if e == 1:
                    parts.append(var)
                elif e:
                    parts.append(f"{var}^{e}")
            chunks.append("*".join(parts))
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


# --------------------------------------------------------------------------
# packed monomials: the one encoding of each ring's order

SPARE_BITS = 32  # headroom of each packed field over the largest input degree
PACKING_MEMO_SIZE = 32  # packings kept, least recently used evicted first
COLUMNWISE_TERMS = 12  # the shortest input `_unpacked` unpacks field by field


def _overflow(width: int) -> ArithmeticError:
    return ArithmeticError(f"a monomial outgrew its {width}-bit packed exponent fields")


class Packing:
    """The monomials of one ring under its order, packed into ints of 2n
    fields of `width` bits each (see the module docstring)."""

    def __init__(self, ring: RingSpec, width: int):
        n, weights, order = ring.nvars, ring.weights, ring.order
        if order.kind == "lex":
            forms = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        else:
            cut = order.block if order.kind == "elim" else n
            forms = [tuple(weights[i] if lo <= i < k else 0 for i in range(n))
                     for lo, hi in ((0, cut), (cut, n)) for k in range(hi, lo, -1)]
        shifts = [width * (2 * n - 1 - f) for f in range(2 * n)]  # most significant first
        self.ring = ring
        self.width = width
        self.p = ring.field.p
        self.mask = (1 << width) - 1
        self.guard_bits = sum(1 << (s + width - 1) for s in shifts)
        self.exps_mask = (1 << width * n) - 1  # the exponent fields P
        self.exps_guards = self.guard_bits & self.exps_mask
        self._limit = (1 << (width - 1)) - 1  # largest value a field may hold
        self._weights = weights
        self._units = tuple(sum(form[i] << s for form, s in zip(forms, shifts))
                            + (1 << shifts[n + i]) for i in range(n))
        self._exponent_shifts = tuple(shifts[n:])
        # the K fields whose sum is the weighted degree; lex has none
        self._degree_shifts = ((shifts[0],) if order.kind == "grevlex" else
                               (shifts[0], shifts[order.block]) if order.kind == "elim"
                               else None)

    def pack(self, mono) -> int:
        if sum(map(mul, mono, self._weights)) > self._limit:
            raise _overflow(self.width)
        return sum(map(mul, mono, self._units))

    def unpack(self, m: int) -> tuple:
        mask = self.mask
        return tuple((m >> s) & mask for s in self._exponent_shifts)

    def degree(self, m: int) -> int:
        """Weighted degree of a packed monomial."""
        if self._degree_shifts is None:
            return sum(map(mul, self.unpack(m), self._weights))
        mask = self.mask
        return sum((m >> s) & mask for s in self._degree_shifts)

    def degrees(self, ms) -> set:
        """The weighted degrees of the packed monomials ms."""
        if self.ring.order.kind == "grevlex":  # the top field, with nothing above it
            s = self._degree_shifts[0]
            return {m >> s for m in ms}
        return set(map(self.degree, ms))

    def pack_terms(self, terms) -> dict:
        pack = self.pack
        return {pack(m): c for m, c in terms}

    def polynomial(self, items) -> Polynomial:
        """The Polynomial of packed (monomial, coefficient) items, sorted by
        the packed ints."""
        return Polynomial._from_sorted(self.ring,
                                       _unpacked(items, self.mask, self._exponent_shifts))


def _unpacked(items, mask: int, shifts) -> tuple:
    """The terms (exponents, coefficient) of packed (monomial, coefficient)
    items whose exponent fields sit at `shifts`, descending by the packed
    ints.  Unpacking goes field by field, one list comprehension over the
    monomials per field, zipped at the end; below COLUMNWISE_TERMS terms it
    goes term by term, where the per-field setup costs more than it saves."""
    items = sorted(items, reverse=True)
    if len(items) < COLUMNWISE_TERMS:
        return tuple((tuple([(m >> s) & mask for s in shifts]), c) for m, c in items)
    ms = [m for m, _ in items]
    return tuple(zip(zip(*[[(m >> s) & mask for m in ms] for s in shifts]),
                     [c for _, c in items]))


_packing_of_width = lru_cache(maxsize=PACKING_MEMO_SIZE)(Packing)


def _packing(ring: RingSpec, degree: int, width: int = 0) -> Packing:
    """The packing whose fields hold weighted degrees up to `degree`
    with SPARE_BITS bits to spare, and are at least `width` bits wide."""
    return _packing_of_width(ring, max(width, max(degree, 1).bit_length() + SPARE_BITS + 1))


def _order_key(ring: RingSpec, monos) -> Callable[[Mono], int]:
    """The ring's order on the collection `monos`, as the `pack` of a packing
    wide enough for them, without `pack`'s overflow test: each field is
    bounded by the largest exponent times the sum of the weights, which
    the packing holds."""
    units = _packing(ring, max(map(max, monos), default=0) * sum(ring.weights))._units
    return lambda mono: sum(map(mul, mono, units))
