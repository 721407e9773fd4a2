"""Combinatorial fast path for monomial ideals and fractional monomial modules.

Monomial ideals get gcd/lcm-based colon, intersection and Frobenius powers
(an independent oracle for the Groebner engine).  Fractional monomial
modules over congruence-presented affine semigroups carry the twisted
product on raw integer exponent vectors; membership is pure lattice
arithmetic plus the admissibility predicate, with no denominator clearing.

Product membership and minimalization ask, for a vector r and a scale q,
which generators g leave r - q*g admissible.  `_Dominance` answers that
for all generators at once, in the layout of `groebner._Divisors`: per
coordinate, the bitset of generators whose entry is at most each value
(r - q*g >= 0 there exactly when g_k <= r_k // q), and per congruence
(w, m) the bitset of each class of w.g mod m (of w.g when m = 0).  A query
ANDs one set per coordinate and keeps the classes that satisfy the
congruence, so a product test costs one query per left-hand generator
instead of one admissibility check per pair.  `twisted_product_memberships`
answers a batch of product tests that share a right-hand module with one
index, built when the batch starts and dropped when it ends, so a caller
looping over right-hand components holds one index at a time.  The index
is not kept on the module: one held by the module would keep its bitsets
alive as long as the module, for every component a probe holds at once,
and raise peak memory with no gain in speed.  The fractional generation
probe's `outside` builds one index over a degree's twisted products and
queries it once per generator.  A single `contains` test keeps its linear
scan, which is cheaper than building the index: the seven 2x3 Segre
witnesses of p=2 e<=8 took 1.3-1.7 ms by scan, building their seven
indexes 103-110 ms (two runs, 2-core host).

The component builders emit their generators in ascending order and hand
them to `FracMonomialModule._from_sorted`, which neither validates nor
sorts them; so does `minimalize`, whose kept generators are a subsequence
of a sorted tuple.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from operator import add, or_, sub
from typing import Iterable, Optional, Sequence

from .polyring import (
    Mono,
    RingMismatch,
    RingSpec,
    mono_div,
    mono_divides,
    mono_gcd,
    mono_lcm,
    monomials_of_weighted_degree,
    _order_key,
    _Value,
)


def _antichain(ring: RingSpec, monos: Iterable[Mono]):
    """Prune divisible generators; sorted by (weighted degree, ring order)."""
    unique = set(monos)
    key = _order_key(ring, unique)
    unique = sorted(unique, key=lambda m: (ring.weighted_degree(m), key(m)))
    kept = []
    for m in unique:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    return tuple(kept)


class MonomialIdeal(_Value):
    """A monomial ideal, stored as the antichain of its minimal generators."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: RingSpec, generators: Iterable[Mono]):
        n = ring.nvars
        monos = []
        for m in generators:
            m = tuple(m)
            if len(m) != n or any(e < 0 for e in m):
                raise ValueError(f"bad exponent vector {m}")
            monos.append(m)
        self._set(ring, _antichain(ring, monos))

    def is_zero(self) -> bool:
        return not self.generators

    def contains(self, mono: Mono) -> bool:
        mono = tuple(mono)
        return any(mono_divides(g, mono) for g in self.generators)

    def polynomials(self):
        """The generators as Polynomial values over the ring."""
        return tuple(self.ring.monomial(m) for m in self.generators)

    def _check(self, other: "MonomialIdeal") -> None:
        if not isinstance(other, MonomialIdeal):
            raise TypeError("expected a MonomialIdeal")
        if other.ring != self.ring:
            raise RingMismatch("ring mismatch")


def mono_intersect(lhs: MonomialIdeal, rhs: MonomialIdeal) -> MonomialIdeal:
    """Intersection via pairwise lcm."""
    lhs._check(rhs)
    gens = [mono_lcm(a, b) for a in lhs.generators for b in rhs.generators]
    return MonomialIdeal(lhs.ring, gens)


def mono_colon(lhs: MonomialIdeal, rhs: MonomialIdeal) -> MonomialIdeal:
    """Colon ideal: intersection over rhs generators of (m_i : n_j) sums,
    with (m : n) = m / gcd(m, n)."""
    lhs._check(rhs)
    if rhs.is_zero():
        raise ValueError("colon by the zero ideal")
    result: Optional[MonomialIdeal] = None
    for n in rhs.generators:
        piece = MonomialIdeal(lhs.ring, [mono_div(m, mono_gcd(m, n)) for m in lhs.generators])
        result = piece if result is None else mono_intersect(result, piece)
    return result


def mono_frobenius_power(ideal: MonomialIdeal, e: int) -> MonomialIdeal:
    """Exponent vectors scaled by p^e."""
    if e < 0:
        raise ValueError("Frobenius exponent must be non-negative")
    q = ideal.ring.field.p ** e
    return MonomialIdeal(ideal.ring, [tuple(x * q for x in m) for m in ideal.generators])


# --------------------------------------------------------------------------
# affine semigroups and fractional monomial modules

class SemigroupSpec(_Value):
    """Lattice points v >= 0 with w.v = 0 mod m for each (w, m) pair.

    A modulus of 0 means the exact equality w.v = 0.  Every condition is
    linear and homogeneous, so the admissible vectors are closed under
    addition by construction.
    """

    __slots__ = ("dim", "congruences")

    def __init__(self, dim: int, congruences: Iterable = ()):
        if dim < 1:
            raise ValueError("semigroup dimension must be positive")
        congs = []
        for weights, modulus in congruences:
            weights = tuple(weights)
            if len(weights) != dim:
                raise ValueError("congruence weight vector has wrong length")
            if modulus < 0:
                raise ValueError("congruence modulus must be >= 0")
            congs.append((weights, int(modulus)))
        self._set(dim, tuple(congs))

    def admissible(self, v: Sequence[int]) -> bool:
        if len(v) != self.dim:
            raise ValueError("vector has wrong length")
        if any(x < 0 for x in v):
            return False
        for weights, modulus in self.congruences:
            dot = sum(w * x for w, x in zip(weights, v))
            if modulus == 0:
                if dot != 0:
                    return False
            elif dot % modulus != 0:
                return False
        return True


class FracMonomialModule(_Value):
    """Span of inverse-monomial generators over a semigroup ring.

    Generators are raw integer vectors (negative exponents allowed); a
    vector v lies in the module iff v - g is semigroup-admissible for some
    generator g.  The degree records the Frobenius degree e of the
    component the module represents, when meaningful.
    """

    __slots__ = ("semigroup", "generators", "degree")

    def __init__(self, semigroup: SemigroupSpec, generators: Iterable,
                 degree: Optional[int] = None):
        # int tuples are shared, not copied: a component can hold 10^5
        gens = list(map(tuple, generators))
        if not set(map(type, itertools.chain.from_iterable(gens))) <= {int}:
            gens = [g if all(type(x) is int for x in g) else tuple(map(int, g))
                    for g in gens]
        if not set(map(len, gens)) <= {semigroup.dim}:
            raise ValueError("generator vector has wrong length")
        self._set(semigroup, tuple(sorted(set(gens))), degree)

    @classmethod
    def _from_sorted(cls, semigroup: SemigroupSpec, generators: Iterable,
                     degree: Optional[int] = None) -> "FracMonomialModule":
        """A module from generators that are already canonical: distinct
        int tuples of the semigroup's dimension, in ascending order."""
        self = cls.__new__(cls)
        self._set(semigroup, tuple(generators), degree)
        return self

    def contains(self, v: Sequence[int]) -> bool:
        v = _vector(self.semigroup, v)
        adm = self.semigroup.admissible
        return any(adm(tuple(a - b for a, b in zip(v, g))) for g in self.generators)

    def minimalize(self) -> "FracMonomialModule":
        """Drop generators reachable from another generator."""
        gens = self.generators
        below = _Dominance(gens, self.semigroup.congruences).below
        kept = [g for i, g in enumerate(gens) if not below(g, 1) & ~(1 << i)]
        return FracMonomialModule._from_sorted(self.semigroup, kept, self.degree)


def _vector(semigroup: SemigroupSpec, v: Sequence[int]) -> tuple:
    v = tuple(int(x) for x in v)
    if len(v) != semigroup.dim:
        raise ValueError("vector has wrong length")
    return v


def _bitset_classes(keys) -> dict:
    """key -> bitset of the positions i with keys[i] == key."""
    members = {}
    for i, key in enumerate(keys):
        members.setdefault(key, []).append(i)
    out = {}
    for key, idx in members.items():
        buf = bytearray(idx[-1] // 8 + 1)
        for i in idx:
            buf[i >> 3] |= 1 << (i & 7)
        out[key] = int.from_bytes(buf, "little")
    return out


class _Dominance:
    """Which generators g leave r - q*g admissible, for a whole list at once.

    One column per coordinate k: `vals`, the distinct values of g_k in
    ascending order, and `sets`, where `sets[j]` is the bitset of the
    entries with g_k <= vals[j]; one sort of the distinct values and one
    OR per value build it.  One entry per congruence (w, m): the bitset of
    each class of w.g mod m, keyed by the class, so a query tests at most
    m classes, or keyed by w.g itself when m = 0, so a query looks up one.
    """

    def __init__(self, generators: Sequence[tuple], congruences: tuple):
        n = len(generators)
        self.full = (1 << n) - 1
        self.columns = []
        for k in range(len(generators[0]) if n else 0):
            exact = _bitset_classes([g[k] for g in generators])
            vals = sorted(exact)
            sets = list(itertools.accumulate((exact[x] for x in vals), or_))
            self.columns.append((vals, sets))
        self.congruences = []
        for weights, modulus in congruences:
            dots = [sum(w * x for w, x in zip(weights, g)) for g in generators]
            if modulus:
                dots = [d % modulus for d in dots]
            self.congruences.append((weights, modulus, _bitset_classes(dots)))

    def below(self, r: Sequence[int], q: int) -> int:
        """Bitset of the entries g with r - q*g admissible."""
        x = self.full
        for rk, (vals, sets) in zip(r, self.columns):
            j = bisect_right(vals, rk // q)  # g_k <= r_k / q, floored for r_k < 0
            if not j:
                return 0
            x &= sets[j - 1]
            if not x:
                return 0
        for weights, modulus, classes in self.congruences:
            wr = sum(w * a for w, a in zip(weights, r))
            if modulus:
                keep = 0
                for c, bits in classes.items():
                    if (wr - q * c) % modulus == 0:
                        keep |= bits
            else:
                c, rem = divmod(wr, q)
                keep = 0 if rem else classes.get(c, 0)
            x &= keep
            if not x:
                return 0
        return x


def _twist(lhs: FracMonomialModule, rhs: FracMonomialModule, p: int) -> int:
    """p^{e1} for the twisted product of lhs (degree e1) and rhs."""
    if lhs.semigroup != rhs.semigroup:
        raise ValueError("semigroup mismatch")
    if lhs.degree is None or rhs.degree is None:
        raise ValueError("twisted products need the Frobenius degree of both factors")
    return p ** lhs.degree


def twisted_products(lhs: FracMonomialModule, rhs: FracMonomialModule,
                     p: int) -> list:
    """The generators g_a + p^{e1} * g_b of the twisted product of lhs
    (degree e1) and rhs, as a plain list, lhs-major, neither deduplicated
    nor sorted.  Each rhs generator is scaled once.  They span the product
    component as a module over the semigroup ring (bilinearity of the
    twisted multiplication)."""
    q1 = _twist(lhs, rhs, p)
    scaled = [tuple(q1 * x for x in gb) for gb in rhs.generators]
    return [tuple(map(add, ga, sb)) for ga in lhs.generators for sb in scaled]


def twisted_product_memberships(rhs: FracMonomialModule, p: int, queries) -> list:
    """For each query (lhs, v), whether v lies in the twisted product of
    lhs and rhs, the module spanned by twisted_products(lhs, rhs, p): one
    dominance query on rhs per lhs generator, with one index on rhs for the
    whole batch, dropped on return.  Every query is checked before the
    index is built."""
    checked = [(_twist(lhs, rhs, p), lhs.generators, _vector(rhs.semigroup, v))
               for lhs, v in queries]
    below = _Dominance(rhs.generators, rhs.semigroup.congruences).below
    return [any(below(list(map(sub, v, ga)), q1) for ga in gens)
            for q1, gens, v in checked]


def free_semigroup(d: int) -> SemigroupSpec:
    """The full lattice cone N^d (no congruences)."""
    return SemigroupSpec(d)


def veronese_semigroup(d: int, n: int) -> SemigroupSpec:
    """Exponents of the n-th Veronese subring of a d-variable polynomial ring."""
    if n < 1:
        raise ValueError("Veronese index must be >= 1")
    return SemigroupSpec(d, (((1,) * d, n),))


def veronese_component(d: int, n: int, p: int, e: int) -> FracMonomialModule:
    """Degree-e component of the twisted algebra of the n-th Veronese ring.

    Generators are 1/(x_1^{a_1} ... x_d^{a_d}) with a_k <= p^e - 1 and
    sum a_k = 0 mod n.  The family is unbounded below in each coordinate;
    every member is dominated by one with a_k > p^e - 1 - n, so the finite
    window [q - n, q - 1]^d enumerates a complete set, which is then pruned
    to the minimal generators.
    """
    if n < 1:
        raise ValueError("Veronese index must be >= 1")
    if e < 0:
        raise ValueError("Frobenius degree must be non-negative")
    q = p ** e
    semigroup = veronese_semigroup(d, n)
    if e == 0:
        return FracMonomialModule(semigroup, [(0,) * d], 0)
    window = range(q - n, q)
    gens = [tuple(-a for a in alpha)
            for alpha in itertools.product(window, repeat=d)
            if sum(alpha) % n == 0]
    return FracMonomialModule(semigroup, gens, e).minimalize()


def poly_twisted_component(d: int, p: int, e: int) -> FracMonomialModule:
    """Degree-e component for a standard graded polynomial ring in d
    variables: all monomials of total degree p^e - 1."""
    semigroup = free_semigroup(d)
    if e == 0:
        return FracMonomialModule._from_sorted(semigroup, [(0,) * d], 0)
    # the enumeration is lex-descending, so its reverse is ascending
    return FracMonomialModule._from_sorted(
        semigroup, monomials_of_weighted_degree((1,) * d, p ** e - 1)[::-1], e)


def segre_semigroup_2x3() -> SemigroupSpec:
    """Exponent semigroup of the Segre product of GF(p)[s,t] and GF(p)[x,y,z]:
    vectors (a_s, a_t, a_x, a_y, a_z) >= 0 with a_s + a_t = a_x + a_y + a_z."""
    return SemigroupSpec(5, (((1, 1, -1, -1, -1), 0),))


def segre_component_2x3(p: int, e: int) -> FracMonomialModule:
    """Degree-e component for the 2x3 Segre/determinantal ring: the span of
    1/((st)^{q-1} x^k y^l z^m) with k+l+m = 2q-2 and k,l,m <= q-1.

    Emitted in ascending order: k descending, then l descending from q-1
    to q-1-k, the range where m = 2q-2-k-l lies in [0, q-1]."""
    if e < 0:
        raise ValueError("Frobenius degree must be non-negative")
    q = p ** e
    c = -(q - 1)
    gens = [(c, c, -k, -l, k + l - 2 * q + 2)
            for k in range(q - 1, -1, -1) for l in range(q - 1, q - 2 - k, -1)]
    return FracMonomialModule._from_sorted(segre_semigroup_2x3(), gens, e)
