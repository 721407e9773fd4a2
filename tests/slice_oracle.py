"""Reference oracle for graded membership and minimal generators.

Works on Macaulay slices: the degree-d piece of a homogeneous ideal is the
GF(p)-span of the monomial shifts of its generators, so membership is plain
linear algebra with no Groebner basis involved.  The cost grows with the
size of the slices, which is why the library works on normal forms instead;
the tests compare the two paths.
"""

from __future__ import annotations

from typing import Sequence

from frobtool.groebner import Ideal
from frobtool.polyring import (
    Polynomial,
    RingSpec,
    monomials_of_weighted_degree,
)

from order_oracle import key_function


class _Echelon:
    """Sparse row echelon over GF(p), pivot-monomial indexed.

    The library's echelon as it was before packed monomials, unchanged:
    the oracle works on exponent tuples ordered by a key function.
    """

    def __init__(self, key, p):
        self.key = key
        self.p = p
        self.pivots: dict = {}

    def _reduce(self, row: dict) -> dict:
        p = self.p
        key = self.key
        pivots = self.pivots
        while row:
            m = max(row, key=key)
            piv = pivots.get(m)
            if piv is None:
                return row
            c = row[m]
            for mm, cc in piv.items():
                v = (row.get(mm, 0) - c * cc) % p
                if v:
                    row[mm] = v
                elif mm in row:
                    del row[mm]
        return row

    def add_row(self, row: dict) -> bool:
        """Insert row; True exactly when it raises the rank."""
        row = self._reduce(dict(row))
        if not row:
            return False
        m = max(row, key=self.key)
        inv = pow(row[m], self.p - 2, self.p)
        self.pivots[m] = {mm: cc * inv % self.p for mm, cc in row.items()}
        return True


class SliceEchelon(_Echelon):
    """An echelon that can be copied and queried without being extended."""

    def copy(self) -> "SliceEchelon":
        dup = SliceEchelon(self.key, self.p)
        dup.pivots = dict(self.pivots)
        return dup

    def reduces_to_zero(self, row: dict) -> bool:
        return not self._reduce(dict(row))


class GradedMembership:
    """Exact membership in a homogeneous ideal, one degree slice at a time.

    The degree-d piece of an ideal with homogeneous generators h_i is the
    GF(p)-span of the monomial shifts m*h_i with deg(m*h_i) = d, so
    membership of a homogeneous element is a finite linear-algebra check;
    no basis computation is involved.
    """

    def __init__(self, generators: Sequence[Polynomial], ring: RingSpec):
        self.ring = ring
        gens = []
        for g in generators:
            if g.is_zero():
                continue
            if g.ring != ring:
                raise ValueError("ring mismatch")
            if not g.is_homogeneous():
                raise ValueError("graded membership needs homogeneous generators")
            gens.append(g)
        self.generators = tuple(gens)
        self._slices: dict = {}

    def _slice(self, d: int) -> SliceEchelon:
        ech = self._slices.get(d)
        if ech is None:
            key = key_function(self.ring)
            ech = SliceEchelon(key, self.ring.field.p)
            for g in self.generators:
                dg = g.weighted_degree()
                if dg > d:
                    continue
                for m in monomials_of_weighted_degree(self.ring.weights, d - dg):
                    row = {tuple(a + b for a, b in zip(mm, m)): c for mm, c in g.terms}
                    ech.add_row(row)
            self._slices[d] = ech
        return ech

    def slice_echelon(self, d: int) -> SliceEchelon:
        return self._slice(d).copy()

    def contains(self, f: Polynomial) -> bool:
        if f.is_zero():
            return True
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        if not f.is_homogeneous():
            raise ValueError("graded membership needs a homogeneous element")
        return self._slice(f.weighted_degree()).reduces_to_zero(dict(f.terms))


def slice_minimal_generators_mod(gens: Sequence[Polynomial], modulus: Ideal):
    """Greedy minimalization of module generators modulo an ideal.

    Processes candidates in ascending weighted degree (ties by the ring
    order) and drops g whenever g lies in modulus + (the remaining
    candidates).  All inputs must be homogeneous; by graded Nakayama the
    surviving count is an invariant of the module even though the chosen
    representatives are not.
    """
    ring = modulus.ring
    cands = []
    seen = set()
    for g in gens:
        if g.ring != ring:
            raise ValueError("ring mismatch")
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            raise ValueError("minimal generators need homogeneous input")
        if g not in seen:
            seen.add(g)
            cands.append(g)
    if not modulus.is_homogeneous():
        raise ValueError("minimal generators need a homogeneous modulus")
    key = key_function(ring)
    cands.sort(key=lambda g: (g.weighted_degree(), key(g.leading_monomial())))
    base = GradedMembership(modulus.generators, ring)
    alive = [True] * len(cands)
    for i, g in enumerate(cands):
        d = g.weighted_degree()
        ech = base.slice_echelon(d)
        for j, h in enumerate(cands):
            if j == i or not alive[j]:
                continue
            dh = h.weighted_degree()
            if dh > d:
                continue
            for m in monomials_of_weighted_degree(ring.weights, d - dh):
                row = {tuple(a + b for a, b in zip(mm, m)): c for mm, c in h.terms}
                ech.add_row(row)
        if ech.reduces_to_zero(dict(g.terms)):
            alive[i] = False
    return [g for i, g in enumerate(cands) if alive[i]]
