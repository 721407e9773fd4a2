"""Groebner-basis engine over GF(p).

Reduced bases via Buchberger's algorithm with the Gebauer-Moeller form of
both pair-elimination criteria, normal forms, ideal equality, intersection
and colon ideals through a single elimination mechanism, Frobenius powers,
minimal generators of graded quotient modules, and division-lifting by a
nonzerodivisor.

Buchberger keeps each live S-pair with the lcm of its leads and takes
pairs from a heap keyed by (weighted degree of the lcm, order key of the
lcm, pair), so no pair's lcm or degree is recomputed.  A pair that a
Gebauer-Moeller update drops stays in the heap and is skipped when popped;
updates only ever add pairs with the new element, so a dropped pair never
returns.  Reduction screens divisors with divisibility masks (one bit per
variable that occurs) before the exact exponent test, and still takes the
first divisor in basis order.  Heaps and masks live for one call.

Ideal values are logically immutable; the per-ideal basis cache and the
process-wide content-addressed memo are the only mutation points, and
concurrent fills of one key always carry identical canonical values.
"""

from __future__ import annotations

import hashlib
import itertools
from heapq import heapify, heappop, heappush
from operator import add, le, neg, sub
from typing import Iterable, Optional, Sequence

from .polyring import (
    GREVLEX,
    Order,
    Polynomial,
    RingMismatch,
    RingSpec,
    _key_function,
    mono_divides,
    monomials_of_weighted_degree,
)

DEFAULT_DEGREE_GUARD = 120


class DegreeGuardExceeded(RuntimeError):
    """Raised when an intermediate polynomial exceeds the weighted-degree cap.

    `phase` says where: "pair lcm" when the next S-pair's lcm is above the
    guard, "remainder" when a reduced S-polynomial is.
    """

    def __init__(self, degree: int, guard: int, phase: str):
        super().__init__(
            f"intermediate weighted degree {degree} ({phase}) exceeds the degree "
            f"guard {guard}; the input is likely intractable at this setting"
        )
        self.degree = degree
        self.guard = guard
        self.phase = phase


class NoLiftExists(ValueError):
    pass


class LiftVerificationError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# core engine on plain dicts {mono: coeff}

def _spoly(f, g, lcm, p):
    """S-polynomial of monic (lm, tail) pairs whose leads have this lcm;
    returns a dict."""
    lmf, tailf = f
    lmg, tailg = g
    sf = tuple(map(sub, lcm, lmf))
    sg = tuple(map(sub, lcm, lmg))
    acc = {tuple(map(add, m, sf)): c for m, c in tailf}
    for m, c in tailg:
        mm = tuple(map(add, m, sg))
        v = (acc.get(mm, 0) - c) % p
        if v:
            acc[mm] = v
        elif mm in acc:
            del acc[mm]
    return acc


def _reduce_full(fd, basis, key, p):
    """Full normal form of the dict fd against monic basis [(lm, tail), ...].

    Each term, largest first, is reduced by the first entry in basis order
    whose lead divides it.  A lead can divide m only if its divisibility
    mask (bit k set when variable k occurs) lies inside the mask of m, so
    the entries that pass that test are listed once per mask of m, and only
    they get the exact test.
    """
    work = dict(fd)
    if not work:
        return work
    bits = tuple(1 << k for k in range(len(next(iter(work)))))
    masks = [sum(itertools.compress(bits, lm)) for lm, _ in basis]
    fits = {}  # mask of m -> the entries whose lead mask lies inside it
    heap = [(tuple(map(neg, key(m))), m) for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue
        mask = sum(itertools.compress(bits, m))
        candidates = fits.get(mask)
        if candidates is None:
            candidates = fits[mask] = [entry for entry, lmask in zip(basis, masks)
                                       if not lmask & ~mask]
        for lm, tail in candidates:
            if all(map(le, lm, m)):
                break
        else:
            remainder[m] = c
            continue
        shift = tuple(map(sub, m, lm))
        for mm, cc in tail:
            mono = tuple(map(add, mm, shift))
            old = work.get(mono)
            v = ((old or 0) - c * cc) % p
            if v:
                work[mono] = v
                if old is None:
                    heappush(heap, (tuple(map(neg, key(mono))), mono))
            elif old is not None:
                del work[mono]
    return remainder


def _make_entry(fd, key, p):
    """(lm, tail) with unit leading coefficient, tail sorted descending."""
    lm = max(fd, key=key)
    inv = pow(fd[lm], p - 2, p)
    tail = tuple(
        sorted(((m, c * inv % p) for m, c in fd.items() if m != lm),
               key=lambda t: key(t[0]), reverse=True)
    )
    return lm, tail


def _entry_dict(entry, p):
    lm, tail = entry
    d = dict(tail)
    d[lm] = 1
    return d


def _gm_update(lms, pairs, t, key):
    """Gebauer-Moeller pair update when basis element t is appended.

    Implements both Buchberger criteria: pairs whose leading monomials are
    coprime are never created, and pairs made redundant by the new element
    (chain criterion) are discarded.  `pairs` maps each live pair (i, j) to
    the lcm of its leads.  Returns the pairs that stay live, in the same
    form, and the list of new pairs ((i, t), lcm); every new pair involves
    t, so no pair dropped here ever comes back.
    """
    lmt = lms[t]
    with_t = [tuple(map(max, lm, lmt)) for lm in lms[:t]]  # lcm(lms[i], lmt)
    kept = {ij: lij for ij, lij in pairs.items()
            if not mono_divides(lmt, lij) or with_t[ij[0]] == lij or with_t[ij[1]] == lij}
    by_lcm = {}
    for i, lcm in enumerate(with_t):
        by_lcm.setdefault(lcm, []).append(i)
    minimal = []
    for lcm in sorted(by_lcm, key=key):
        if not any(mono_divides(prev, lcm) for prev in minimal):
            minimal.append(lcm)
    new = []
    for lcm in minimal:
        group = by_lcm[lcm]  # ascending
        if not any(tuple(map(add, lms[i], lmt)) == lcm for i in group):
            new.append(((group[0], t), lcm))
    kept.update(new)
    return kept, new


def _buchberger(inputs, ring, order, guard):
    """Reduced Groebner basis of the input dicts; returns [(lm, tail), ...]
    sorted ascending by leading monomial."""
    p = ring.field.p
    key = _key_function(ring, order)
    wdeg = ring.weighted_degree

    seen = set()
    start = []
    for fd in inputs:
        if not fd:
            continue
        entry = _make_entry(fd, key, p)
        sig = (entry[0], entry[1])
        if sig not in seen:
            seen.add(sig)
            start.append(entry)
    start.sort(key=lambda e: key(e[0]))

    basis = []
    lms = []
    pairs = {}  # live pair (i, j) -> lcm of the two leads
    queue = []  # (wdeg(lcm), key(lcm), (i, j), lcm), live or dropped

    def extend_basis(r):
        nonlocal pairs
        basis.append(_make_entry(r, key, p))
        lms.append(basis[-1][0])
        pairs, new = _gm_update(lms, pairs, len(basis) - 1, key)
        for ij, lcm in new:
            heappush(queue, (wdeg(lcm), key(lcm), ij, lcm))

    for entry in start:
        r = _reduce_full(_entry_dict(entry, p), basis, key, p)
        if r:
            extend_basis(r)

    while queue:
        d, _, ij, lcm = heappop(queue)
        if pairs.pop(ij, None) is None:
            continue
        if d > guard:
            raise DegreeGuardExceeded(d, guard, "pair lcm")
        s = _spoly(basis[ij[0]], basis[ij[1]], lcm, p)
        r = _reduce_full(s, basis, key, p)
        if not r:
            continue
        top = max(wdeg(m) for m in r)
        if top > guard:
            raise DegreeGuardExceeded(top, guard, "remainder")
        extend_basis(r)

    # minimalize: drop entries whose lead is a multiple of another lead
    order_idx = sorted(range(len(basis)), key=lambda i: key(lms[i]))
    kept = []
    for i in order_idx:
        if not any(mono_divides(lms[j], lms[i]) for j in kept):
            kept.append(i)
    minimal = [basis[i] for i in kept]

    # interreduce tails against the full minimal set
    reduced = []
    for i, entry in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = _reduce_full(_entry_dict(entry, p), others, key, p)
        reduced.append(_make_entry(r, key, p))
    reduced.sort(key=lambda e: key(e[0]))
    return reduced


# --------------------------------------------------------------------------
# content-addressed caching

_GB_MEMO: dict = {}
_PERSISTENT = None


def set_persistent_cache(store) -> None:
    """Install (or clear, with None) a persistent basis store.

    The store must offer get(key, ring) -> list[Polynomial] | None and
    put(key, ring, basis).
    """
    global _PERSISTENT
    _PERSISTENT = store


def clear_memo() -> None:
    _GB_MEMO.clear()


def _normalized_gens(gens: Sequence[Polynomial]):
    out = sorted({g.monic() for g in gens if not g.is_zero()}, key=lambda g: str(g))
    return tuple(out)


def _content_key(ring: RingSpec, order: Order, normalized) -> str:
    h = hashlib.sha256()
    h.update(repr((ring.field.p, ring.variables, ring.weights, order.tag)).encode())
    for g in normalized:
        h.update(b"\x00")
        h.update(str(g).encode())
    return h.hexdigest()


def groebner_basis(gens: Sequence[Polynomial], ring: RingSpec,
                   order: Optional[Order] = None,
                   degree_guard: Optional[int] = None):
    """Reduced Groebner basis, ascending by leading monomial; deterministic
    for a fixed order regardless of internal scheduling."""
    order = order or ring.order
    guard = DEFAULT_DEGREE_GUARD if degree_guard is None else degree_guard
    normalized = _normalized_gens(gens)
    if not normalized:
        return ()
    key = _content_key(ring, order, normalized)
    hit = _GB_MEMO.get(key)
    if hit is not None:
        return hit
    if _PERSISTENT is not None:
        stored = _PERSISTENT.get(key, ring)
        if stored is not None:
            basis = tuple(stored)
            _GB_MEMO[key] = basis
            return basis
    p = ring.field.p
    entries = _buchberger([dict(g.terms) for g in normalized], ring, order, guard)
    basis = tuple(Polynomial(ring, _entry_dict(e, p)) for e in entries)
    _GB_MEMO[key] = basis
    if _PERSISTENT is not None:
        _PERSISTENT.put(key, ring, basis)
    return basis


def _seed_memo(ring: RingSpec, order: Order, basis) -> None:
    """Record an already-reduced basis under its own content key."""
    normalized = _normalized_gens(basis)
    _GB_MEMO.setdefault(_content_key(ring, order, normalized), tuple(basis))


# --------------------------------------------------------------------------
# ideals

class Ideal:
    """An ideal of GF(p)[x1..xn] with a lazily computed reduced basis per order."""

    def __init__(self, ring: RingSpec, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError(f"ideal generators must be polynomials: {g!r}")
            if g.ring != ring:
                raise RingMismatch("ring mismatch")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self.gb_cache: dict = {}

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def groebner_basis(self, order: Optional[Order] = None,
                       degree_guard: Optional[int] = None):
        order = order or self.ring.order
        basis = self.gb_cache.get(order.tag)
        if basis is None:
            basis = groebner_basis(self.generators, self.ring, order, degree_guard)
            self.gb_cache[order.tag] = basis
        return basis

    def _basis_entries(self, order: Order, degree_guard: Optional[int]):
        """The reduced basis as the (lead, tail) pairs that _reduce_full takes."""
        return [(g.leading_monomial(), g.terms[1:])
                for g in self.groebner_basis(order, degree_guard)]

    def normal_form(self, f: Polynomial, order: Optional[Order] = None,
                    degree_guard: Optional[int] = None) -> Polynomial:
        """Unique remainder of f against the reduced basis; 0 iff f is a member."""
        if f.ring != self.ring:
            raise RingMismatch("ring mismatch")
        order = order or self.ring.order
        entries = self._basis_entries(order, degree_guard)
        if not entries:
            return f
        p = self.ring.field.p
        key = _key_function(self.ring, order)
        r = _reduce_full(dict(f.terms), entries, key, p)
        return Polynomial(self.ring, r)

    def contains(self, f: Polynomial, degree_guard: Optional[int] = None) -> bool:
        return self.normal_form(f, degree_guard=degree_guard).is_zero()

    def contains_ideal(self, other: "Ideal", degree_guard: Optional[int] = None) -> bool:
        if other.ring != self.ring:
            raise RingMismatch("ring mismatch")
        return all(self.contains(g, degree_guard) for g in other.generators)

    def is_proper(self, degree_guard: Optional[int] = None) -> bool:
        basis = self.groebner_basis(degree_guard=degree_guard)
        return not any(b.weighted_degree() == 0 for b in basis)

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch("ring mismatch")
        return Ideal(self.ring, self.generators + other.generators)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ideal):
            return NotImplemented
        return ideal_equal(self, other)

    __hash__ = None  # equal ideals may carry different generators


def ideal_equal(lhs: Ideal, rhs: Ideal, degree_guard: Optional[int] = None) -> bool:
    """True iff the reduced bases under a common order coincide term for term."""
    if lhs.ring != rhs.ring:
        raise RingMismatch("ring mismatch")
    return lhs.groebner_basis(degree_guard=degree_guard) == rhs.groebner_basis(degree_guard=degree_guard)


# --------------------------------------------------------------------------
# elimination constructions

def _extended_ring(ring: RingSpec) -> RingSpec:
    name = "t"
    while name in ring.variables:
        name += "_"
    return RingSpec(ring.field, (name,) + ring.variables, (1,) + ring.weights,
                    Order("elim", 1))


def _lift_poly(f: Polynomial, ext: RingSpec) -> Polynomial:
    return Polynomial(ext, {(0,) + m: c for m, c in f.terms})


def _project_poly(f: Polynomial, ring: RingSpec) -> Polynomial:
    return Polynomial(ring, {m[1:]: c for m, c in f.terms})


def intersect(lhs: Ideal, rhs: Ideal, degree_guard: Optional[int] = None) -> Ideal:
    """Ideal intersection via an auxiliary variable and elimination."""
    if lhs.ring != rhs.ring:
        raise RingMismatch("ring mismatch")
    ring = lhs.ring
    if lhs.is_zero() or rhs.is_zero():
        return Ideal(ring, ())
    ext = _extended_ring(ring)
    t = ext.variable(ext.variables[0])
    one_minus_t = ext.one() - t
    gens = [t * _lift_poly(g, ext) for g in lhs.generators]
    gens += [one_minus_t * _lift_poly(g, ext) for g in rhs.generators]
    basis = groebner_basis(gens, ext, ext.order, degree_guard)
    kept = [g for g in basis if g.leading_monomial()[0] == 0]
    projected = [_project_poly(g, ring) for g in kept]
    result = Ideal(ring, projected)
    if ring.order == GREVLEX and projected:
        # the t-free part of the elimination basis is already the reduced
        # grevlex basis of the intersection
        _seed_memo(ring, GREVLEX, projected)
        result.gb_cache[GREVLEX.tag] = tuple(projected)
    return result


def _divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g for exactly divisible f; internal assertion otherwise."""
    ring = f.ring
    p = ring.field.p
    key = _key_function(ring, ring.order)
    lmg = g.leading_monomial()
    lcg_inv = ring.field.inv(g.leading_coefficient())
    work = dict(f.terms)
    quotient: dict = {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        shift = tuple(a - b for a, b in zip(m, lmg))
        if any(e < 0 for e in shift):
            raise ArithmeticError("colon division failure: intersection element "
                                  "not exactly divisible")
        qc = c * lcg_inv % p
        quotient[shift] = qc
        for mm, cc in g.terms:
            if mm == lmg:
                continue
            mono = tuple(x + y for x, y in zip(mm, shift))
            v = (work.get(mono, 0) - qc * cc) % p
            if v:
                work[mono] = v
            elif mono in work:
                del work[mono]
    return Polynomial(ring, quotient)


def colon(lhs: Ideal, rhs: Ideal, degree_guard: Optional[int] = None) -> Ideal:
    """The colon ideal lhs : rhs = { g : g*rhs contained in lhs }."""
    if lhs.ring != rhs.ring:
        raise RingMismatch("ring mismatch")
    if rhs.is_zero():
        raise ValueError("colon by the zero ideal")
    ring = lhs.ring
    result: Optional[Ideal] = None
    for f in rhs.generators:
        meet = intersect(lhs, Ideal(ring, (f,)), degree_guard)
        quotient = Ideal(ring, [_divide_exact(b, f) for b in meet.generators])
        result = quotient if result is None else intersect(result, quotient, degree_guard)
    basis = result.groebner_basis(degree_guard=degree_guard)
    final = Ideal(ring, basis)
    final.gb_cache[ring.order.tag] = basis
    return final


def frobenius_power(ideal: Ideal, e: int) -> Ideal:
    """The ideal generated by the p^e-th powers of the given generators."""
    if e < 0:
        raise ValueError("Frobenius exponent must be non-negative")
    return Ideal(ideal.ring, tuple(g.frobenius_power(e) for g in ideal.generators))


def ideal_power(ideal: Ideal, n: int) -> Ideal:
    """Ordinary ideal power: all n-fold products of generators (n >= 0)."""
    if n < 0:
        raise ValueError("ideal power must be non-negative")
    if n == 0:
        return Ideal(ideal.ring, (ideal.ring.one(),))
    gens = []
    for combo in itertools.combinations_with_replacement(ideal.generators, n):
        prod = combo[0]
        for g in combo[1:]:
            prod = prod * g
        gens.append(prod)
    return Ideal(ideal.ring, gens)


# --------------------------------------------------------------------------
# minimal generators of graded modules over normal forms

class _Echelon:
    """Sparse row echelon over GF(p), pivot-monomial indexed."""

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


def minimal_generators_mod(gens: Sequence[Polynomial], modulus: Ideal,
                           degree_guard: Optional[int] = None):
    """Greedy minimalization of module generators modulo an ideal.

    Candidates are taken in ascending weighted degree (ties by the ring
    order) and g is dropped whenever it lies in modulus + (the remaining
    candidates).  All inputs must be homogeneous; by graded Nakayama the
    surviving count is an invariant of the module even though the chosen
    representatives are not.

    The work happens on normal forms modulo the reduced basis of the
    modulus, which for a homogeneous ideal is a linear map on each degree
    slice with the modulus's slice as kernel.  Each degree d gets one
    echelon: first the normal forms of every shift, to degree d, of the
    generators kept in lower degrees, then the degree-d candidates in
    descending order, each kept exactly when it raises the rank.  Inserting
    in descending order keeps the same basis as deleting in ascending order
    (both give the unique greedy basis of the quotient matroid), so the
    survivors are those of the drop-if-redundant rule above.
    """
    ring = modulus.ring
    cands = []
    seen = set()
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("ring mismatch")
        if g.is_zero():
            continue
        if not g.is_homogeneous():
            raise ValueError("minimal generators need homogeneous input")
        if g not in seen:
            seen.add(g)
            cands.append(g)
    if not modulus.is_homogeneous():
        raise ValueError("minimal generators need a homogeneous modulus")
    p = ring.field.p
    key = _key_function(ring, ring.order)
    basis = modulus._basis_entries(ring.order, degree_guard)
    cands.sort(key=lambda g: (g.weighted_degree(), key(g.leading_monomial())))
    kept = []  # (generator, degree, normal form), ascending
    for d, group in itertools.groupby(cands, key=lambda g: g.weighted_degree()):
        ech = _Echelon(key, p)
        for _, dh, form in kept:
            for m in monomials_of_weighted_degree(ring.weights, d - dh):
                ech.add_row(_reduce_full(
                    {tuple(a + b for a, b in zip(mm, m)): c for mm, c in form.items()},
                    basis, key, p))
        survivors = []
        for g in reversed(list(group)):
            form = _reduce_full(dict(g.terms), basis, key, p)
            if ech.add_row(form):
                survivors.append((g, d, form))
        kept.extend(reversed(survivors))
    return [g for g, _, _ in kept]


def lift_by_nzd(g: Polynomial, m: Polynomial, modulus: Ideal,
                degree_guard: Optional[int] = None) -> Polynomial:
    """Find f with m*f = g modulo the given ideal, m a nonzerodivisor there.

    The nonzerodivisor property is caller-asserted; the computed lift is
    verified before returning, and a failed verification signals that the
    precondition was violated.
    """
    ring = modulus.ring
    if g.ring != ring or m.ring != ring:
        raise RingMismatch("ring mismatch")
    if m.is_zero():
        raise ValueError("cannot lift along the zero divisor candidate 0")
    s = modulus.normal_form(g, degree_guard=degree_guard)
    if s.is_zero():
        return ring.zero()
    extended = modulus + Ideal(ring, (m,))
    if not extended.contains(g, degree_guard):
        raise NoLiftExists("no lift exists: the element is not in modulus + (m)")
    colon_ideal = colon(modulus + Ideal(ring, (g,)), Ideal(ring, (m,)), degree_guard)
    homogeneous = (g.is_homogeneous() and m.is_homogeneous()
                   and modulus.is_homogeneous())
    if homogeneous:
        candidates = minimal_generators_mod(colon_ideal.groebner_basis(degree_guard=degree_guard),
                                            modulus, degree_guard)
        target = g.weighted_degree() - m.weighted_degree()
        candidates = [f for f in candidates if f.weighted_degree() == target]
    else:
        candidates = [f for f in colon_ideal.groebner_basis(degree_guard=degree_guard)
                      if not modulus.contains(f, degree_guard)]
    for f in candidates:
        r = modulus.normal_form(m * f, degree_guard=degree_guard)
        lam = _proportionality(r, s, ring)
        if lam is not None:
            lifted = f.scale(ring.field.inv(lam))
            if modulus.contains(m * lifted - g, degree_guard):
                return lifted
    raise LiftVerificationError(
        "no candidate satisfies m*f = g modulo the ideal; the nonzerodivisor "
        "precondition on m was likely violated")


def _proportionality(r: Polynomial, s: Polynomial, ring: RingSpec) -> Optional[int]:
    """The scalar c with r = c*s, or None."""
    if r.is_zero() or s.is_zero():
        return None
    if len(r.terms) != len(s.terms):
        return None
    p = ring.field.p
    lam = r.leading_coefficient() * ring.field.inv(s.leading_coefficient()) % p
    for (mr, cr), (ms, cs) in zip(r.terms, s.terms):
        if mr != ms or cr != cs * lam % p:
            return None
    return lam
