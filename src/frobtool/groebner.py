"""Groebner-basis engine over GF(p).

Reduced bases via Buchberger's algorithm with the Gebauer-Moeller form of
both pair-elimination criteria, normal forms, ideal equality, intersection
and colon ideals through a single elimination mechanism, Frobenius powers,
minimal generators of graded quotient modules, and division-lifting along
a homogeneous nonzerodivisor by one normal form.

Inside the engine a monomial is one int of a `polyring.Packing`, the one
encoding of the ring's order, taken per call at the boundary (a whole colon
is one call): inputs are packed once on entry and results unpacked once on
exit, already in canonical order (a long result field by field); another
order is another ring, as in the elimination constructions.  One hand-off
stays packed: given `into`, a packing of the ring that holds the colon
chain's bound, the chain runs at its width and returns its reduced basis
both as polynomials and as monic entries in `into`, and
frobenius.component minimalizes the entries as they are (`_colon`,
`_minimal_forms`), which returns the (degree, lead, form) triples it takes
and mutates no form, so fingen_probe passes them on.  Polynomials remain
what the store, the reports and the public API hold, since they
outlive a call and must not depend on its packing.  The fields are sized
for a degree bound each call proves, with no bits to spare: on weighted
grevlex or homogeneous input no term lies above its lead in degree, so a
Buchberger run stays within twice the largest of its input degrees and
the guard (a pair lcm, packed when the pair is made), a colon chain within
twice the sum of that, the largest divisor degree and one for t
(`_chain_bound`), a normal form within its input and basis degrees.
Inhomogeneous input on lex and elimination orders has no such bound and
gets SPARE_BITS of headroom (`polyring._headroom`).  Reduction checks the
guard bits of every new product: a sum of two valid fields cannot carry,
so an overflow always shows there and raises ArithmeticError instead of
wrapping into a wrong answer.  Below the bound nothing overflows, and a
packed computation is exact at any width that does not overflow, so the
width changes no step.

Buchberger keeps each live S-pair with the lcm of its leads and takes
pairs from a heap keyed by (the caller's grading of the lcm, lcm, pair),
so no pair's lcm or grade is recomputed.  groebner_basis grades by the
weighted degree; an elimination by the weighted degree of the ring's own
variables, t counting 0, in which its inputs t*a and (1-t)*b are
homogeneous when a and b are, so its run goes degree by degree (the
normal strategy of the homogeneous case, with no new variable and no
saturation).  A pair that a Gebauer-Moeller update drops stays in the
heap and is skipped when popped; updates only ever add pairs with the new
element, so a dropped pair never returns.  The update works on the
exponent parts P of the leads, in one pass over the new lcms: the P part
of an lcm is the fieldwise max, taken by SWAR operations on the packed
ints, while the K fields of an lcm are no such max, so only the pairs it
keeps as new get a full packed lcm.  Buchberger returns a minimal basis,
ascending by lead; groebner_basis interreduces it, and the colon chain
(intersect included) only its final quotients.

Reduction takes the first divisor in basis order, found through a divisor
index kept beside the basis (`_Divisors`): per variable, the distinct lead
exponents in ascending order, each with the bitset of the entries whose
lead has at most that exponent there.  The AND over the variables of the
sets at a term's exponents holds exactly the leads that divide it, and its
lowest bit is the first of them; an empty AND ends the lookup early.  The
index catches up with its basis lazily, so it serves as long as the basis
only grows: one per Buchberger main loop and one for interreduction.  Each
ideal keeps one, complete when made, for all its normal forms;
minimal_generators_mod makes its own in the packing of its candidates.

Colon.  B ∩ (lhs : (f_1..f_k)) is a chain of k eliminations: R_0 = B and
R_i = (lhs ∩ f_i*R_{i-1})/f_i.  Two identities make it exact.  First,
lhs : (f_1..f_k) is the intersection of the lhs : f_i.  Second, because
the polynomial ring is a domain, R ∩ (J : f) = (J ∩ f*R)/f: g lies in R
with f*g in J exactly when f*g lies in J ∩ f*R.  So R_i = R_{i-1} ∩
(lhs : f_i) for any R_0, and R_k = B ∩ (lhs : rhs), without intersecting
quotients with each other.  colon takes B = (1), so R_k = lhs : rhs;
intersect takes the one divisor 1, so R_1 = B ∩ lhs.  The whole chain
runs in one packing of the ring extended by t, ordered by t-degree and
then by weighted grevlex (`_Elimination`): t*g is packed once per
generator g of lhs, each (1-t)*f_i*q is formed by adding packed
monomials, the t-free entries are taken straight from the Buchberger
output (a t-free lead means a t-free entry), and the division by f_i is
exact on packed dicts.

A step whose divisor already maps the running quotient into lhs is
skipped.  Each elimination returns the whole minimal basis of
K = t*lhs + (1-t)*f_j*R_{j-1} at its step j, and h lies in lhs exactly
when t*h lies in K, whatever R_{j-1} is: t*lhs lies in K, and
t*h = t*a + (1-t)*b with a in lhs gives h = a at t = 1.
So before step i >= 2 each t*f_i*q, over the quotients q of R_{i-1}, is
reduced against that basis; if all reduce to zero, R_{i-1} lies in
lhs : f_i, so R_i = R_{i-1} and the quotients are kept.  The check
computes no basis of lhs and touches no store; the basis of K is held
only for it, dropped before the elimination that replaces it and before
the final basis.  A skipped step runs no Buchberger, so it cannot abort.
On a grevlex ring, when the skipped steps are the last ones (as in every
I^[q] : I measured on the 2x3 minors and the twisted cubic), the
eliminations that run are the first ones of the chain without skips,
input for input, so a guard that aborted a colon may now let it finish,
never the other way round.  An elimination after a skipped step, or the
final Buchberger run on another ring order, starts from another basis
of the same ideal, so its guard outcome is not tied to that chain's.
Both guard checks of an elimination, on the next pair's lcm and on each
remainder, read the full weighted degree, t included, so the width rule
holds; but its pairs are popped by the ring's own degree, so on some
inputs the first pair or remainder above the guard is another one than
under the full degree, and an abort may move to another degree or phase,
or appear or vanish.

The last elimination run also gives the final basis: its t-free part is a
minimal grevlex basis of J ∩ f*R, the leads of f*R are lm(f) times those
of R, and lm(b/f) = lm(b)/lm(f), so the monic quotients are a minimal
grevlex basis of R.  _Elimination.reduced finishes it with the code that
finishes groebner_basis (`_finished`), in the ring's packing.  On a
grevlex ring that is no move: a t-free monomial of the elimination packing
is already the int of the ring's packing of the same width (the layout of
`polyring.Packing`), so the quotients are interreduced as they stand, each
tail term screened by degree and only the reducible ones reduced
(`_interreduce`), and unpacked, born sorted, with no sort (`_make_entry`);
the entries are kept only for a caller that passed `into`.  On any other
order it runs Buchberger once in the ring's order, with no store, first.
The persistent store sees whole colons: one entry per colon, keyed by its
normalized lhs and rhs.  intersect consults no store.

Lift.  lift_by_nzd(g, m, J), J and m homogeneous, deg m > 0, adjoins t of
weight deg m, last in weighted grevlex, and takes r = NF(g) modulo the
homogeneous K = J + (t - m).  A homogeneous polynomial whose lead has t has
t in every term, so reducing t*h against K keeps t: t divides NF(t*h)
(Bayer and Stillman, "A criterion for detecting m-regularity", Invent. Math.
1987: in(K) : t = in(K) when t, like m, is a nonzerodivisor).  As g = m*f
modulo J gives g = t*f modulo K, r = t*r', and r' at t = m, reduced modulo
J, is the lift, unique as m is a nonzerodivisor; g need not be homogeneous.
A t-free term in r means g is not in J + (m) (NoLiftExists), or else an
internal fault (LiftVerificationError).  A unit m needs no t: NF(g)/m.

Ideal values are logically immutable; the per-ideal basis cache is their
only mutation point.  The engine keeps no process-wide state of results: a
basis or colon comes from its inputs, or from the persistent store when one
is installed (`set_persistent_cache`), whose concurrent fills of one key
always carry identical canonical values.  So a call's result and its guard
outcome do not depend on what ran before it in the process.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from functools import wraps
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .polyring import (
    GREVLEX,
    Order,
    Polynomial,
    RingMismatch,
    RingSpec,
    _headroom,
    _overflow,
    _packing,
    _unpacked,
    monomials_of_weighted_degree,
)

DEFAULT_DEGREE_GUARD = 120
# the most leads of lower degree that `_interreduce` tests a tail term
# against one by one: on the tails of the minors p=2 e=4 and e=5 colons
# (six variables), 12 such tests cost as much as one divisor-index lookup
FEW_LEADS = 12


class DegreeGuardExceeded(RuntimeError):
    """Raised when an intermediate polynomial exceeds the weighted-degree cap.

    `phase` says where: "pair lcm" when the next S-pair's lcm is above the
    guard, "remainder" when a reduced S-polynomial is.  `context`, when
    given, names the construction that ran the basis, such as the step of
    a Frobenius component.
    """

    def __init__(self, degree: int, guard: int, phase: str, context: Optional[str] = None):
        where = f" in {context}" if context else ""
        super().__init__(
            f"intermediate weighted degree {degree} ({phase}) exceeds the degree "
            f"guard {guard}{where}; the input is likely intractable at this setting"
        )
        self.degree = degree
        self.guard = guard
        self.phase = phase
        self.context = context


@contextmanager
def _guard_context(context: str):
    """Name the construction `context` in a degree-guard abort or a
    MemoryError inside it; the MemoryError is re-raised, not replaced."""
    try:
        yield
    except DegreeGuardExceeded as exc:
        raise DegreeGuardExceeded(exc.degree, exc.guard, exc.phase, context) from exc
    except MemoryError as exc:
        exc.args = (f"out of memory in {context}",)
        raise


def _collector_paused(fn):
    """`fn` with Python's cyclic garbage collector paused while it runs, and
    resumed after if it was on.  The engine's working data are dicts,
    tuples and ints that form no reference cycles (a whole probe leaves a
    few dozen cyclic objects), so the collector finds nothing in them: its
    passes only walk the growing working set again, at points set by how
    much the process allocated before the call.  Paused, a computation
    takes the same steps whatever ran before it.  The pause is process-wide,
    so another thread's cyclic garbage waits for the end of the call."""
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class NoLiftExists(ValueError):
    pass


class LiftVerificationError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# core engine on packed dicts {M: coeff}

def _spoly(f, g, lcm, p):
    """S-polynomial of monic (lm, tail) pairs whose leads have this lcm;
    returns a dict."""
    lmf, tailf = f
    lmg, tailg = g
    sf = lcm - lmf
    sg = lcm - lmg
    acc = {m + sf: c for m, c in tailf}
    for m, c in tailg:
        mm = m + sg
        v = (acc.get(mm, 0) - c) % p
        if v:
            acc[mm] = v
        elif mm in acc:
            del acc[mm]
    return acc


class _Divisors:
    """Divisor index over the leads of a basis that only grows.

    One column per variable k: its shift in the packing, `vals`, the
    distinct exponents of k among the leads in ascending order, and
    `sets`, where `sets[j]` is the bitset of the entries whose lead has
    exponent at most `vals[j]` in k.  `vals` always starts at 0, so every
    exponent has a slot.  A lead divides m exactly when it lies in every
    column's set at m's exponent, so the AND of those sets holds all
    divisors of m, and its lowest bit is the first in basis order.  Only
    distinct values get a set, so adding an entry costs one set per value
    at or above its exponent.
    """

    def __init__(self, pk):
        self.mask = pk.mask
        self.columns = [(s, [0], [0]) for s in pk._exponent_shifts]
        self.size = 0

    def sync(self, basis):
        """Index the entries appended to `basis` since the last call."""
        mask = self.mask
        for i in range(self.size, len(basis)):
            bit = 1 << i
            lm = basis[i][0]
            for s, vals, sets in self.columns:
                e = (lm >> s) & mask
                j = bisect_left(vals, e)
                if j == len(vals) or vals[j] != e:
                    vals.insert(j, e)
                    sets.insert(j, sets[j - 1])
                for j in range(j, len(sets)):
                    sets[j] |= bit
        self.size = len(basis)

    def first(self, m):
        """Index of the first entry whose lead divides m, or -1."""
        mask = self.mask
        x = -1
        for s, vals, sets in self.columns:
            x &= sets[bisect_right(vals, (m >> s) & mask) - 1]
            if not x:
                return -1
        return (x & -x).bit_length() - 1


def _reduce_full(fd, basis, pk, index):
    """Full normal form of the packed dict fd against monic packed entries
    [(lm, tail), ...].

    Each term, largest first, is reduced by the first entry in basis order
    whose lead divides it, found through `index`: the _Divisors kept beside
    `basis`, which it brings up to date first.
    """
    p, gbits = pk.p, pk.guard_bits
    if any(m & gbits for m in fd):
        raise _overflow(pk.width)
    index.sync(basis)
    first = index.first
    work = dict(fd)
    heap = [-m for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        i = first(m)
        if i < 0:
            remainder[m] = c
            continue
        lm, tail = basis[i]
        shift = m - lm
        for mm, cc in tail:
            mono = mm + shift
            old = work.get(mono)
            v = ((old or 0) - c * cc) % p
            if v:
                work[mono] = v
                if old is None:
                    if mono & gbits:
                        raise _overflow(pk.width)
                    heappush(heap, -mono)
            elif old is not None:
                del work[mono]
    return remainder


def _reduce_terms(row, sent, basis, pk, index):
    """`row` made its normal form in place, for `sent` the monomials of the
    terms of `row` that a lead may divide: by linearity, those terms are
    replaced by the normal form of their sum.  Returns `row`, its keys out
    of order."""
    p = pk.p
    for m, c in _reduce_full({m: row.pop(m) for m in sent}, basis, pk, index).items():
        x = (row.get(m, 0) + c) % p
        if x:
            row[m] = x
        else:
            del row[m]
    return row


def _make_entry(fd, p, descending=False):
    """(lm, tail) with unit leading coefficient, tail sorted descending.
    With `descending`, the keys of fd already are, so neither `max` nor a
    sort is needed: `_reduce_full` and `_divide_exact` insert their terms
    largest first, and `_entry_dict` its lead first."""
    items = iter(fd.items() if descending else sorted(fd.items(), reverse=True))
    lm, c = next(items)
    if c == 1:
        return lm, tuple(items)
    inv = pow(c, p - 2, p)
    return lm, tuple((m, x * inv % p) for m, x in items)


def _entry_dict(entry):
    lm, tail = entry
    d = {lm: 1}
    d.update(tail)
    return d


def _gm_update(exps, pairs, t, pk):
    """Gebauer-Moeller pair update when basis element t is appended.

    Implements both Buchberger criteria: pairs whose leading monomials are
    coprime are never created, and pairs made redundant by the new element
    (chain criterion) are discarded.  `exps` holds the exponent parts P of
    the packed leads, and `pairs` maps each live pair (i, j) to the P part
    of the lcm of its leads; every test here runs on P, whose integer order
    (lex) extends divisibility.  Returns the pairs that stay live, in the
    same form, and the list of new pairs ((i, t), lcm) with the full packed
    lcm; every new pair involves t, so no pair dropped here ever comes back.
    """
    hbits = pk.exps_guards
    top = pk.width - 1
    b = exps[t]
    with_t = []  # exponent part of lcm(lead i, lead t): the fieldwise max
    first = {}  # each such lcm -> the first i with it
    coprime = set()  # the lcms of some lead i coprime to lead t
    for i, a in enumerate(exps[:t]):
        ge = ((a | hbits) - b) & hbits  # guard bit set where a's field >= b's
        ge -= ge >> top  # ... spread over that field's value bits
        lcm = a & ge | b & ~ge
        with_t.append(lcm)
        first.setdefault(lcm, i)
        if a + b == lcm:
            coprime.add(lcm)
    kept = {ij: lij for ij, lij in pairs.items()
            if (lij - b) & hbits or with_t[ij[0]] == lij or with_t[ij[1]] == lij}
    minimal = []
    new = []
    for lcm in sorted(first):
        for prev in minimal:
            if not (lcm - prev) & hbits:  # a smaller minimal lcm divides it
                break
        else:
            minimal.append(lcm)
            if lcm not in coprime:
                kept[first[lcm], t] = lcm
                new.append(((first[lcm], t), pk.pack(pk.unpack(lcm))))
    return kept, new


def _interreduce(minimal, pk, degree=None):
    """The reduced basis of a minimal Groebner basis of monic packed
    entries, both ascending by lead.  No lead divides a term below itself,
    so an entry never reduces its own tail.  By linearity only the tail
    terms that a lead divides are reduced (`_reduce_terms`), and an entry
    with none is kept as it is.

    `degree`, if given, is the weighted degree and the first key of the
    order, so the leads ascend by it and no tail term exceeds its lead's
    degree d.  A lead dividing a term is that term or of lower degree, so
    a set lookup among the leads and guard-bit tests against the leads of
    degree below d find the reducible terms, when those leads are at most
    FEW_LEADS (a colon's lowest degrees hold few); else the index does."""
    index = _Divisors(pk)
    index.sync(minimal)
    p, gbits = pk.p, pk.guard_bits
    leads = {lm for lm, _ in minimal}
    degrees = [degree(lm) for lm, _ in minimal] if degree else ()
    reduced = []
    for entry in minimal:
        lm, tail = entry
        # with `degree`, the first k leads are those of lower degree
        k = bisect_left(degrees, degree(lm)) if degree else FEW_LEADS + 1
        if k <= FEW_LEADS:
            ms = [m for m, _ in tail]
            hit = leads.intersection(ms)
            for L, _ in minimal[:k]:
                hit.update([m for m in ms if not (m - L) & gbits])
        else:
            hit = {m for m, _ in tail if index.first(m) >= 0}
        if hit:
            entry = _make_entry(_reduce_terms(_entry_dict(entry), hit, minimal, pk, index), p)
        reduced.append(entry)
    return reduced


def _buchberger(inputs, pk, guard, grading):
    """Minimal Groebner basis of the packed input dicts; returns packed
    [(lm, tail), ...] sorted ascending by leading monomial, for the caller
    to interreduce when it needs the reduced basis.

    Pairs are taken by `grading` of their lcm (a function of a packed
    monomial), then by the lcm itself; both guard checks read the full
    weighted degree `pk.degree`, whatever the grading."""
    p, gbits = pk.p, pk.guard_bits
    degree = pk.degree

    seen = set()
    start = []
    for fd in inputs:
        if not fd:
            continue
        entry = _make_entry(fd, p)
        if entry not in seen:
            seen.add(entry)
            start.append(entry)
    start.sort(key=itemgetter(0))

    basis = []
    lms = []
    exps = []
    index = _Divisors(pk)
    pairs = {}  # live pair (i, j) -> exponent part of the lcm of its leads
    queue = []  # (grading(lcm), lcm, (i, j)), live or dropped

    def extend_basis(r):
        nonlocal pairs
        basis.append(_make_entry(r, p, True))
        lms.append(basis[-1][0])
        exps.append(lms[-1] & pk.exps_mask)
        pairs, new = _gm_update(exps, pairs, len(basis) - 1, pk)
        for ij, lcm in new:
            heappush(queue, (grading(lcm), lcm, ij))

    for entry in start:
        r = _reduce_full(_entry_dict(entry), basis, pk, index)
        if r:
            extend_basis(r)

    while queue:
        _, lcm, ij = heappop(queue)
        if pairs.pop(ij, None) is None:
            continue
        d = degree(lcm)
        if d > guard:
            raise DegreeGuardExceeded(d, guard, "pair lcm")
        s = _spoly(basis[ij[0]], basis[ij[1]], lcm, p)
        r = _reduce_full(s, basis, pk, index)
        if not r:
            continue
        top = max(map(degree, r))
        if top > guard:
            raise DegreeGuardExceeded(top, guard, "remainder")
        extend_basis(r)

    # minimalize: drop entries whose lead is a multiple of another lead
    kept = []
    for i in sorted(range(len(basis)), key=lms.__getitem__):
        if all((lms[i] - lms[j]) & gbits for j in kept):
            kept.append(i)
    return [basis[i] for i in kept]


# --------------------------------------------------------------------------
# content-addressed caching

_PERSISTENT = None


def set_persistent_cache(store) -> None:
    """Install (or clear, with None) a persistent basis store.

    The store must offer get(key, ring) -> list[Polynomial] | None and
    put(key, ring, basis).
    """
    global _PERSISTENT
    _PERSISTENT = store


def _normalized_gens(gens: Sequence[Polynomial]):
    """The distinct monic nonzero generators as (text, polynomial) pairs,
    sorted by text; each text is computed once."""
    monic = {g.monic() for g in gens if not g.is_zero()}
    return tuple(sorted(((str(g), g) for g in monic), key=itemgetter(0)))


def _content_key(ring: RingSpec, normalized, divisors=None) -> str:
    """The store key of the basis of `normalized`, or with
    `divisors`, of the colon normalized : divisors; a colon key starts with
    its own tag, so it never equals a basis key."""
    h = hashlib.sha256()
    if divisors is not None:
        h.update(b"colon\x01")
    h.update(repr((ring.field.p, ring.variables, ring.weights, ring.order.tag)).encode())
    for text, _ in normalized:
        h.update(b"\x00")
        h.update(text.encode())
    if divisors is not None:
        h.update(b"\x01")
        for text, _ in divisors:
            h.update(b"\x00")
            h.update(text.encode())
    return h.hexdigest()


def _memoized(key: str, ring: RingSpec, compute):
    """The basis under `key`: from the persistent store, else compute()
    and put it there."""
    if _PERSISTENT is None:
        return compute()
    stored = _PERSISTENT.get(key, ring)
    if stored is not None:
        return tuple(stored)
    basis = compute()
    _PERSISTENT.put(key, ring, basis)
    return basis


@_collector_paused
def groebner_basis(gens: Sequence[Polynomial], ring: RingSpec,
                   degree_guard: Optional[int] = None):
    """Reduced Groebner basis under the ring's order, ascending by leading
    monomial; deterministic regardless of internal scheduling."""
    guard = DEFAULT_DEGREE_GUARD if degree_guard is None else degree_guard
    normalized = _normalized_gens(gens)
    if not normalized:
        return ()

    return _memoized(_content_key(ring, normalized), ring,
                     lambda: _reduced_basis([g for _, g in normalized], ring, guard)[0])


def _graded(ring: RingSpec, polys) -> bool:
    """Whether no term of a polynomial that reduction or S-polynomials make
    from `polys` in `ring` lies above its lead in weighted degree, so that
    a reduction step adds no term above the one it removes: the order is
    weighted grevlex, whose first key is the weighted degree, or every
    polynomial is homogeneous, which both operations keep."""
    return ring.order.kind == "grevlex" or all(g.is_homogeneous() for g in polys)


def _basis_bound(ring: RingSpec, gens, guard: int) -> int:
    """The weighted degree the packing of a Buchberger run on `gens` holds:
    twice D = max(guard, degrees of `gens`) when `_graded` holds.  Then an
    input's normal form stays within its degree and a kept remainder within
    the guard, which Buchberger checks, so every lead is within D, and the
    lcm of two leads, which `_gm_update` packs for every new pair, pruned
    later or not, within 2*D; an S-polynomial and its reduction stay within
    their lcm.  Otherwise `_headroom(D)`."""
    degree = max([guard] + [g.weighted_degree() for g in gens])
    return 2 * degree if _graded(ring, gens) else _headroom(degree)


def _reduced_basis(gens: Sequence[Polynomial], ring: RingSpec, guard: int, into=None):
    """The reduced basis, ascending by lead, of the nonzero polynomials
    `gens` under the ring's order: one Buchberger run, with no store, in
    `into`, which holds `_basis_bound` (a colon chain's bound does), or
    else in a packing of the ring for it, finished as `_finished` does."""
    pk = into or _packing(ring, _basis_bound(ring, gens, guard))
    return _finished(pk, _buchberger([pk.pack_terms(g.terms) for g in gens], pk, guard,
                                     pk.degree), into)


def _finished(pk, minimal, into):
    """The reduced basis, ascending by lead, of `minimal`, a minimal Groebner
    basis of monic packed entries (lm, tail) in the packing pk, ascending by
    lead: interreduced (`_interreduce`, by degree on weighted grevlex) and
    unpacked entry by entry, born sorted, with no sort.  Returned with its
    monic packed entries when pk is `into`, the packing the caller wants
    them in; else with None, each entry dropped once unpacked.  `minimal`
    is emptied once interreduced, so the caller's list does not hold the
    entries through the unpacking."""
    entries = _interreduce(minimal, pk, pk.degree if pk.ring.order.kind == "grevlex" else None)
    minimal.clear()
    keep = pk is into
    basis = []
    for i, (lm, tail) in enumerate(entries):
        if not keep:
            entries[i] = None  # not held once unpacked
        basis.append(pk.polynomial(((lm, 1),) + tail))
    return tuple(basis), entries if keep else None


# --------------------------------------------------------------------------
# ideals

class Ideal:
    """An ideal of GF(p)[x1..xn] with a lazily computed reduced basis."""

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
        self._reducer_held = None

    @classmethod
    def _from_basis(cls, ring: RingSpec, basis: tuple) -> "Ideal":
        """The ideal whose generators are `basis`, already its reduced basis
        under the ring's order, which it keeps; nothing is validated."""
        self = cls.__new__(cls)
        self.ring, self.generators, self._reducer_held = ring, basis, None
        self.gb_cache = {ring.order.tag: basis}
        return self

    def __repr__(self) -> str:
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    def is_zero(self) -> bool:
        return not self.generators

    def is_homogeneous(self) -> bool:
        return all(g.is_homogeneous() for g in self.generators)

    def groebner_basis(self, degree_guard: Optional[int] = None):
        tag = self.ring.order.tag
        basis = self.gb_cache.get(tag)
        if basis is None:
            basis = self.gb_cache[tag] = groebner_basis(self.generators, self.ring, degree_guard)
        return basis

    def _reducer(self, degree: int, degree_guard: Optional[int]):
        """(packing, packed entries, their _Divisors) of the reduced basis,
        for reducing polynomials of weighted degree up to `degree`; kept,
        so every reduction against it shares one divisor index, and remade
        when a larger degree needs wider fields.  The index is complete
        when made, so reductions only read it.  The packing holds the
        largest of `degree` and the basis degrees when `_graded` holds of
        the basis, since no reduction step then adds a term above the one
        it removes, and has `_headroom` otherwise."""
        held = self._reducer_held
        if held is None or held[0] < degree:
            basis = self.groebner_basis(degree_guard)
            degree = max([degree] + [g.weighted_degree() for g in basis])
            pk = _packing(self.ring, degree if _graded(self.ring, basis) else _headroom(degree))
            entries = [_make_entry(pk.pack_terms(g.terms), pk.p) for g in basis]
            index = _Divisors(pk)
            index.sync(entries)
            held = self._reducer_held = (degree, pk, entries, index)
        return held[1:]

    def normal_form(self, f: Polynomial,
                    degree_guard: Optional[int] = None) -> Polynomial:
        """Unique remainder of f against the reduced basis; 0 iff f is a member."""
        if f.ring != self.ring:
            raise RingMismatch("ring mismatch")
        if f.is_zero():
            return f
        pk, entries, index = self._reducer(f.weighted_degree(), degree_guard)
        if not entries:
            return f
        return pk.polynomial(_reduce_full(pk.pack_terms(f.terms), entries, pk, index).items())

    def contains(self, f: Polynomial, degree_guard: Optional[int] = None) -> bool:
        return self.normal_form(f, degree_guard=degree_guard).is_zero()

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
    """True iff the reduced bases under the ring's order coincide term for term."""
    if lhs.ring != rhs.ring:
        raise RingMismatch("ring mismatch")
    return lhs.groebner_basis(degree_guard=degree_guard) == rhs.groebner_basis(degree_guard=degree_guard)


# --------------------------------------------------------------------------
# elimination constructions

def _fresh_name(ring: RingSpec) -> str:
    """A variable name not in `ring`: t, or t with underscores appended."""
    name = "t"
    while name in ring.variables:
        name += "_"
    return name


def _extended_ring(ring: RingSpec) -> RingSpec:
    return RingSpec(ring.field, (_fresh_name(ring),) + ring.variables, (1,) + ring.weights,
                    Order("elim", 1))


class _Elimination:
    """Elimination of a new variable t over `ring`, in one packing of
    _extended_ring(ring) for fields holding weighted degrees up to `degree`
    (`_chain_bound`), at least `width` bits wide.

    The extended order is t-degree first, then weighted grevlex on the
    variables of `ring`, so a t-free packed monomial is the int of that
    monomial of `ring` in the packing of `ring` under weighted grevlex of
    the same width, and a t-free lead means a t-free entry.
    """

    def __init__(self, ring: RingSpec, degree: int, width: int = 0):
        ext = _extended_ring(ring)
        self.ring = ring
        self.pk = pk = _packing(ext, degree, width)
        self.t = pk._units[0]
        self._free = 1 << pk._degree_shifts[0]  # t-free monomials lie below
        self._own = pk._degree_shifts[1]  # the trailing block's degree field
        self._shifts = pk._exponent_shifts[1:]

    def degree(self, m: int) -> int:
        """The weighted degree of a packed monomial in the variables of
        `ring`, t counting 0."""
        return (m >> self._own) & self.pk.mask

    def lift(self, f: Polynomial, a: int = 0) -> dict:
        """The packed f*t^a."""
        return self.pk.pack_terms([((a,) + m, c) for m, c in f.terms])

    def meet(self, lifted, gens, guard):
        """A minimal basis, ascending, of the ideal K generated by `lifted`
        and (1-t)*g for each g in `gens`.  With `lifted` the packed t*a over
        the generators a of A and `gens` the packed generators of B, its
        t-free entries (`free`) are a minimal Groebner basis of A ∩ B under
        weighted grevlex; and t*h lies in K exactly when h lies in A (set
        t = 1 in t*h = t*a + (1-t)*b).

        Buchberger takes its pairs by `degree`, the weighted degree of the
        variables of `ring` alone: t*a and (1-t)*b are homogeneous in it
        when a and b are homogeneous, so the run goes degree by degree.
        The guard still bounds the full weighted degree, t included."""
        t, p = self.t, self.pk.p
        inputs = list(lifted)
        for g in gens:
            d = {m + t: p - c for m, c in g.items()}
            d.update(g)
            inputs.append(d)
        return _buchberger(inputs, self.pk, guard, self.degree)

    def free(self, basis):
        """The t-free entries of an ascending basis, which come first."""
        free = self._free
        return [e for e in basis if e[0] < free]

    def within(self, basis, products) -> bool:
        """Whether every packed h in `products` lies in A, for `basis` a
        result of meet over A: whether each t*h reduces to zero against it."""
        t, pk = self.t, self.pk
        index = _Divisors(pk)
        return not any(_reduce_full({m + t: c for m, c in h.items()}, basis, pk, index)
                       for h in products)

    def polynomial(self, items) -> Polynomial:
        """The Polynomial over `ring` of t-free packed (monomial, coefficient)
        items, sorted in the ring's order."""
        return Polynomial(self.ring, _unpacked(items, self.pk.mask, self._shifts))

    def reduced(self, quotients, guard, into):
        """The reduced basis over `ring`, ascending, of the packed t-free
        dicts `quotients` (keys descending), a minimal basis under weighted
        grevlex, returned as `_finished` returns it: with its monic packed
        entries in `into`, a packing of `ring` that holds the chain's bound,
        when given, else with None.  On a grevlex ring a t-free monomial of
        this packing is the int of the ring's packing of the same width,
        `into` or the one taken here, so the quotients are finished there as
        they stand.  On any other order one Buchberger run in the ring's
        order makes the minimal basis first (`_reduced_basis`).  `quotients`
        is emptied once read, so the caller's dicts are not held through
        the finish."""
        ring = self.ring
        if ring.order != GREVLEX:
            gens = [self.polynomial(q.items()) for q in quotients]
            quotients.clear()
            return _reduced_basis(gens, ring, guard, into)
        pk = into or _packing(ring, 0, self.pk.width)
        minimal = [_make_entry(q, pk.p, True) for q in quotients]
        quotients.clear()
        return _finished(pk, minimal, into)


@_collector_paused
def intersect(lhs: Ideal, rhs: Ideal, degree_guard: Optional[int] = None) -> Ideal:
    """Ideal intersection as the one-step colon chain rhs ∩ (lhs : (1)), the
    elimination of t*lhs + (1-t)*rhs; it consults no store."""
    if lhs.ring != rhs.ring:
        raise RingMismatch("ring mismatch")
    ring = lhs.ring
    if lhs.is_zero() or rhs.is_zero():
        return Ideal(ring, ())
    return Ideal._from_basis(ring, _colon_chain(lhs, rhs.generators, (ring.one(),),
                                                degree_guard)[0])


def _multiply(fd: dict, gd: dict, pk) -> dict:
    """The packed product of two packed dicts; ArithmeticError when a
    product sets a guard bit, as in _reduce_full."""
    p = pk.p
    acc = {}
    for m, c in fd.items():
        for mm, cc in gd.items():
            mono = m + mm
            v = (acc.get(mono, 0) + c * cc) % p
            if v:
                acc[mono] = v
            elif mono in acc:
                del acc[mono]
    gbits = pk.guard_bits
    if any(m & gbits for m in acc):
        raise _overflow(pk.width)
    return acc


def _divide_exact(fd: dict, gd: dict, pk) -> dict:
    """The packed quotient fd/gd of an exact multiple fd of gd;
    ArithmeticError otherwise.

    A heap over the dividend, as in _reduce_full: each largest term left
    gives the next quotient term, largest first.  A term that the lead of
    gd does not divide (the shift borrows from a field) means fd is no
    multiple of gd.
    """
    p, gbits = pk.p, pk.guard_bits
    lmg, tail = _make_entry(gd, p)
    inv = pow(gd[lmg], p - 2, p)
    work = dict(fd)
    heap = [-m for m in work]
    heapify(heap)
    quotient = {}
    while heap:
        m = -heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        shift = m - lmg
        if shift & gbits:
            raise ArithmeticError("colon division failure: intersection element "
                                  "not exactly divisible")
        quotient[shift] = c * inv % p
        for mm, cc in tail:  # subtract c*shift*(gd/lc(gd))
            mono = mm + shift
            old = work.get(mono)
            v = ((old or 0) - c * cc) % p
            if v:
                work[mono] = v
                if old is None:
                    if mono & gbits:
                        raise _overflow(pk.width)
                    heappush(heap, -mono)
            elif old is not None:
                del work[mono]
    return quotient


@_collector_paused
def colon(lhs: Ideal, rhs: Ideal, degree_guard: Optional[int] = None) -> Ideal:
    """The colon ideal lhs : rhs = { g : g*rhs contained in lhs }.

    The colon chain from R_0 = (1) over the generators of rhs, in their
    given order: one elimination each, except that a step whose divisor
    already maps R_{i-1} into lhs is skipped and cannot abort (see the
    module docstring).  The result is read from the persistent store, or
    computed and put there, as one entry per colon; no packed basis is made
    for it.
    """
    return _colon(lhs, rhs, degree_guard)[0]


def _colon(lhs: Ideal, rhs: Ideal, degree_guard: Optional[int], into=None):
    """colon(lhs, rhs, degree_guard), returned with its reduced basis as
    monic packed entries (lm, tail) in `into`, ascending, when this call
    computed the colon and `into`, a packing of the ring that holds
    `_chain_bound` of its chain, asks for them; else with None."""
    if lhs.ring != rhs.ring:
        raise RingMismatch("ring mismatch")
    if rhs.is_zero():
        raise ValueError("colon by the zero ideal")
    ring = lhs.ring
    if lhs.is_zero():
        return Ideal(ring, ()), None
    key = _content_key(ring, _normalized_gens(lhs.generators),
                       _normalized_gens(rhs.generators))
    stored = None if _PERSISTENT is None else _PERSISTENT.get(key, ring)
    if stored is not None:
        return Ideal._from_basis(ring, tuple(stored)), None
    basis, entries = _colon_chain(lhs, (ring.one(),), rhs.generators, degree_guard, into)
    if _PERSISTENT is not None:
        _PERSISTENT.put(key, ring, basis)
    return Ideal._from_basis(ring, basis), entries


def _chain_bound(gens, divisors, guard: int) -> int:
    """The weighted degree the packing of a colon chain holds, for `gens`
    the generators of lhs and B and `divisors` the f_i.

    On homogeneous input every polynomial of an elimination is homogeneous
    in the degree of the variables of the ring, and its lead has the most
    t, so no term lies above the lead in the full weighted degree, as
    `_graded` asks.  A quotient q of R_i is then within G = max(guard,
    degrees of `gens`), by induction from the generators of B: its t-free
    entry f_i*q is a remainder, within the guard, or the normal form of an
    input t*a, within deg a, or of (1-t)*f_i*q' for a quotient q' of
    R_(i-1), and then deg q = deg q'.  So an input, a product
    (1-t)*f_i*q included, and every lead are within D = 1 + G + max deg
    f_i, and every pair lcm within 2*D (`_basis_bound`).  Other input
    gets `_headroom`."""
    degrees = [g.weighted_degree() for g in gens]
    steps = [f.weighted_degree() for f in divisors]
    if all(g.is_homogeneous() for g in itertools.chain(gens, divisors)):
        return 2 * (1 + max([guard] + degrees) + max(steps))
    return _headroom(1 + max([guard] + degrees + steps))


def _colon_chain(lhs: Ideal, start, divisors, degree_guard: Optional[int], into=None):
    """The reduced basis of B ∩ (lhs : (f_1..f_k)), B generated by `start`
    and f_1..f_k the `divisors`, in one _Elimination packing throughout,
    returned as _Elimination.reduced returns it.  With `into`, a packing
    of the ring that holds `_chain_bound` of this chain, the elimination
    packing has its width, so the entries come back in `into`.  The basis
    of K is never interreduced: the skip test needs only a Groebner basis,
    and the quotients are finished once, at the end."""
    guard = DEFAULT_DEGREE_GUARD if degree_guard is None else degree_guard
    el = (_Elimination(lhs.ring, 0, into.width) if into else
          _Elimination(lhs.ring, _chain_bound((*lhs.generators, *start), divisors, guard)))
    pk = el.pk
    lifted = [el.lift(g, 1) for g in lhs.generators]
    quotients = [el.lift(g) for g in start]  # R_0 = B
    basis = None  # the basis of K from the last elimination run
    for f in divisors:
        fd = el.lift(f)
        products = [_multiply(fd, q, pk) for q in quotients]
        if basis is not None and el.within(basis, products):
            continue  # f*R_{i-1} lies in lhs, so R_i = R_{i-1}
        basis = None  # not held through the elimination that replaces it
        basis = el.meet(lifted, products, guard)
        quotients = [_divide_exact(_entry_dict(b), fd, pk) for b in el.free(basis)]
    del basis  # not held through the final basis
    return el.reduced(quotients, guard, into)


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
    """Sparse row echelon over GF(p) on packed monomials, pivot indexed."""

    def __init__(self, p):
        self.p = p
        self.pivots: dict = {}

    def _reduce(self, row: dict) -> dict:
        p = self.p
        pivots = self.pivots
        while row:
            m = max(row)
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
        m = max(row)
        inv = pow(row[m], self.p - 2, self.p)
        self.pivots[m] = {mm: cc * inv % self.p for mm, cc in row.items()}
        return True


def _twisted_product(ad: dict, q1: int, bd: dict, pk) -> dict:
    """The packed twisted product a*b^(q1) of packed homogeneous a and b,
    q1 a power of p.  Every field is linear in the exponents, so b^(q1)
    packs to {q1*M: c}, and c^(q1) = c on GF(p) (Fermat).  No field holds
    more than the product's weighted degree, so one above the packing's
    limit raises ArithmeticError before any field can wrap."""
    if pk.degree(next(iter(ad))) + q1 * pk.degree(next(iter(bd))) > pk._limit:
        raise _overflow(pk.width)
    return _multiply(ad, {q1 * m: c for m, c in bd.items()}, pk)


@_collector_paused
def minimal_generators_mod(gens: Sequence[Polynomial], modulus: Ideal,
                           degree_guard: Optional[int] = None):
    """Greedy minimalization of module generators modulo an ideal.

    Candidates are taken in ascending weighted degree (ties by the ring
    order) and g is dropped whenever it lies in modulus + (the remaining
    candidates).  All inputs must be homogeneous; by graded Nakayama the
    surviving count is an invariant of the module even though the chosen
    representatives are not.

    It returns the survivors' canonical representatives in the quotient
    module, not the candidates: their normal forms modulo the modulus,
    monic, ascending by weighted degree and then by lead (ties in rule order).

    The work happens on normal forms modulo the reduced basis of the
    modulus, which for a homogeneous ideal is a linear map on each degree
    slice with the modulus's slice as kernel.  Each degree d gets one
    echelon: first the normal forms of every shift, to degree d, of the
    generators kept in lower degrees, then the degree-d candidates in
    descending order, each kept exactly when it raises the rank.
    Inserting in descending order keeps the same basis as deleting in
    ascending order (both give the unique greedy basis of the quotient
    matroid), so the survivors are those of the drop-if-redundant rule
    above.  Nothing is reduced twice: a candidate with no term that a lead
    divides is its own normal form, and a shift of a kept normal form is
    reduced only at the terms where a lead can newly divide (`_Shifts`).

    This function is the polynomial edge of the work, which runs on packed
    ints in `_minimal_forms`: it packs its arguments into one packing that
    holds the top candidate degree, which no form exceeds (every form has a
    homogeneous candidate's degree), chosen before any basis is computed,
    and unpacks each survivor once, made monic, as its result.  Candidates are
    packed once and their homogeneity is read from their packed degree
    fields, so a bad input raises before the modulus basis can abort.  Only
    basis entries up to the top degree are packed (a homogeneous reduced
    basis has no other lead dividing such a term), and every term of a
    candidate is looked up.  frobenius.component and fingen_probe call
    `_minimal_forms` directly, on packed candidates whose tails are
    reduced, and the probe adds its twisted products there.
    """
    ring = modulus.ring
    # foreign and zero candidates are reported or skipped in order below
    top = max([0] + [g.weighted_degree() for g in gens if g.ring == ring and not g.is_zero()])
    pk = _packing(ring, top)
    survivors = _minimal_forms(pk, _packed_candidates(gens, pk), (), modulus, degree_guard, False)
    return [pk.polynomial(form.items()).monic() for _, _, form in survivors]


def _packed_candidates(gens: Sequence[Polynomial], pk) -> list:
    """The distinct nonzero polynomials of `gens`, in order, as packed
    candidates (degree, lead, form) for _minimal_forms; RingMismatch on one
    from another ring, ValueError on an inhomogeneous one."""
    cands, seen = [], set()
    for g in gens:
        if g.ring != pk.ring:
            raise RingMismatch("ring mismatch")
        if g.is_zero() or g in seen:
            continue
        form = pk.pack_terms(g.terms)
        degrees = pk.degrees(form)
        if len(degrees) > 1:
            raise ValueError("minimal generators need homogeneous input")
        seen.add(g)
        cands.append((degrees.pop(), max(form), form))
    return cands


class _Shifts:
    """Normal forms of the shifts x^m*v of normal forms v modulo a reduced
    basis, packed, computed only where a lead can newly divide.

    A term u of v is standard: no lead divides it.  If a lead L divides
    u*x^m, then L_i > u_i for some variable i, and L_i <= u_i + m_i, so
    m_i > 0 and L_i - m_i <= u_i < L_i.  Only the terms that meet this
    screen for some lead and some i with m_i > 0 go to `_reduce_full`; the
    rest are standard after the shift too, and the normal form is linear,
    so they join its result unchanged.  A shift in variables that no lead
    involves is thus its own normal form.  The screen is one pass over the
    form per variable of the shift, against the set of exponents u_i it
    catches for that variable and m_i, built on first use.  No guard bit
    is tested outside `_reduce_full`: a shifted term that no lead can
    divide has the row's degree, which the caller keeps within the
    packing."""

    def __init__(self, basis, pk, index):
        self.basis, self.pk, self.index = basis, pk, index
        mask = pk.mask
        # per variable: its shift in the packing, the distinct positive lead exponents there
        self.leads = [(s, {(lm >> s) & mask for lm, _ in basis} - {0})
                      for s in pk._exponent_shifts]
        self.caught = {}  # (variable, m_i) -> the exponents u_i the screen catches

    def normal_form(self, form: dict, m) -> dict:
        """The packed normal form of x^m * form, for a packed normal form
        `form` and an exponent vector m."""
        pk = self.pk
        s, mask = pk.pack(m), pk.mask
        row = {mm + s: c for mm, c in form.items()}
        sent = set()
        for i, k in enumerate(m):
            if k:
                caught = self.caught.get((i, k))
                if caught is None:
                    caught = self.caught[i, k] = frozenset(
                        u for lead in self.leads[i][1] for u in range(max(lead - k, 0), lead))
                if caught:
                    v = self.leads[i][0]
                    sent.update({mm + s for mm in form if (mm >> v) & mask in caught})
        return _reduce_terms(row, sent, self.basis, pk, self.index) if sent else row


def _minimal_forms(pk, cands, products, modulus: Ideal, degree_guard: Optional[int],
                   tails_reduced: bool) -> list:
    """The survivors of minimal_generators_mod in the shape of `cands`, the
    distinct homogeneous candidates (degree, lead, packed form), ascending
    by degree and then by lead, in the packing `pk`: a candidate that
    needed no reduction as its own triple, one that did as a new triple of
    its normal form, neither made monic.  `products` holds the twisted
    products a*b^(q1) of the probe as (degree, packed a, q1, packed b), q1
    a power of p.  The products count as part of the submodule and are
    never returned: each one up to the top candidate degree enters its
    degree's echelon, and its shifts the echelons above, as normal forms,
    so a candidate counts as inside modulus + (products) exactly when its
    normal form lies in their span, and no basis of modulus + (products) is
    computed; one above the top degree is never formed.

    With `tails_reduced`, only each candidate's lead is looked up in the
    modulus index: its tail terms must be standard monomials of the
    modulus, as in the reduced basis of an ideal containing the modulus
    (in(modulus) lies in in(ideal)) or in a normal form.  Else every term
    is.  A candidate with no term that a lead divides is its own normal
    form.  So every form kept, of a product or of a survivor, is a normal
    form modulo the modulus, which is the premise of `_Shifts`: a shift of
    a kept form is reduced only at the terms where a lead can newly divide.
    Every shift has a candidate's degree, at most the top one.  No form is
    mutated (`_reduce_full`, `_Echelon.add_row`, `_Shifts.normal_form` and
    `_twisted_product` read or copy), so candidates, survivors and product
    factors may share forms."""
    if not modulus.is_homogeneous():
        raise ValueError("minimal generators need a homogeneous modulus")
    top = max([0] + [d for d, _, _ in cands])
    basis = [_make_entry(pk.pack_terms(g.terms), pk.p)
             for g in modulus.groebner_basis(degree_guard) if g.weighted_degree() <= top]
    index = _Divisors(pk)
    index.sync(basis)
    first = index.first
    shifted = _Shifts(basis, pk, index).normal_form
    # (degree, lead, packed normal form): the products, lead None, then the survivors ascending
    kept = [(d, None, _reduce_full(_twisted_product(a, q1, b, pk), basis, pk, index))
            for d, a, q1, b in products if d <= top]
    start = len(kept)
    # by degree, then by packed lead
    for d, group in itertools.groupby(sorted(cands, key=itemgetter(0, 1)), key=itemgetter(0)):
        ech = _Echelon(pk.p)
        for dh, _, form in kept:
            if dh == d:  # its only shift is by 1, and it is a normal form
                ech.add_row(form)
                continue
            for m in monomials_of_weighted_degree(pk.ring.weights, d - dh):
                ech.add_row(shifted(form, m))
        survivors = []
        for cand in reversed(list(group)):
            form = cand[2]
            if first(cand[1]) >= 0 if tails_reduced else any(first(m) >= 0 for m in form):
                form = _reduce_full(form, basis, pk, index)
            if ech.add_row(form):
                survivors.append(cand if form is cand[2] else (d, max(form), form))
        kept.extend(reversed(survivors))
    return sorted(kept[start:], key=itemgetter(0, 1))


@_collector_paused
def lift_by_nzd(g: Polynomial, m: Polynomial, modulus: Ideal,
                degree_guard: Optional[int] = None) -> Polynomial:
    """The normal form of the f with m*f = g modulo J = modulus, for J and m
    homogeneous, m a nonzerodivisor modulo J; see "Lift" in the module docstring."""
    ring = modulus.ring
    if g.ring != ring or m.ring != ring:
        raise RingMismatch("ring mismatch")
    if m.is_zero():
        raise ValueError("cannot lift along the zero divisor candidate 0")
    if not (m.is_homogeneous() and modulus.is_homogeneous()):
        raise ValueError("lifting needs a homogeneous divisor and modulus")
    if m.weighted_degree() == 0:
        return modulus.normal_form(g, degree_guard=degree_guard).scale(
            ring.field.inv(m.terms[0][1]))
    ext = RingSpec(ring.field, ring.variables + (_fresh_name(ring),),
                   ring.weights + (m.weighted_degree(),))
    embed = lambda f: Polynomial(ext, [(mono + (0,), c) for mono, c in f.terms])
    K = Ideal(ext, [embed(j) for j in modulus.generators]
              + [ext.variable(ext.variables[-1]) - embed(m)])
    with _guard_context(f"the basis of J + (t - m) of the lift along m = {m}"):
        r = K.normal_form(embed(g), degree_guard=degree_guard)
    by_power = {}  # k -> the terms of r_k, r = sum of r_k*t^k
    for mono, c in r.terms:
        by_power.setdefault(mono[-1], []).append((mono[:-1], c))
    if 0 in by_power:
        if not (modulus + Ideal(ring, (m,))).contains(g, degree_guard):
            raise NoLiftExists("no lift exists: the element is not in modulus + (m)")
        raise LiftVerificationError("t does not divide NF(g) modulo J + (t - m), g in J + (m)")
    f = sum((Polynomial(ring, terms) * m ** (k - 1) for k, terms in by_power.items()), ring.zero())
    lifted = modulus.normal_form(f, degree_guard=degree_guard)
    if not modulus.contains(m * lifted - g, degree_guard):
        raise LiftVerificationError("the lift fails m*f = g modulo the ideal")
    return lifted
