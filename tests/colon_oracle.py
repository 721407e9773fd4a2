"""Reference colon: the quotient chain as it was before the colon was
chained, on exponent tuples ordered by a key function.

`_divide_exact` and `colon` below are the earlier code, unchanged.  It
intersects every quotient `Q_i = (J ∩ (f_i))/f_i` with the running result,
so a colon by k generators takes 2k-1 eliminations, and it makes the final
basis with a second Buchberger run.  Its division takes one `max` over the
remaining dividend per quotient term.  The tests compare the library's
chained colon with it basis for basis.

`chain_colon` is the chain as it was before it learned to skip a step: it
runs the elimination of every step, R_i = (lhs ∩ f_i*R_{i-1})/f_i, on the
library's packed helpers, in a packing for the library's bound
(`_chain_bound`), even when f_i*R_{i-1} already lies in lhs.  It finishes
its quotients apart from the library's finish: they are unpacked one
monomial at a time, a minimal Groebner basis under weighted grevlex; on
another order the library's Buchberger makes a minimal basis of them in
the ring's order; and `_interreduced` makes the reduced basis with the
tuple reduction of buchberger_oracle.py.
"""

from __future__ import annotations

from typing import Optional

from frobtool.groebner import (
    DEFAULT_DEGREE_GUARD,
    Ideal,
    _divide_exact as _packed_divide_exact,
    _Elimination,
    _basis_bound,
    _buchberger,
    _chain_bound,
    _entry_dict,
    _multiply,
    intersect,
)
from frobtool.polyring import Polynomial, RingMismatch, _packing, mono_divides

import buchberger_oracle
from order_oracle import key_function


def _divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """Quotient f/g for exactly divisible f; internal assertion otherwise."""
    ring = f.ring
    p = ring.field.p
    key = key_function(ring)
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
    return Ideal._from_basis(ring, result.groebner_basis(degree_guard=degree_guard))


def chain_colon(lhs: Ideal, rhs: Ideal, degree_guard: Optional[int] = None) -> Ideal:
    """lhs : rhs by one elimination per generator of rhs, in one packing,
    with the final basis made as the library's colon makes it."""
    if lhs.ring != rhs.ring:
        raise RingMismatch("ring mismatch")
    if rhs.is_zero():
        raise ValueError("colon by the zero ideal")
    ring = lhs.ring
    if lhs.is_zero():
        return Ideal(ring, ())
    guard = DEFAULT_DEGREE_GUARD if degree_guard is None else degree_guard
    el = _Elimination(ring, _chain_bound((*lhs.generators, ring.one()), rhs.generators, guard))
    pk = el.pk
    lifted = [el.lift(g, 1) for g in lhs.generators]
    quotients = [{0: 1}]  # R_0 = (1); the monomial 1 packs to 0
    for f in rhs.generators:
        fd = el.lift(f)
        meet = el.free(el.meet(lifted, [_multiply(fd, q, pk) for q in quotients], guard))
        quotients = [_packed_divide_exact(_entry_dict(b), fd, pk) for b in meet]
    polys = [Polynomial(ring, {pk.unpack(m)[1:]: c for m, c in q.items()}) for q in quotients]
    if ring.order.kind != "grevlex":
        pk = _packing(ring, _basis_bound(ring, polys, guard))
        polys = [Polynomial(ring, [(pk.unpack(m), 1)] + [(pk.unpack(mm), c) for mm, c in tail])
                 for m, tail in _buchberger([pk.pack_terms(g.terms) for g in polys],
                                            pk, guard, pk.degree)]
    return Ideal._from_basis(ring, _interreduced(polys, ring))


def _interreduced(minimal, ring):
    """The reduced basis, ascending by lead, of the minimal Groebner basis
    `minimal` under the ring's order.  A lead that divides a term m is m or
    has a lower weighted degree, so only those leads are tested.  The
    normal form is linear: the tail terms that a lead divides are reduced
    against the other elements by buchberger_oracle's `_reduce_full`, and
    the rest are added to the result as they are."""
    key, p, degree = key_function(ring), ring.field.p, ring.weighted_degree
    entries = sorted((buchberger_oracle._make_entry(dict(g.terms), key, p) for g in minimal),
                     key=lambda entry: key(entry[0]))
    leads = {lm for lm, _ in entries}
    by_degree = {}
    for lm in leads:
        by_degree.setdefault(degree(lm), []).append(lm)

    def reducible(m):
        d = degree(m)
        return m in leads or any(mono_divides(lm, m) for e, lms in by_degree.items() if e < d
                                 for lm in lms)

    basis = []
    for i, (lm, tail) in enumerate(entries):
        sent = {m: c for m, c in tail if reducible(m)}
        terms = [(lm, 1)] + [(m, c) for m, c in tail if m not in sent]
        if sent:
            terms += buchberger_oracle._reduce_full(sent, entries[:i] + entries[i + 1:],
                                                    key, p).items()
        basis.append(Polynomial(ring, terms))
    return tuple(basis)
