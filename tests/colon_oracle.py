"""Reference colon: the quotient chain as it was before the colon was
chained, on exponent tuples ordered by a key function.

`_divide_exact` and `colon` below are the earlier code, unchanged.  It
intersects every quotient `Q_i = (J ∩ (f_i))/f_i` with the running result,
so a colon by k generators takes 2k-1 eliminations, and it makes the final
basis with a second Buchberger run.  Its division takes one `max` over the
remaining dividend per quotient term.  The tests compare the library's
chained colon with it basis for basis.
"""

from __future__ import annotations

from typing import Optional

from frobtool.groebner import Ideal, intersect
from frobtool.polyring import Polynomial, RingMismatch, _key_function


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
