"""Reference lift along a nonzerodivisor: the colon-based lift_by_nzd as
it was before the lift became one normal form modulo J + (t - m).

`lift_by_nzd` and `_proportionality` below are the earlier code,
unchanged.  It checks that g lies in J + (m), computes the colon
(J + (g)) : (m), minimalizes its basis up to the target degree modulo J
(on inhomogeneous input it takes every basis element outside J), and
returns the first candidate f, rescaled, whose normal form NF(m*f) is
proportional to NF(g).  The lift is unique modulo J, so the tests compare
the library's lift with the normal form of this one.
"""

from __future__ import annotations

from typing import Optional

from frobtool.groebner import (
    Ideal,
    LiftVerificationError,
    NoLiftExists,
    colon,
    minimal_generators_mod,
)
from frobtool.polyring import Polynomial, RingMismatch, RingSpec


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
        # survivors up to the target degree never depend on higher degrees
        target = g.weighted_degree() - m.weighted_degree()
        low = [f for f in colon_ideal.groebner_basis(degree_guard=degree_guard)
               if f.weighted_degree() <= target]
        candidates = [f for f in minimal_generators_mod(low, modulus, degree_guard)
                      if f.weighted_degree() == target]
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
