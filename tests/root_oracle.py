"""Membership in I^[q] and in I^[q] : I by Frobenius roots, with no colon.

Over GF(p)[x_1..x_n] the ring is free over its subring of q-th powers, on
the monomials x^a with every a_i < q.  So each h splits uniquely as
h = sum_a x^a h_a^q; coefficients of the prime field are their own q-th
powers, so h_a collects the terms c*x^b of h at exponent a + q*b.  Then h
lies in I^[q] exactly when every root part h_a lies in I (Blickle, Mustata
and Smith, "Discreteness and rationality of F-thresholds", Michigan Math. J.
2008), and u lies in I^[q] : I exactly when u*f does for every generator f
of I.  These checks ask only for membership in I itself, so they test the
colon chain of a component against the plain normal form of I.
"""

from __future__ import annotations

from frobtool.polyring import Polynomial


def frobenius_root(h: Polynomial, q: int) -> dict:
    """{a: h_a} with h = sum_a x^a h_a^q, every a_i < q, h_a nonzero."""
    parts: dict = {}
    for mono, c in h.terms:
        a = tuple(e % q for e in mono)
        parts.setdefault(a, []).append((tuple(e // q for e in mono), c))
    return {a: Polynomial(h.ring, terms) for a, terms in parts.items()}


def in_frobenius_power(h: Polynomial, ideal, q: int) -> bool:
    """h in I^[q], decided by membership of its root parts in I."""
    return all(ideal.contains(part) for part in frobenius_root(h, q).values())


def in_frobenius_colon(u: Polynomial, ideal, q: int) -> bool:
    """u in I^[q] : I, decided by roots of u*f for each generator f of I."""
    return all(in_frobenius_power(u * f, ideal, q) for f in ideal.generators)
