"""Reference monomial order: tuple keys, independent of the packed ints.

The library encodes each ring's order once, as packed ints
(`frobtool.polyring.Packing`).  `key_function(ring)` spells the same
orders out as tuples, field by field, so the tests can check the packing
against it and the reference implementations can sort by it without
touching the encoding they check.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=64)
def key_function(ring):
    """The tuple key of the ring's order: a larger key is a larger monomial."""
    weights, order = ring.weights, ring.order
    n = ring.nvars
    if order.kind == "lex":
        return tuple  # an exponent tuple is its own lex key
    if order.kind == "grevlex":
        rng = tuple(range(n - 1, -1, -1))

        def fn(m):
            d = 0
            for w, e in zip(weights, m):
                d += w * e
            return (d,) + tuple(-m[i] for i in rng)
    else:  # elimination: leading block dominates, grevlex inside each block
        kb = order.block
        wh, wt = weights[:kb], weights[kb:]
        rh = tuple(range(kb - 1, -1, -1))
        rt = tuple(range(n - 1, kb - 1, -1))

        def fn(m):
            dh = sum(w * e for w, e in zip(wh, m))
            dt = sum(w * e for w, e in zip(wt, m[kb:]))
            return ((dh,) + tuple(-m[i] for i in rh)
                    + (dt,) + tuple(-m[i] for i in rt))
    return lru_cache(maxsize=1 << 12)(fn)


def compare(ring, a, b) -> int:
    """-1, 0 or 1 as a is below, equal to or above b in the ring's order."""
    key = key_function(ring)
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)
