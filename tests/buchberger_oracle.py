"""Reference Buchberger engine: the pair selection and reduction loops as
they were before the heap-ordered pair queue, on exponent tuples ordered by
a key function, before packed monomials.

`_spoly`, `_reduce_full`, `_gm_update` and `_buchberger` below are the
earlier code, unchanged except that each `DegreeGuardExceeded` names its
phase and that `_buchberger` runs under its ring's order and selects its
pairs by the grading it is given (the weighted degree before), while its
guard checks still read the weighted degree; `_make_entry` and
`_entry_dict` are the tuple versions, unchanged.
Every step recomputes what the library now carries: `min` over all live
pairs recomputes every pair's lcm and weighted degree, and the divisor
search tests every basis lead in turn.  The tests compare the two engines
entry for entry, unpacking the library's side.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from frobtool.groebner import DegreeGuardExceeded
from frobtool.polyring import mono_divides, mono_lcm

from order_oracle import key_function


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


def _spoly(f, g, p):
    """S-polynomial of monic (lm, tail) pairs; returns a dict."""
    lmf, tailf = f
    lmg, tailg = g
    lcm = mono_lcm(lmf, lmg)
    sf = tuple(a - b for a, b in zip(lcm, lmf))
    sg = tuple(a - b for a, b in zip(lcm, lmg))
    acc = {}
    for m, c in tailf:
        mm = tuple(x + y for x, y in zip(m, sf))
        acc[mm] = c
    for m, c in tailg:
        mm = tuple(x + y for x, y in zip(m, sg))
        v = (acc.get(mm, 0) - c) % p
        if v:
            acc[mm] = v
        elif mm in acc:
            del acc[mm]
    return acc


def _reduce_full(fd, basis, key, p):
    """Full normal form of the dict fd against monic basis [(lm, tail), ...]."""
    work = dict(fd)
    if not work:
        return work
    heap = [(tuple(-x for x in key(m)), m) for m in work]
    heapify(heap)
    remainder = {}
    while heap:
        _, m = heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        reducer = None
        for lm, tail in basis:
            ok = True
            for a, b in zip(lm, m):
                if a > b:
                    ok = False
                    break
            if ok:
                reducer = (lm, tail)
                break
        if reducer is None:
            remainder[m] = c
            continue
        lm, tail = reducer
        shift = tuple(a - b for a, b in zip(m, lm))
        for mm, cc in tail:
            mono = tuple(x + y for x, y in zip(mm, shift))
            old = work.get(mono)
            v = ((old or 0) - c * cc) % p
            if v:
                work[mono] = v
                if old is None:
                    heappush(heap, (tuple(-x for x in key(mono)), mono))
            elif old is not None:
                del work[mono]
    return remainder


def _gm_update(lms, pairs, t, key):
    """Gebauer-Moeller pair update when basis element t is appended.

    Implements both Buchberger criteria: pairs whose leading monomials are
    coprime are never created, and pairs made redundant by the new element
    (chain criterion) are discarded.
    """
    lmt = lms[t]
    kept = set()
    for i, j in pairs:
        lij = mono_lcm(lms[i], lms[j])
        if (not mono_divides(lmt, lij)) or mono_lcm(lms[i], lmt) == lij or mono_lcm(lms[j], lmt) == lij:
            kept.add((i, j))
    by_lcm = {}
    for i in range(t):
        by_lcm.setdefault(mono_lcm(lms[i], lmt), []).append(i)
    minimal = []
    for lcm in sorted(by_lcm, key=key):
        if not any(mono_divides(prev, lcm) for prev in minimal):
            minimal.append(lcm)
    prod = lambda i: tuple(a + b for a, b in zip(lms[i], lmt))
    for lcm in minimal:
        if not any(prod(i) == lcm for i in by_lcm[lcm]):
            kept.add((min(by_lcm[lcm]), t))
    return kept


def _buchberger(inputs, ring, guard, grading):
    """Reduced Groebner basis of the input dicts; returns [(lm, tail), ...]
    sorted ascending by leading monomial.  The next pair is the one least
    by (grading of its lcm, lcm, pair)."""
    p = ring.field.p
    key = key_function(ring)
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
    pairs = set()
    for entry in start:
        fd = _entry_dict(entry, p)
        r = _reduce_full(fd, basis, key, p)
        if not r:
            continue
        basis.append(_make_entry(r, key, p))
        lms.append(basis[-1][0])
        pairs = _gm_update(lms, pairs, len(basis) - 1, key)

    while pairs:
        i, j = min(pairs, key=lambda ij: (grading(mono_lcm(lms[ij[0]], lms[ij[1]])),
                                          key(mono_lcm(lms[ij[0]], lms[ij[1]])),
                                          ij))
        pairs.discard((i, j))
        lcm = mono_lcm(lms[i], lms[j])
        d = wdeg(lcm)
        if d > guard:
            raise DegreeGuardExceeded(d, guard, "pair lcm")
        s = _spoly(basis[i], basis[j], p)
        r = _reduce_full(s, basis, key, p)
        if not r:
            continue
        top = max(wdeg(m) for m in r)
        if top > guard:
            raise DegreeGuardExceeded(top, guard, "remainder")
        basis.append(_make_entry(r, key, p))
        lms.append(basis[-1][0])
        pairs = _gm_update(lms, pairs, len(basis) - 1, key)

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
