"""Content-addressed persistent store for reduced bases.

Entries are JSON files keyed by the content digest of (ring, order,
normalized generators).  An entry holds its version, its key, the ring and
the basis.  The basis is a list of polynomials, each a list of terms
`[e_1, ..., e_n, c]` in the polynomial's own descending order, so a hit is
a `json.loads` and one linear pass, with no parser and no printer.

Every basis the engine stores is a nonempty reduced basis, ascending by
lead.  A read checks what is cheap to check: the version, the key and the
ring match; every term has n nonnegative int exponents and an int
coefficient in 1..p-1; the terms of each polynomial are strictly
descending in the ring order; the basis is nonempty; every lead
coefficient is 1; the leads are strictly ascending and no lead divides
another.  Both order checks compare packed ints (`polyring._order_key`),
one packing per polynomial and one for the leads.  An entry that fails
any check is discarded with a warning and recomputed, as is an entry of
another version, so an older entry is rewritten once.  Not checked, as too costly for a hit: that the tails are
reduced, that the inputs and the S-pairs reduce to 0, and, for a colon
entry, that each stored generator times each divisor generator lies in
the left-hand ideal.  Even those checks would leave two gaps: the basis
check cannot prove that the stored ideal is no larger than the input's,
and the colon check cannot prove that the stored colon is no smaller than
the true colon.

A write goes to `<key>.<pid>.<thread id>.tmp` in the cache directory,
then an atomic replace moves it into place, so concurrent writers of one
key are safe (identical canonical values make last-write-wins harmless).
No other writer uses that name, so a stale file of it, left by a failed
write, may be overwritten.  `tempfile` would load `shutil` and `random`
on every CLI start.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from itertools import chain
from operator import gt, le
from pathlib import Path
from typing import Optional

from .polyring import Polynomial, RingSpec, _order_key

log = logging.getLogger("frobtool")

ENTRY_VERSION = 2


def default_cache_dir() -> Optional[Path]:
    """FROBTOOL_CACHE, else ~/.cache/frobtool; None, with a warning, when
    there is no home directory to put it in."""
    env = os.environ.get("FROBTOOL_CACHE")
    if env:
        return Path(env)
    try:
        return Path.home() / ".cache" / "frobtool"
    except RuntimeError as exc:
        log.warning("basis cache disabled: %s", exc)
        return None


def _ring_payload(ring: RingSpec) -> dict:
    return {
        "p": ring.field.p,
        "vars": list(ring.variables),
        "weights": list(ring.weights),
        "order": ring.order.tag,
    }


def _polynomial(items, ring: RingSpec) -> Polynomial:
    """The polynomial of one stored term list, checked in one pass."""
    n, p = ring.nvars, ring.field.p
    if not isinstance(items, list) or not items:
        raise ValueError("a basis element is no nonempty list of terms")
    if (not all(isinstance(t, list) and len(t) == n + 1 for t in items)
            or {*map(type, chain.from_iterable(items))} != {int}):
        raise ValueError("a term is no list of n + 1 ints")
    monos = [tuple(t[:n]) for t in items]
    coeffs = [t[n] for t in items]
    if min(map(min, monos)) < 0 or not 0 < min(coeffs) <= max(coeffs) < p:
        raise ValueError("an exponent or a coefficient is out of range")
    keys = list(map(_order_key(ring, monos), monos))
    if not all(map(gt, keys, keys[1:])):
        raise ValueError("terms not strictly descending")
    return Polynomial._from_sorted(ring, tuple(zip(monos, coeffs)))


def _check_leads(basis, ring: RingSpec) -> None:
    """A reduced basis ascending by lead: monic, leads strictly ascending,
    and no lead dividing another."""
    if not basis:
        raise ValueError("empty basis")
    if any(g.terms[0][1] != 1 for g in basis):
        raise ValueError("lead coefficient is not 1")
    leads = [g.terms[0][0] for g in basis]
    keys = list(map(_order_key(ring, leads), leads))
    if not all(map(gt, keys[1:], keys)):
        raise ValueError("leads not strictly ascending")
    # a divisor precedes its multiple in any monomial order, so compare each
    # lead with the earlier ones only
    for i, a in enumerate(leads):
        if any(all(map(le, b, a)) for b in leads[:i]):
            raise ValueError("a lead divides another")


class BasisCache:
    """Filesystem store; degrades to cache-off on I/O errors."""

    def __init__(self, root):
        self.root = Path(root)
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.discarded = 0
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            log.warning("basis cache disabled: cannot create %s (%s)", self.root, exc)
            self.enabled = False

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str, ring: RingSpec):
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            log.warning("basis cache read failed, continuing without it: %s", exc)
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)  # bytes: a bad encoding raises in here
            if not isinstance(entry, dict) or not isinstance(entry.get("basis"), list):
                raise ValueError("entry is not an object with a basis list")
            if entry.get("version") != ENTRY_VERSION:
                raise ValueError("entry version mismatch")
            if entry.get("key") != key:
                raise ValueError("key mismatch")
            if entry.get("ring") != _ring_payload(ring):
                raise ValueError("ring mismatch")
            basis = tuple(_polynomial(items, ring) for items in entry["basis"])
            _check_leads(basis, ring)
        # json.JSONDecodeError is a ValueError; deep nesting raises RecursionError
        except (ValueError, RecursionError) as exc:
            log.warning("discarding corrupt cache entry %s (%s); recomputing", path.name, exc)
            self.discarded += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return basis

    def put(self, key: str, ring: RingSpec, basis) -> None:
        if not self.enabled:
            return
        entry = {
            "version": ENTRY_VERSION,
            "key": key,
            "ring": _ring_payload(ring),
            "basis": [[[*m, c] for m, c in g.terms] for g in basis],
        }
        # one json.dumps: json.dump would encode chunk by chunk in Python
        text = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        tmp = self.root / f"{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, self._path(key))
        except OSError as exc:
            log.warning("basis cache write failed, continuing without it: %s", exc)
            try:
                tmp.unlink()
            except OSError:
                pass

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "discarded": self.discarded}
