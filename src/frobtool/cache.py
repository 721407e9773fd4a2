"""Content-addressed persistent store for reduced bases.

Entries are JSON files keyed by the content digest of (ring, order,
normalized generators); basis payloads use the canonical text printing of
polynomials, so entries are portable and diffable.  Corrupt or mismatched
entries are discarded with a warning and recomputed.  Writes go through a
temp file and an atomic replace, so concurrent writers of one key are safe
(identical canonical values make last-write-wins harmless).
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from .parsing import parse_polynomial
from .polyring import RingSpec

log = logging.getLogger("frobtool")

ENTRY_VERSION = 1


def default_cache_dir() -> Path:
    env = os.environ.get("FROBTOOL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "frobtool"


def _ring_payload(ring: RingSpec) -> dict:
    return {
        "p": ring.field.p,
        "vars": list(ring.variables),
        "weights": list(ring.weights),
        "order": ring.order.tag,
    }


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
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            log.warning("basis cache read failed, continuing without it: %s", exc)
            self.misses += 1
            return None
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or not isinstance(entry.get("basis"), list):
                raise ValueError("entry is not an object with a basis list")
            if entry.get("version") != ENTRY_VERSION:
                raise ValueError("entry version mismatch")
            if entry.get("ring") != _ring_payload(ring):
                raise ValueError("ring mismatch")
            # parse_polynomial raises TypeError on a basis item that is no string
            basis = tuple(parse_polynomial(src, ring) for src in entry["basis"])
        except (ValueError, KeyError, TypeError) as exc:
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
            "basis": [str(g) for g in basis],
        }
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, self._path(key))
        except OSError as exc:
            log.warning("basis cache write failed, continuing without it: %s", exc)
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "discarded": self.discarded}
