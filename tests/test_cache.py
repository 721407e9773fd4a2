import errno
import json
import logging

import pytest

from frobtool.cache import BasisCache
from frobtool.groebner import (
    clear_memo,
    groebner_basis,
    set_persistent_cache,
    _content_key,
    _normalized_gens,
)
from frobtool.parsing import parse_polynomial
from frobtool.polyring import Order, PrimeField, RingSpec


@pytest.fixture
def ring():
    return RingSpec(PrimeField(2), ("x", "y", "z"))


@pytest.fixture
def gens(ring):
    return [parse_polynomial("x*y + z^2", ring), parse_polynomial("y^2 + x*z", ring)]


@pytest.fixture(autouse=True)
def fresh_state():
    clear_memo()
    set_persistent_cache(None)
    yield
    clear_memo()
    set_persistent_cache(None)


def key_for(ring, gens):
    return _content_key(ring, _normalized_gens(gens))


def test_round_trip(tmp_path, ring, gens):
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring)
    key = key_for(ring, gens)
    cache.put(key, ring, basis)
    loaded = cache.get(key, ring)
    assert loaded == basis


def test_engine_hits_store(tmp_path, ring, gens):
    cache = BasisCache(tmp_path)
    set_persistent_cache(cache)
    first = groebner_basis(gens, ring)
    clear_memo()
    second = groebner_basis(gens, ring)
    assert first == second
    assert cache.hits >= 1


def test_redundant_generating_sets_hit_after_normalization(tmp_path, ring, gens):
    cache = BasisCache(tmp_path)
    set_persistent_cache(cache)
    groebner_basis(gens, ring)
    clear_memo()
    shuffled = [gens[1], gens[0], gens[0]]
    groebner_basis(shuffled, ring)
    assert cache.hits >= 1


def test_corrupt_entry_recomputed(tmp_path, ring, gens, caplog):
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring)
    key = key_for(ring, gens)
    cache.put(key, ring, basis)
    path = tmp_path / f"{key}.json"
    path.write_text(path.read_text()[:20], encoding="utf-8")
    with caplog.at_level(logging.WARNING, logger="frobtool"):
        assert cache.get(key, ring) is None
    assert cache.discarded == 1
    assert any("corrupt" in rec.message for rec in caplog.records)
    # engine recomputes silently after the discard
    set_persistent_cache(cache)
    clear_memo()
    assert groebner_basis(gens, ring) == basis


def test_ring_mismatch_discarded(tmp_path, ring, gens):
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring)
    key = key_for(ring, gens)
    cache.put(key, ring, basis)
    other = RingSpec(PrimeField(3), ("x", "y", "z"))
    assert cache.get(key, other) is None
    assert cache.discarded == 1


@pytest.mark.parametrize("payload", [
    [], "x*y", 7, None,
    {"version": 1, "ring": None, "basis": "x*y"},
    {"version": 1, "ring": None, "basis": ["x*y", 3]},
])
def test_malformed_entry_discarded(tmp_path, ring, gens, payload):
    # valid JSON that is not an object, or whose basis is not a list of
    # strings, is as corrupt as a truncated file
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring)
    key = key_for(ring, gens)
    cache.put(key, ring, basis)
    path = tmp_path / f"{key}.json"
    if isinstance(payload, dict):
        payload = dict(json.loads(path.read_text()), basis=payload["basis"])
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert cache.get(key, ring) is None
    assert (cache.discarded, cache.misses, cache.hits) == (1, 1, 0)
    assert not path.exists()


def test_unwritable_root_degrades(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("file, not a directory", encoding="utf-8")
    cache = BasisCache(target)
    assert not cache.enabled
    cache.put("k", RingSpec(PrimeField(2), ("x",)), ())
    assert cache.get("k", RingSpec(PrimeField(2), ("x",))) is None


def test_failed_write_leaves_no_temp_file(tmp_path, ring, gens, caplog, monkeypatch):
    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    cache = BasisCache(tmp_path)
    monkeypatch.setattr("frobtool.cache.os.replace", full_disk)
    with caplog.at_level(logging.WARNING, logger="frobtool"):
        cache.put(key_for(ring, gens), ring, groebner_basis(gens, ring))
    assert any("write failed" in rec.message for rec in caplog.records)
    assert list(tmp_path.iterdir()) == []


def test_entry_payload_is_canonical_text(tmp_path, ring, gens):
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring)
    key = key_for(ring, gens)
    cache.put(key, ring, basis)
    entry = json.loads((tmp_path / f"{key}.json").read_text())
    assert entry["basis"] == [str(g) for g in basis]
    assert entry["ring"]["p"] == 2


def test_content_key_is_stable():
    # digests of the key text from before each generator's text was
    # computed once; memo and persistent-cache keys must not move
    ring = RingSpec(PrimeField(3), ("x", "y", "z"), (1, 2, 1))
    gens = [parse_polynomial(s, ring)
            for s in ("2*x*y + z^3", "y^2 + 2*x^2*z^2", "x*z - y", "2*x*z + y", "x^4")]
    normalized = _normalized_gens(gens)
    assert [text for text, _ in normalized] == \
        ["x*y + 2*z^3", "x^4", "y + 2*x*z", "y^2 + 2*x^2*z^2"]
    assert _content_key(ring, normalized) == \
        "8e46aa6a5e1f459f15c97785921df380889f69055ada92808c92a3a2d18c1447"
    elim = RingSpec(ring.field, ring.variables, ring.weights, Order("elim", 1))
    assert _content_key(elim, normalized) == \
        "f2f0f23908d390892f72a9d53c8391f7d02902765d681fe7ba1de8664311821f"


def test_colon_key_is_tagged(ring, gens):
    # a colon entry never shares a key with a basis entry or with the
    # colon taken the other way round
    lhs, rhs = _normalized_gens(gens[:1]), _normalized_gens(gens[1:])
    key = _content_key(ring, lhs, rhs)
    assert key not in {_content_key(ring, lhs),
                       _content_key(ring, _normalized_gens(gens)),
                       _content_key(ring, rhs, lhs),
                       _content_key(ring, lhs + rhs, ())}
    assert key == "9658c731da557a7d7d0b009007abd58e3c24f518cc8fedf036e459c3c41204f7"
