import errno
import json
import logging

import pytest
from hypothesis import given, settings, strategies as st

from frobtool.cache import BasisCache, _ring_payload
from frobtool.groebner import (
    DegreeGuardExceeded,
    clear_memo,
    groebner_basis,
    set_persistent_cache,
    _content_key,
    _normalized_gens,
)
from frobtool.parsing import parse_polynomial
from frobtool.polyring import Order, PrimeField, RingSpec

from conftest import random_poly


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
    # term lists, is as corrupt as a truncated file
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


def test_entry_payload_is_term_arrays(tmp_path, ring, gens):
    # version 2: each basis element is a list of [e_1, ..., e_n, c] terms in
    # the polynomial's own descending order
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring)
    key = key_for(ring, gens)
    cache.put(key, ring, basis)
    entry = json.loads((tmp_path / f"{key}.json").read_text())
    assert entry == {
        "version": 2,
        "key": key,
        "ring": {"p": 2, "vars": ["x", "y", "z"], "weights": [1, 1, 1], "order": "grevlex"},
        "basis": [[[0, 2, 0, 1], [1, 0, 1, 1]],
                  [[1, 1, 0, 1], [0, 0, 2, 1]],
                  [[2, 0, 1, 1], [0, 1, 2, 1]]],
    }


def assert_discarded(cache, key, ring):
    path = cache.root / f"{key}.json"
    assert cache.get(key, ring) is None
    assert (cache.discarded, cache.misses, cache.hits) == (1, 1, 0)
    assert not path.exists()


def test_entry_under_another_key_discarded(tmp_path, ring, gens):
    cache = BasisCache(tmp_path)
    cache.put(key_for(ring, gens), ring, groebner_basis(gens, ring))
    other = [parse_polynomial("x^3 + y*z^2", ring)]
    other_key = key_for(ring, other)
    (tmp_path / f"{key_for(ring, gens)}.json").rename(tmp_path / f"{other_key}.json")
    assert_discarded(cache, other_key, ring)
    set_persistent_cache(cache)
    assert [str(g) for g in groebner_basis(other, ring)] == ["x^3 + y*z^2"]


@pytest.mark.parametrize("raw", [b'{"basis": ["\x80"]}', b"[" * 100_000],
                         ids=["not-utf-8", "nested-too-deep"])
def test_unreadable_entry_discarded(tmp_path, ring, gens, raw):
    # bytes that json.loads cannot read are as corrupt as a truncated file
    cache = BasisCache(tmp_path)
    key = key_for(ring, gens)
    (tmp_path / f"{key}.json").write_bytes(raw)
    assert_discarded(cache, key, ring)


@pytest.fixture
def ring3():
    return RingSpec(PrimeField(3), ("x", "y", "z"))


def _swap(basis):
    basis[0][0], basis[0][1] = basis[0][1], basis[0][0]


def _set(i, j, k, value):
    def mutate(basis):
        basis[i][j][k] = value
    return mutate


def _lead_multiple(basis):
    # the last lead times x: still ascending, but divisible by a lead
    lead = list(basis[-1][0])
    lead[0] += 1
    basis.append([lead])


# the stored basis over GF(3) is [y^2 + x*z, x*y + 2*z^2, x^2*z + y*z^2]
MUTATIONS = {
    "swapped-terms": _swap,
    "repeated-term": lambda basis: basis[1].append(basis[1][-1]),
    "coefficient-0": _set(1, 1, 3, 0),
    "coefficient-p": _set(1, 1, 3, 3),
    "negative-exponent": _set(2, 1, 0, -1),
    "float-exponent": _set(2, 1, 1, 1.0),
    "bool-exponent": _set(2, 1, 1, True),
    "float-coefficient": _set(1, 1, 3, 2.0),
    "short-term": lambda basis: basis[0][1].pop(),
    "long-term": lambda basis: basis[0][1].append(0),
    "term-no-list": lambda basis: basis[0].__setitem__(1, 7),
    "element-no-list": lambda basis: basis.__setitem__(1, "x*y + 2*z^2"),
    "empty-element": lambda basis: basis.__setitem__(1, []),
    # a reduced basis ascending by lead
    "empty-basis": lambda basis: basis.clear(),
    "lead-coefficient-not-1": _set(0, 0, 3, 2),
    "leads-not-ascending": lambda basis: basis.reverse(),
    "lead-divides-lead": _lead_multiple,
}


@pytest.mark.parametrize("mutate", MUTATIONS.values(), ids=MUTATIONS.keys())
def test_mutated_entry_discarded(tmp_path, ring3, mutate):
    gens = [parse_polynomial("x*y + 2*z^2", ring3), parse_polynomial("y^2 + x*z", ring3)]
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring3)
    key = key_for(ring3, gens)
    cache.put(key, ring3, basis)
    path = tmp_path / f"{key}.json"
    entry = json.loads(path.read_text())
    mutate(entry["basis"])
    path.write_text(json.dumps(entry), encoding="utf-8")
    assert_discarded(cache, key, ring3)
    set_persistent_cache(cache)
    clear_memo()
    assert groebner_basis(gens, ring3) == basis


def test_version_1_entry_rewritten_once(tmp_path, ring, gens, caplog):
    cache = BasisCache(tmp_path)
    basis = groebner_basis(gens, ring)
    key = key_for(ring, gens)
    path = tmp_path / f"{key}.json"
    path.write_text(json.dumps({"version": 1, "key": key, "ring": _ring_payload(ring),
                                "basis": [str(g) for g in basis]}), encoding="utf-8")
    set_persistent_cache(cache)
    clear_memo()
    with caplog.at_level(logging.WARNING, logger="frobtool"):
        assert groebner_basis(gens, ring) == basis
    assert any("version" in rec.message for rec in caplog.records)
    assert (cache.discarded, cache.misses, cache.hits) == (1, 1, 0)
    assert json.loads(path.read_text())["version"] == 2
    clear_memo()
    assert groebner_basis(gens, ring) == basis
    assert (cache.discarded, cache.misses, cache.hits) == (1, 1, 1)


@st.composite
def stored_bases(draw):
    """A reduced basis on a random ring: GF(2), GF(3), GF(5) or GF(7), one to
    four variables with weights 1 or 2, and grevlex, lex or an elimination
    order."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 4))
    weights = tuple(draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n)))
    orders = [Order("grevlex"), Order("lex")] + [Order("elim", b) for b in range(1, n)]
    ring = RingSpec(PrimeField(p), ("x", "y", "z", "w")[:n], weights,
                    draw(st.sampled_from(orders)))
    rng = draw(st.randoms(use_true_random=False))
    gens = [random_poly(ring, rng, max_terms=3, max_exp=2)
            for _ in range(rng.randint(1, 3))]
    return ring, gens


@settings(max_examples=100, deadline=None)
@given(stored_bases())
def test_round_trip_any_ring(tmp_path_factory, instance):
    ring, gens = instance
    try:
        basis = groebner_basis(gens, ring, 30)
    except DegreeGuardExceeded:
        return
    cache = BasisCache(tmp_path_factory.mktemp("store"))
    key = key_for(ring, gens)
    cache.put(key, ring, basis)
    loaded = cache.get(key, ring)
    assert cache.hits == 1
    assert [g.terms for g in loaded] == [g.terms for g in basis]


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
