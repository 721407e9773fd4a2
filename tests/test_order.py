"""The ring order has one encoding in the library, packed ints; every place
that sorts or checks by it must agree with the reference tuple key of
`order_oracle`, on random rings and on exponents far past a machine word."""

import itertools
import tempfile

from hypothesis import given, settings, strategies as st

from frobtool.cache import BasisCache
from frobtool.monomials import MonomialIdeal
from frobtool.polyring import Order, Polynomial, PrimeField, RingSpec, mono_divides

from order_oracle import key_function

BIG = 5 ** 30  # scales exponents past 2^64


@st.composite
def rings(draw):
    n = draw(st.integers(1, 4))
    orders = [Order("grevlex"), Order("lex")] + [Order("elim", k) for k in (1, 2) if k < n]
    weights = draw(st.one_of(st.just((1,) * n),
                             st.lists(st.integers(1, 5), min_size=n, max_size=n).map(tuple)))
    return RingSpec(PrimeField(draw(st.sampled_from((2, 3, 5)))),
                    tuple(f"x{i}" for i in range(n)), weights, draw(st.sampled_from(orders)))


@st.composite
def ring_and_monos(draw, min_size=1):
    # the permutations of one exponent vector tie on degree where the
    # weights are equal, so the order's later fields decide
    ring = draw(rings())
    exps = st.tuples(*[st.integers(0, 5)] * ring.nvars)
    monos = draw(st.lists(exps, min_size=min_size, max_size=8))
    if draw(st.booleans()):
        monos += sorted(set(itertools.permutations(draw(exps))))
    scale = draw(st.sampled_from((1, BIG)))
    return ring, [tuple(scale * e for e in m) for m in monos]


@settings(max_examples=300, deadline=None)
@given(ring_and_monos(), st.randoms(use_true_random=False))
def test_polynomial_terms_in_reference_order(instance, rng):
    ring, monos = instance
    p = ring.field.p
    f = Polynomial(ring, [(m, rng.randrange(1, p)) for m in monos])
    key = key_function(ring)
    distinct = {m for m, _ in f.terms}
    assert [m for m, _ in f.terms] == sorted(distinct, key=key, reverse=True)


@settings(max_examples=150, deadline=None)
@given(ring_and_monos(), st.randoms(use_true_random=False))
def test_cache_round_trip_keeps_terms(instance, rng):
    # a basis that passes the store's cheap checks: monic, leads an antichain
    # in ascending order, each tail below its lead
    ring, monos = instance
    key = key_function(ring)
    p = ring.field.p
    leads = MonomialIdeal(ring, monos).generators
    basis = []
    for lead in sorted(leads, key=key):
        tail = [(m, rng.randrange(1, p)) for m in monos if key(m) < key(lead)]
        basis.append(Polynomial(ring, [(lead, 1)] + tail))
    with tempfile.TemporaryDirectory() as root:
        cache = BasisCache(root)
        cache.put("k", ring, basis)
        loaded = cache.get("k", ring)
        assert cache.discarded == 0
    assert [g.terms for g in loaded] == [g.terms for g in basis]


@settings(max_examples=300, deadline=None)
@given(ring_and_monos(min_size=0))
def test_monomial_ideal_generators_in_reference_order(instance):
    ring, monos = instance
    key = key_function(ring)
    gens = MonomialIdeal(ring, monos).generators
    assert list(gens) == sorted(gens, key=lambda m: (ring.weighted_degree(m), key(m)))
    assert all(any(mono_divides(g, m) for g in gens) for m in monos)
    assert not any(mono_divides(a, b) for a in gens for b in gens if a != b)
