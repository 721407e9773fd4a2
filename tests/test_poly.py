import copy
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from frobtool.parsing import parse_polynomial
from frobtool import polyring
from frobtool.monomials import FracMonomialModule, MonomialIdeal, SemigroupSpec
from frobtool.polyring import (
    GREVLEX,
    LEX,
    Order,
    PrimeField,
    RingSpec,
    _order_key,
)

import order_oracle
from conftest import random_poly


def ring(p, names, weights=(), order=GREVLEX):
    return RingSpec(PrimeField(p), names, weights, order)


class TestArithmetic:
    def test_freshman_dream_char2(self, gf2_xyz):
        f = parse_polynomial("(x + y)^2", gf2_xyz)
        assert str(f) == "x^2 + y^2"

    def test_minor_product_char2(self):
        # hand expansion: (wx + uz)(uy + vx) = uwxy + vwx^2 + u^2yz + uvxz
        R = ring(2, ("u", "v", "w", "x", "y", "z"))
        d2 = parse_polynomial("w*x - u*z", R)
        d3 = parse_polynomial("u*y - v*x", R)
        prod = d2 * d3
        expected = parse_polynomial("u*w*x*y + v*w*x^2 + u^2*y*z + u*v*x*z", R)
        assert prod == expected
        assert len(prod.terms) == 4
        assert prod.weighted_degree() == 4

    def test_additive_inverse(self, gf2_xyz):
        rng = random.Random(1)
        for _ in range(20):
            f = random_poly(gf2_xyz, rng, max_terms=5)
            assert (f + (-f)).is_zero()

    def test_ring_mismatch(self):
        a = ring(2, ("x",)).variable("x")
        b = ring(2, ("y",)).variable("y")
        with pytest.raises(ValueError):
            a + b

    def test_pow_matches_repeated_product(self, gf2_xyz):
        f = parse_polynomial("x + y*z", gf2_xyz)
        assert f ** 3 == f * f * f
        assert f ** 0 == gf2_xyz.one()


class TestFrobeniusPower:
    def test_char2_linear(self, gf2_xyz):
        f = parse_polynomial("x + y", gf2_xyz)
        assert f.frobenius_power(1) == parse_polynomial("x^2 + y^2", gf2_xyz)

    def test_char3_minor(self):
        R = ring(3, ("u", "v", "w", "x", "y", "z"))
        d1 = parse_polynomial("v*z - w*y", R)
        assert d1.frobenius_power(1) == parse_polynomial("v^3*z^3 - w^3*y^3", R)

    def test_identity_at_e0(self, gf2_xyz):
        f = parse_polynomial("x*y + z", gf2_xyz)
        assert f.frobenius_power(0) == f

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_matches_plain_power(self, p):
        R = ring(p, ("x", "y", "z"))
        rng = random.Random(p)
        for _ in range(15):
            f = random_poly(R, rng, max_terms=8, max_exp=2)
            for e in (0, 1, 2):
                assert f.frobenius_power(e) == f ** (p ** e)


class TestWeightedDegree:
    def test_standard(self, gf2_xyz):
        assert parse_polynomial("x*y*z", gf2_xyz).weighted_degree() == 3

    def test_product_of_quadrics(self):
        R = ring(2, ("u", "v", "w", "x", "y", "z"))
        d2 = parse_polynomial("w*x - u*z", R)
        d3 = parse_polynomial("u*y - v*x", R)
        assert (d2 * d3).weighted_degree() == 4

    def test_zero_is_undefined(self, gf2_xyz):
        assert gf2_xyz.zero().weighted_degree() is None

    def test_nonstandard_weights(self):
        R = ring(2, ("x", "y"), weights=(2, 3))
        assert parse_polynomial("x*y^2", R).weighted_degree() == 8
        assert parse_polynomial("x^3 + y^2", R).is_homogeneous()

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((GREVLEX, LEX, Order("elim", 1), Order("elim", 2))),
           st.sampled_from(((1, 1, 1), (1, 2, 1), (3, 1, 2))),
           st.randoms(use_true_random=False))
    def test_equals_max_over_terms(self, order, weights, rng):
        # grevlex reads the lead; lex and elim leads need not have the top degree
        R = ring(rng.choice((2, 3, 5)), ("x", "y", "z"), weights, order)
        f = random_poly(R, rng, max_terms=5, max_exp=4)
        assert f.weighted_degree() == max(R.weighted_degree(m) for m, _ in f.terms)


def compare(ring, a, b) -> int:
    """-1, 0 or 1 as a is below, equal to or above b, by packed ints."""
    key = _order_key(ring, (a, b))
    ka, kb = key(a), key(b)
    return (ka > kb) - (ka < kb)


class TestMonomialOrder:
    def test_grevlex_examples(self, gf2_xyz):
        x2 = (2, 0, 0)
        xy = (1, 1, 0)
        assert compare(gf2_xyz, x2, xy) == 1
        assert compare(gf2_xyz, xy, xy) == 0

    def test_elimination_dominance(self):
        R = RingSpec(PrimeField(2), ("t", "x"), order=Order("elim", 1))
        assert compare(R, (1, 0), (0, 100)) == 1

    def test_lex(self):
        R = ring(2, ("x", "y"), order=LEX)
        assert compare(R, (1, 0), (0, 5)) == 1

    def test_total_transitive_antisymmetric(self, gf2_xyz):
        rng = random.Random(7)
        monos = [tuple(rng.randint(0, 4) for _ in range(3)) for _ in range(60)]
        for a, b, c in zip(monos, monos[20:], monos[40:]):
            ab = compare(gf2_xyz, a, b)
            ba = compare(gf2_xyz, b, a)
            assert ab == -ba
            assert (ab == 0) == (a == b)
            if ab >= 0 and compare(gf2_xyz, b, c) >= 0:
                assert compare(gf2_xyz, a, c) >= 0

    def test_multiplicative(self, gf2_xyz):
        rng = random.Random(8)
        for _ in range(50):
            a = tuple(rng.randint(0, 4) for _ in range(3))
            b = tuple(rng.randint(0, 4) for _ in range(3))
            c = tuple(rng.randint(0, 3) for _ in range(3))
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert compare(gf2_xyz, a, b) == compare(gf2_xyz, ac, bc)

    def test_terms_sorted_descending(self, gf2_xyz):
        rng = random.Random(9)
        for _ in range(20):
            f = random_poly(gf2_xyz, rng, max_terms=6)
            monos = [m for m, _ in f.terms]
            for a, b in zip(monos, monos[1:]):
                assert order_oracle.compare(gf2_xyz, a, b) == 1

    def test_packing_memo_stays_bounded(self):
        maxsize = polyring.PACKING_MEMO_SIZE
        for i in range(maxsize + 10):
            R = ring(2, ("x", "y"), (1, i + 1))
            _order_key(R, [(i, 1)])((i, 1))
            polyring._packing(R, 1 << i)
        info = polyring._packing_of_width.cache_info()
        assert info.maxsize == maxsize
        assert info.currsize <= maxsize


class TestOrderKeyEdge:
    """_order_key packs without the overflow test of Packing.pack, which its
    own width rules out: each field holds at most the largest exponent
    times the sum of the weights."""

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((GREVLEX, LEX, Order("elim", 1))),
           st.sampled_from(((1, 1, 1), (1, 2, 1), (3, 1, 2))),
           st.integers(1, 80), st.randoms(use_true_random=False))
    def test_order_key_matches_checked_pack_at_its_width_edge(self, order, weights, bits, rng):
        R = ring(rng.choice((2, 3, 5)), ("x", "y", "z"), weights, order)
        # the largest exponent whose bound still has `bits` bits
        top = max(1, ((1 << bits) - 1) // sum(weights))
        monos = [(top,) * 3] + [tuple(rng.choice((0, 1, top - 1, top, rng.randint(0, top)))
                                      for _ in range(3)) for _ in range(12)]
        key = _order_key(R, monos)
        pack = polyring._packing(R, top * sum(weights)).pack
        assert [key(m) for m in monos] == [pack(m) for m in monos]
        assert sorted(monos, key=key) == sorted(monos, key=pack) == \
            sorted(monos, key=order_oracle.key_function(R))


class TestRingSpecHash:
    """A RingSpec computes its hash once, when made; rings made apart with
    equal fields hash and compare equal, and rings that differ in any field
    compare unequal."""

    def test_equal_fields_hash_and_compare_equal(self):
        a = ring(5, ("x", "y", "z"), (1, 1, 1))
        for b in (ring(5, ["x", "y", "z"]), RingSpec(PrimeField(5), ("x", "y", "z"),
                                                     [1, 1, 1], Order("grevlex")),
                  pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert a is not b and a == b and hash(a) == hash(b)
            assert {a: 1}[b] == 1

    def test_any_field_differs(self):
        a = ring(5, ("x", "y", "z"), (1, 2, 1))
        for b in (ring(7, ("x", "y", "z"), (1, 2, 1)), ring(5, ("x", "y", "w"), (1, 2, 1)),
                  ring(5, ("x", "z", "y"), (1, 2, 1)), ring(5, ("x", "y", "z"), (1, 1, 1)),
                  ring(5, ("x", "y", "z"), (1, 2, 1), LEX),
                  ring(5, ("x", "y", "z"), (1, 2, 1), Order("elim", 1)),
                  ring(5, ("x", "y", "z", "t"), (1, 2, 1, 1))):
            assert a != b and b != a
        assert len({a, ring(5, ("x", "y", "z"), (1, 2, 1))}) == 1


def _value_types():
    """(value, its field tuple) for each immutable value type."""
    R = ring(3, ("x", "y"), (1, 2), Order("elim", 1))
    semigroup = SemigroupSpec(2, [((1, 2), 3)])
    return [
        (PrimeField(5), (5,)),
        (Order("elim", 1), ("elim", 1)),
        (R, (R.field, ("x", "y"), (1, 2), R.order)),
        (MonomialIdeal(R, [(1, 1), (2, 0)]), (R, ((2, 0), (1, 1)))),
        (semigroup, (2, (((1, 2), 3),))),
        (FracMonomialModule(semigroup, [(1, -1)], 2), (semigroup, ((1, -1),), 2)),
    ]


@pytest.mark.parametrize("value, fields", _value_types(),
                         ids=[type(v).__name__ for v, _ in _value_types()])
def test_value_type_hash_equality_and_copies(value, fields):
    """Each value type hashes as its field tuple, compares equal only to
    its own type, survives pickling and copying, and rejects assignment."""
    assert hash(value) == hash(fields)
    assert value != fields
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin is not value and twin == value and hash(twin) == hash(value)
    with pytest.raises(AttributeError):
        setattr(value, type(value).__slots__[0], None)
    with pytest.raises(AttributeError):
        delattr(value, type(value).__slots__[0])


class TestRingSpecValidation:
    def test_duplicate_variables(self):
        with pytest.raises(ValueError):
            ring(2, ("x", "x"))

    def test_weight_length(self):
        with pytest.raises(ValueError):
            ring(2, ("x", "y"), weights=(1,))

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            ring(2, ("x",), weights=(0,))

    def test_substitute(self):
        R = ring(5, ("a", "b"))
        S = ring(5, ("x", "y"))
        f = parse_polynomial("a*b - b^2", R)
        image = f.substitute({"a": parse_polynomial("x^2", S),
                              "b": parse_polynomial("y", S)}, S)
        assert image == parse_polynomial("x^2*y - y^2", S)
