import pytest
from hypothesis import given, settings, strategies as st

from frobtool.polyring import PrimeField, RingMismatch, RingSpec, is_prime

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17]


def constants(p):
    """GF(p) as the constants of a one-variable ring, ascending by residue."""
    ring = RingSpec(PrimeField(p), ("x",))
    return ring, [ring.constant(a) for a in range(p)]


def test_primality_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_primality_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31 - 2)
    assert not is_prime(1_000_000_007 * 3)


def test_field_rejects_composite_and_range():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_frobenius_is_identity_exhaustive(p):
    _, els = constants(p)
    for a in els:
        assert a ** p == a
        assert a.frobenius_power(1) == a


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_freshman_dream_exhaustive(p):
    _, els = constants(p)
    for a in els:
        for b in els:
            assert (a + b) ** p == a ** p + b ** p


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_field_axioms_exhaustive(p):
    ring, els = constants(p)
    zero, one = ring.zero(), ring.one()
    for r, a in enumerate(els):
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if a:
            assert a * ring.constant(ring.field.inv(r)) == one
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a


@settings(max_examples=200, deadline=None)
@given(st.integers(), st.integers())
def test_arithmetic_matches_int_mod_p(x, y):
    ring = RingSpec(PrimeField(13), ("x",))
    a, b = ring.constant(x), ring.constant(y)
    assert (a + b).coefficient((0,)) == (x + y) % 13
    assert (a - b).coefficient((0,)) == (x - y) % 13
    assert (a * b).coefficient((0,)) == (x * y) % 13


def test_mixed_field_operations_rejected():
    a = RingSpec(PrimeField(3), ("x",)).one()
    b = RingSpec(PrimeField(5), ("x",)).one()
    with pytest.raises(RingMismatch, match="ring mismatch"):
        a + b


def test_division_by_zero():
    field = PrimeField(7)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)
    with pytest.raises(ZeroDivisionError):
        field.inv(14)
