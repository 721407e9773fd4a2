import random

import pytest
from hypothesis import given, settings, strategies as st

from frobtool.parsing import MAX_NESTING, ParseError, UnknownVariableError, parse_polynomial
from frobtool.polyring import Polynomial, PrimeField, RingSpec

from conftest import random_poly


@pytest.fixture
def gf3_six():
    return RingSpec(PrimeField(3), ("u", "v", "w", "x", "y", "z"))


def test_sign_collapse_char2(gf2_xyz):
    f = parse_polynomial("x*y - y*z", gf2_xyz)
    assert len(f.terms) == 2
    assert f == parse_polynomial("x*y + y*z", gf2_xyz)


def test_minor_char3(gf3_six):
    f = parse_polynomial("v*z - w*y", gf3_six)
    assert f.coefficient((0, 1, 0, 0, 0, 1)) == 1
    assert f.coefficient((0, 0, 1, 0, 1, 0)) == 2


def test_zero(gf2_xyz):
    assert parse_polynomial("0", gf2_xyz).is_zero()
    assert parse_polynomial("x - x", gf2_xyz).is_zero()


def test_integer_reduction(gf2_xyz):
    assert parse_polynomial("7*x", gf2_xyz) == parse_polynomial("x", gf2_xyz)
    assert parse_polynomial("4*x", gf2_xyz).is_zero()


def test_parentheses_and_powers(gf2_xyz):
    f = parse_polynomial("(x + y)^3", gf2_xyz)
    g = parse_polynomial("x^3 + x^2*y + x*y^2 + y^3", gf2_xyz)
    assert f == g


def test_unary_minus(gf3_six):
    f = parse_polynomial("-u", gf3_six)
    assert f.coefficient((1, 0, 0, 0, 0, 0)) == 2
    assert parse_polynomial("--u", gf3_six) == parse_polynomial("u", gf3_six)
    assert parse_polynomial("-u^2", gf3_six) == -parse_polynomial("u^2", gf3_six)


def test_whitespace_insignificant(gf2_xyz):
    assert parse_polynomial("x\n\t* y+ z", gf2_xyz) == parse_polynomial("x*y+z", gf2_xyz)


class TestErrors:
    def test_unknown_variable_with_location(self, gf2_xyz):
        with pytest.raises(UnknownVariableError) as err:
            parse_polynomial("x*y + q", gf2_xyz)
        assert err.value.line == 1
        assert err.value.column == 7

    def test_missing_star(self, gf2_xyz):
        with pytest.raises(ParseError, match="missing '\\*'"):
            parse_polynomial("2x", gf2_xyz)

    def test_multiline_location(self, gf2_xyz):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x +\n y + $", gf2_xyz)
        assert err.value.line == 2

    def test_unbalanced_paren(self, gf2_xyz):
        with pytest.raises(ParseError):
            parse_polynomial("(x + y", gf2_xyz)

    def test_bad_exponent(self, gf2_xyz):
        with pytest.raises(ParseError, match="exponent"):
            parse_polynomial("x^y", gf2_xyz)

    def test_trailing_garbage(self, gf2_xyz):
        with pytest.raises(ParseError):
            parse_polynomial("x y", gf2_xyz)

    def test_nesting_limit(self, gf2_xyz):
        deep = MAX_NESTING * "(" + "x" + MAX_NESTING * ")"
        assert parse_polynomial(deep, gf2_xyz) == parse_polynomial("x", gf2_xyz)
        # one level more is a located error, not a RecursionError
        with pytest.raises(ParseError, match="nested too deeply") as err:
            parse_polynomial("x +\n" + "(" + deep + ")", gf2_xyz)
        assert (err.value.line, err.value.column) == (2, MAX_NESTING + 1)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_polynomial(5000 * "(" + "x" + 5000 * ")", gf2_xyz)


class TestRoundTrip:
    @pytest.mark.parametrize("p", [2, 3, 7])
    def test_random_round_trip(self, p):
        ring = RingSpec(PrimeField(p), ("x", "y", "z"))
        rng = random.Random(p * 11)
        for _ in range(60):
            f = random_poly(ring, rng, max_terms=6, max_exp=4)
            assert parse_polynomial(str(f), ring) == f
        assert parse_polynomial(str(ring.zero()), ring) == ring.zero()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                              st.integers(1, 4)), max_size=6))
    def test_hypothesis_round_trip(self, items):
        ring = RingSpec(PrimeField(5), ("x", "y"))
        f = Polynomial(ring, items)
        assert parse_polynomial(str(f), ring) == f
