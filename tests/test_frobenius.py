from fractions import Fraction

import pytest

from frobtool.frobenius import (
    component,
    degree_growth,
    fingen_probe,
    generation_report,
    monomial_fingen_probe,
    product_component,
    qgor_expected_bound,
    twisted_mul,
    twisted_mul_reps,
)
from frobtool.groebner import DegreeGuardExceeded, Ideal, clear_memo
from frobtool.monomials import MonomialIdeal
from frobtool.parsing import parse_polynomial
from frobtool.polyring import PrimeField, RingSpec


@pytest.fixture
def katzman(gf2_xyz):
    return Ideal(gf2_xyz, (parse_polynomial("x*y", gf2_xyz),
                           parse_polynomial("y*z", gf2_xyz)))


class TestComponent:
    def test_principal_hypersurface(self, gf2_xyz):
        f = parse_polynomial("x*y - z^2", gf2_xyz)
        ideal = Ideal(gf2_xyz, (f,))
        for e in (1, 2, 3):
            q = 2 ** e
            comp = component(ideal, e)
            assert len(comp.min_gens) == 1
            assert comp.min_gens[0] == (f ** (q - 1)).monic()

    def test_katzman_degree1(self, gf2_xyz, katzman):
        comp = component(katzman, 1)
        reps = {str(g) for g in comp.min_gens}
        assert reps == {"x^2*y", "x*y*z", "y*z^2"}
        assert comp.q == 2

    def test_degree0(self, gf2_xyz, katzman):
        comp = component(katzman, 0)
        assert comp.min_gens == (gf2_xyz.one(),)
        assert [str(g) for g in comp.colon.generators] == ["1"]

    def test_rejects_improper(self, gf2_xyz):
        with pytest.raises(ValueError):
            component(Ideal(gf2_xyz, (gf2_xyz.one(),)), 1)

    def test_min_gens_satisfy_colon_contract(self, katzman):
        comp = component(katzman, 2)
        for g in comp.min_gens:
            assert not comp.modulus.contains(g)
            for f in katzman.generators:
                assert comp.modulus.contains(g * f)


class TestTwistedMul:
    def test_degree0_left_identity(self, gf2_xyz, katzman):
        b = component(katzman, 1).min_gens[0]
        assert twisted_mul(gf2_xyz.one(), 0, b) == b

    def test_noncommutative_on_plane(self):
        R = RingSpec(PrimeField(2), ("x", "y"))
        x, y = R.variable("x"), R.variable("y")
        assert twisted_mul(x, 1, y) == x * y * y
        assert twisted_mul(y, 1, x) == x * x * y
        assert twisted_mul(x, 1, y) != twisted_mul(y, 1, x)

    def test_hypersurface_exponent_identity(self, gf2_xyz):
        f = parse_polynomial("x*y - z^2", gf2_xyz)
        for e1, e2 in ((1, 1), (1, 2), (2, 1)):
            q1, q2 = 2 ** e1, 2 ** e2
            lhs = twisted_mul(f ** (q1 - 1), e1, f ** (q2 - 1))
            assert lhs == f ** (q1 * q2 - 1)

    def test_checked_product_accepts_valid_reps(self, katzman):
        c1 = component(katzman, 1)
        g = c1.min_gens[0]
        result = twisted_mul_reps(g, 1, g, 1, katzman)
        assert result == g * g.frobenius_power(1)

    def test_checked_product_rejects_invalid(self, gf2_xyz, katzman):
        bad = gf2_xyz.variable("x")  # x is not in the colon of degree 1
        with pytest.raises(ArithmeticError):
            twisted_mul_reps(bad, 1, bad, 1, katzman)

    def test_check_honours_degree_guard(self, katzman):
        g = component(katzman, 1).min_gens[0]
        clear_memo()  # a basis memoized by another test would skip the guard
        with pytest.raises(DegreeGuardExceeded):
            twisted_mul_reps(g, 1, g, 1, katzman, degree_guard=2)


class TestProductComponent:
    def test_principal(self, gf2_xyz):
        f = parse_polynomial("x*y - z^2", gf2_xyz)
        ideal = Ideal(gf2_xyz, (f,))
        c1 = component(ideal, 1)
        prods = product_component(c1, c1)
        assert len(prods) == 1
        assert prods[0] == (f ** 3).monic()

    def test_katzman_nine_products(self, katzman):
        c1 = component(katzman, 1)
        prods = product_component(c1, c1)
        assert len(prods) == 9
        membership = component(katzman, 2)
        for prod in prods:
            for f in katzman.generators:
                assert membership.modulus.contains(prod * f)


class TestFinGenProbe:
    def test_hypersurface_generated(self, gf2_xyz):
        ideal = Ideal(gf2_xyz, (parse_polynomial("x*y - z^2", gf2_xyz),))
        report = fingen_probe(ideal, 3).report
        for row in report.rows:
            if row.e >= 2:
                assert row.generated_from_lower
                assert row.new_gen_count == 0
        assert report.first_new_degree is None

    def test_katzman_new_generators(self, katzman):
        report = fingen_probe(katzman, 3).report
        assert report.row(1).min_gen_count == 3
        for e in (2, 3):
            assert report.row(e).new_gen_count >= 1
        assert report.first_new_degree == 2

    def test_monomial_path_agrees(self, gf2_xyz, katzman):
        report = fingen_probe(katzman, 3).report
        mono = MonomialIdeal(gf2_xyz, [(1, 1, 0), (0, 1, 1)])
        oracle = monomial_fingen_probe(mono, 3)
        for a, b in zip(report.rows, oracle.rows):
            assert (a.e, a.min_gen_count, a.new_gen_count, a.generated_from_lower) == \
                   (b.e, b.min_gen_count, b.new_gen_count, b.generated_from_lower)
            assert a.max_gen_degree == b.max_gen_degree

    def test_flag_iff_zero_new(self, katzman):
        report = fingen_probe(katzman, 3).report
        for row in report.rows:
            if row.e >= 2:
                assert row.generated_from_lower == (row.new_gen_count == 0)

    def test_generation_report_convention(self):
        gens = [("a", "b"), ("c",), ("d", "e")]
        seen = []

        def outside(e, products):
            products = list(products)
            seen.append((e, products))
            return [] if e == 2 else list(gens[e - 1])

        report = generation_report(
            3, gens, lambda e1, e2: [f"{a}{b}" for a in gens[e1 - 1] for b in gens[e2 - 1]],
            outside)
        assert [(r.e, r.q, r.min_gen_count, r.new_gen_count, r.max_gen_degree,
                 r.generated_from_lower) for r in report.rows] == [
            (1, 3, 2, 2, 0, False), (2, 9, 1, 0, 0, True), (3, 27, 2, 2, 0, False)]
        assert seen == [(2, ["aa", "ab", "ba", "bb"]),
                        (3, ["ac", "bc", "ca", "cb"])]
        assert report.emax == 3 and report.first_new_degree == 3

    def test_summary_wording(self, katzman):
        lines = fingen_probe(katzman, 3).report.summary_lines()
        assert any("new generators required at e = 2" in line for line in lines)
        assert any("relative to full lower components" in line for line in lines)


class TestDegreeGrowth:
    def test_hypersurface_ratio(self, gf2_xyz):
        f = parse_polynomial("x*y - z^2", gf2_xyz)  # degree 2
        ideal = Ideal(gf2_xyz, (f,))
        growth = degree_growth(ideal, 3)
        for e, deg, ratio in growth:
            q = 2 ** e
            assert deg == 2 * (q - 1)
            assert ratio == Fraction(2 * (q - 1), q)

    def test_katzman_frozen_values(self, katzman):
        growth = degree_growth(katzman, 3)
        assert growth == [(1, 3, Fraction(3, 2)), (2, 9, Fraction(9, 4)),
                          (3, 21, Fraction(21, 8))]


class TestExpectedBound:
    def test_values(self):
        assert qgor_expected_bound(3, 7) == 1
        assert qgor_expected_bound(3, 2) == 2
        assert qgor_expected_bound(3, 3) is None
        assert qgor_expected_bound(1, 5) == 1
        assert qgor_expected_bound(5, 2) == 4

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            qgor_expected_bound(0, 2)


def test_frobenius_degree_validation(katzman):
    assert component(katzman, 3).q == 8
    with pytest.raises(ValueError):
        component(katzman, -1)
