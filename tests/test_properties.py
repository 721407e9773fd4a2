"""Invariant-based randomized suites; zero failures permitted."""

import warnings

from frobtool.frobenius import degree_growth, fingen_probe
from frobtool.groebner import Ideal, frobenius_power, ideal_power
from frobtool.parsing import parse_polynomial
from frobtool.polyring import PrimeField, RingSpec

import property_suites
from conftest import minors_over


def test_spoly_zero_reduction_random_bases():
    assert property_suites.run_basis_spoly_suite(25) == 25


def test_spoly_zero_reduction_named_bases(minors, gf2_xyz):
    _, ideal = minors
    property_suites.check_reduced_basis(ideal)
    property_suites.check_reduced_basis(frobenius_power(ideal, 1))
    katzman = Ideal(gf2_xyz, (parse_polynomial("x*y", gf2_xyz),
                              parse_polynomial("y*z", gf2_xyz)))
    property_suites.check_reduced_basis(katzman)


def test_colon_characterization_50_ideals():
    assert property_suites.run_colon_suite(50) == 50


def test_frobenius_power_generating_set_independence_20_ideals():
    assert property_suites.run_frobenius_independence_suite(20) == 20


def test_cross_oracle_50_ideals():
    assert property_suites.run_cross_oracle_suite(50) == 50


def test_probe_cross_oracle_24_monomial_ideals():
    assert property_suites.run_probe_cross_oracle_suite(24) == 24


def test_squarefree_cross_oracle_12_ideals_in_4_variables():
    assert property_suites.run_squarefree_cross_oracle_suite(12, nvars=4) == 12


def test_twisted_mul_laws_100_elements():
    assert property_suites.run_twisted_mul_suite(100) >= 100


def test_lift_family_membership_invariant():
    # p = 2, q in {2, 4}: y^s z^t (D2 D3)^{q-1} lies in I^[q] + (x^{s+t})
    ring, ideal = minors_over(2)
    d2, d3 = ideal.generators[1], ideal.generators[2]
    y, z, x = (ring.variable(v) for v in ("y", "z", "x"))
    for e in (1, 2):
        q = 2 ** e
        modulus = frobenius_power(ideal, e)
        core = (d2 * d3) ** (q - 1)
        for s in range(q):
            for t in range(q - s):
                extended = modulus + Ideal(ring, (x ** (s + t),))
                assert extended.normal_form(y ** s * z ** t * core).is_zero()


def test_pigeonhole_containment():
    # I^{2q-1} inside I^[q] for the 2x3 minors at p=2, q=2: every product
    # of 3 generators is a member
    _, ideal = minors_over(2)
    modulus = frobenius_power(ideal, 1)
    cube = ideal_power(ideal, 3)
    assert len(cube.generators) == 10
    for g in cube.generators:
        assert modulus.contains(g)


def test_degree_growth_band_reported_not_asserted():
    """Weak monotonicity band: ratios non-increasing beyond e=1 OR bounded
    by twice the e=1 ratio; a violation warns instead of failing."""
    gf2 = RingSpec(PrimeField(2), ("x", "y", "z"))
    katzman = Ideal(gf2, (parse_polynomial("x*y", gf2),
                          parse_polynomial("y*z", gf2)))
    _, det = minors_over(2)
    for name, ideal, emax in (("katzman", katzman, 3), ("determinantal", det, 2)):
        growth = degree_growth(fingen_probe(ideal, emax).report)
        ratios = [r for _, _, r in growth]
        non_increasing = all(b <= a for a, b in zip(ratios[1:], ratios[2:]))
        banded = all(r <= 2 * ratios[0] for r in ratios)
        if not (non_increasing or banded):
            warnings.warn(f"degree-growth band violated for {name}: {ratios}")


def test_veronese_generation_bands():
    """Per-degree generation pattern of the cubic Veronese components:
    cyclic and degree-1 generated when p = 1 mod 3; p = 2 settles from
    degree 3 on (bound e0 = 2); p = 3 needs new generators at every degree."""
    from frobtool.frobenius import fingen_probe, fractional_fingen_probe, qgor_expected_bound
    from frobtool.gallery import twisted_cubic_ideal
    from frobtool.monomials import veronese_component

    def veronese_rows(p, emax):
        comps = [veronese_component(2, 3, p, e) for e in range(1, emax + 1)]
        return fractional_fingen_probe(comps, p).rows

    for p in (7, 13):
        rows = veronese_rows(p, 3)
        assert all(r.min_gen_count == 1 for r in rows)
        assert all(r.generated_from_lower for r in rows if r.e >= 2)
        assert qgor_expected_bound(3, p) == 1
    rows = veronese_rows(2, 4)
    assert [r.generated_from_lower for r in rows] == [False, False, True, True]
    _, ideal = twisted_cubic_ideal(2)
    groebner_rows = fingen_probe(ideal, 4, degree_guard=400).report.rows
    assert [(r.min_gen_count, r.new_gen_count, r.generated_from_lower)
            for r in groebner_rows] == \
        [(r.min_gen_count, r.new_gen_count, r.generated_from_lower) for r in rows]
    rows3 = veronese_rows(3, 3)
    assert all(r.new_gen_count >= 1 for r in rows3)


def test_segre_probe_matches_minors_probe():
    """ROADMAP item 7: the Segre-semigroup probe agrees row for row with the
    Groebner probe on the 2x3 minors, and deeper it never calls a degree
    generated from lower where the gallery's witness is excluded."""
    assert property_suites.run_segre_probe_suite() == 11


def test_probe_flag_convention():
    gf2 = RingSpec(PrimeField(2), ("x", "y", "z"))
    hyper = Ideal(gf2, (parse_polynomial("x*y - z^2", gf2),))
    report = fingen_probe(hyper, 2).report
    first = report.rows[0]
    assert first.e == 1 and not first.generated_from_lower
    assert first.new_gen_count == first.min_gen_count
