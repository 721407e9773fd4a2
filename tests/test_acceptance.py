"""Acceptance criteria, one test per criterion.

Every check is exact (integer/GF(p) arithmetic throughout, no tolerances);
each test prints one pass/fail line and enforces its runtime budget.
"""

import time
from fractions import Fraction

from frobtool import gallery
from frobtool.frobenius import degree_growth, fingen_probe, qgor_expected_bound
from frobtool.groebner import Ideal
from frobtool.parsing import parse_polynomial
from frobtool.polyring import PrimeField, RingSpec

import property_suites
from conftest import minors_over


def _announce(num, name, ok, seconds, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({seconds:.1f}s, budget {budget}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert seconds < budget, f"criterion {num} exceeded {budget}s budget"


def _failures(result):
    return [(e.name, e.measured) for e in result.expectations if not e.ok]


def test_criterion_1_fedder_identity():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        start = time.monotonic()
        result = gallery.fedder_identity_check(p)
        assert time.monotonic() - start < 300, f"fedder p={p} exceeded 5 minutes"
        ok = ok and result.passed
        if not result.passed:
            print(_failures(result))
    _announce(1, "fedder identity p=2,3", ok, time.monotonic() - t0, 600)


def test_criterion_2_fedder_strictness():
    t0 = time.monotonic()
    result = gallery.fedder_identity_check(2)
    exp = [e for e in result.expectations if e.name == "strict_containment_q4"]
    ok = bool(exp) and exp[0].ok
    _announce(2, "strict growth at q=4", ok, time.monotonic() - t0, 600)


def test_criterion_3_lift_family():
    t0 = time.monotonic()
    result = gallery.lift_family_check(2, 2)
    ok = result.passed
    if not ok:
        print(_failures(result))
    _announce(3, "colon lift family q=2,4", ok, time.monotonic() - t0, 600)


def test_criterion_4_twisted_polynomial_rings():
    t0 = time.monotonic()
    ok = True
    for p in (2, 3):
        r1 = gallery.poly_twisted_case(1, p, 5)
        r2 = gallery.poly_twisted_case(2, p, 5)
        r3 = gallery.poly_twisted_case(3, p, 4)
        for case in (r1, r2, r3):
            ok = ok and case.passed
            if not case.passed:
                print(_failures(case))
    _announce(4, "twisted polynomial rings dims 1-3", ok, time.monotonic() - t0, 60)


def test_criterion_5_veronese():
    t0 = time.monotonic()
    ok = True
    checks = {}
    for p, emax in ((7, 2), (2, 3), (3, 3)):
        result = gallery.veronese_case(p, emax)
        checks[p] = result.passed
        ok = ok and result.passed
        if not result.passed:
            print(p, _failures(result))
    ok = ok and qgor_expected_bound(3, 2) == 2
    _announce(5, "Veronese dual-path p=7,2,3", ok, time.monotonic() - t0, 600)


def test_criterion_6_determinantal():
    t0 = time.monotonic()
    pathb_start = time.monotonic()
    result = gallery.determinantal_case(2, emax_groebner=2, emax_monomial=4)
    elapsed = time.monotonic() - t0
    ok = result.passed
    if not ok:
        print(_failures(result))
    witness_names = {f"witness_excluded_e{e}" for e in (2, 3, 4)}
    seen = {e.name for e in result.expectations}
    ok = ok and witness_names <= seen
    _announce(6, "determinantal both paths", ok, elapsed, 900)


def test_criterion_7_katzman():
    t0 = time.monotonic()
    result = gallery.katzman_case(2, 3)
    ok = result.passed
    if not ok:
        print(_failures(result))
    _announce(7, "Katzman dual-oracle e<=3", ok, time.monotonic() - t0, 120)


def test_criterion_8_property_suites():
    t0 = time.monotonic()
    counts = {
        "spoly_bases": property_suites.run_basis_spoly_suite(25),
        "colon": property_suites.run_colon_suite(50),
        "frobenius_independence": property_suites.run_frobenius_independence_suite(20),
        "twisted_mul_elements": property_suites.run_twisted_mul_suite(100),
        "cross_oracle": property_suites.run_cross_oracle_suite(50),
    }
    ok = (counts["colon"] >= 50 and counts["frobenius_independence"] >= 20
          and counts["twisted_mul_elements"] >= 100 and counts["cross_oracle"] >= 50)
    print(f"property suite sizes: {counts}")
    _announce(8, "randomized property suites", ok, time.monotonic() - t0, 600)


def test_criterion_9_degree_growth_goldens():
    t0 = time.monotonic()
    gf2 = RingSpec(PrimeField(2), ("x", "y", "z"))
    katzman = Ideal(gf2, (parse_polynomial("x*y", gf2),
                          parse_polynomial("y*z", gf2)))
    _, det = minors_over(2)
    katzman_growth = degree_growth(fingen_probe(katzman, 3).report)
    det_growth = degree_growth(fingen_probe(det, 2).report)
    frozen_katzman = [(1, 3, Fraction(3, 2)), (2, 9, Fraction(9, 4)),
                      (3, 21, Fraction(21, 8))]
    frozen_det = [(1, 4, Fraction(2)), (2, 12, Fraction(3))]
    ok = katzman_growth == frozen_katzman and det_growth == frozen_det
    ok = ok and all(r <= 3 for _, _, r in katzman_growth)
    ok = ok and all(r <= 4 for _, _, r in det_growth)
    _announce(9, "degree growth bounded + frozen", ok, time.monotonic() - t0, 300)
