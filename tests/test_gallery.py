import random

import pytest

from frobtool import gallery
from frobtool.monomials import _Dominance, poly_twisted_component, segre_component_2x3

import monomial_oracle


def expectation(result, name):
    for e in result.expectations:
        if e.name == name:
            return e
    raise AssertionError(f"no expectation named {name}: "
                         f"{[e.name for e in result.expectations]}")


class TestFedder:
    @pytest.mark.parametrize("p", [2, 3])
    def test_identity(self, p):
        result = gallery.fedder_identity_check(p)
        exp = expectation(result, f"colon_identity_q{p}")
        assert exp.ok
        assert exp.measured["lhs_basis"] == exp.measured["rhs_basis"]

    def test_strictness_at_q4(self):
        result = gallery.fedder_identity_check(2)
        exp = expectation(result, "strict_containment_q4")
        assert exp.ok
        assert exp.measured["power_sum_contained"]
        assert exp.measured["witnesses_outside"]


class TestLiftFamily:
    def test_family_sizes_and_identity(self):
        result = gallery.lift_family_check(2, 2)
        assert expectation(result, "memberships_q2").measured["pairs"] == 3
        assert expectation(result, "memberships_q4").measured["pairs"] == 10
        for name in ("memberships_q2", "lifts_verified_q2", "colon_generated_by_lifts_q2",
                     "memberships_q4", "lifts_verified_q4", "colon_generated_by_lifts_q4"):
            assert expectation(result, name).ok
        # measured minimal counts match the q(q+1)/2 family size at q in {2,4}
        assert expectation(result, "colon_generated_by_lifts_q2").measured[
            "measured_min_gen_count"] == 3
        assert expectation(result, "colon_generated_by_lifts_q4").measured[
            "measured_min_gen_count"] == 10

    def test_f00_is_minor_product(self):
        result = gallery.lift_family_check(2, 1)
        f00 = expectation(result, "lifts_verified_q2").measured["lifts"]["s0_t0"]
        from frobtool.parsing import parse_polynomial
        ring, ideal = gallery.minors_ideal(2)
        d2, d3 = ideal.generators[1], ideal.generators[2]
        from frobtool.groebner import frobenius_power
        modulus = frobenius_power(ideal, 1)
        assert modulus.contains(parse_polynomial(f00, ring) - d2 * d3)


class TestKatzman:
    def test_passes_and_agrees(self):
        result = gallery.katzman_case(2, 3)
        assert result.passed
        agree = expectation(result, "paths_agree")
        assert agree.measured["groebner"] == agree.measured["monomial_oracle"]
        assert expectation(result, "new_generators_e2").ok
        assert expectation(result, "new_generators_e3").ok

    def test_components_payload(self):
        result = gallery.katzman_case(2, 2)
        assert result.components[0]["min_gen_count"] == 3
        assert result.components[0]["generators"] == ["y*z^2", "x*y*z", "x^2*y"]


class TestVeronese:
    def test_substitution_check(self):
        result = gallery.veronese_case(2, 1)
        assert expectation(result, "presentation_substitution").ok

    def test_p7(self):
        result = gallery.veronese_case(7, 2)
        assert result.passed
        assert expectation(result, "cyclic_each_degree").ok
        assert expectation(result, "expected_bound").measured["e0"] == 1

    def test_p2(self):
        result = gallery.veronese_case(2, 3)
        assert result.passed
        assert expectation(result, "expected_bound").measured["e0"] == 2
        counts = [row["min_gen_count"] for row in result.components]
        assert counts == [3, 1, 3]
        flags = [row["generated_from_lower"] for row in result.components]
        assert flags == [False, False, True]

    def test_p3(self):
        result = gallery.veronese_case(3, 3)
        assert result.passed
        counts = [row["min_gen_count"] for row in result.components]
        assert counts == [2, 2, 2]
        assert all(row["new_gen_count"] >= 1 for row in result.components)


class TestDeterminantal:
    def test_default(self):
        result = gallery.determinantal_case()
        assert result.passed
        assert expectation(result, "groebner_new_generators_e2").measured["new_gen_count"] >= 1
        for e in (2, 3, 4):
            assert expectation(result, f"witness_excluded_e{e}").ok

    def test_growth_ratios(self):
        result = gallery.determinantal_case()
        ratios = expectation(result, "degree_growth_bounded").measured["ratios"]
        assert ratios[0][1] == 4
        assert ratios[1][1] == 12


class TestTwisted:
    def test_dim1(self):
        for emax in (None, 1):  # the check reads degrees 1 and 2 at any depth
            result = gallery.poly_twisted_case(1, 2, emax)
            assert result.passed
            assert expectation(result, "commutative").ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_dim2(self, p):
        result = gallery.poly_twisted_case(2, p, 5)
        assert result.passed
        assert expectation(result, "generated_in_degree_1").ok

    @pytest.mark.parametrize("p", [2, 3])
    def test_dim3(self, p):
        result = gallery.poly_twisted_case(3, p, 4)
        assert result.passed
        for e in (2, 3, 4):
            assert expectation(result, f"witness_excluded_e{e}").ok

    def test_emax_caps(self):
        with pytest.raises(ValueError):
            gallery.poly_twisted_case(3, 2, 5)
        with pytest.raises(ValueError):
            gallery.poly_twisted_case(4, 2)


class TestSplitsExcluded:
    """The batched witness check against the pair scan of
    tests/monomial_oracle.py, split by split."""

    FAMILIES = [
        (segre_component_2x3, gallery._segre_witness, 2, 5),
        (segre_component_2x3, gallery._segre_witness, 3, 3),
        (lambda p, e: poly_twisted_component(3, p, e), gallery._twisted_witness, 2, 4),
        (lambda p, e: poly_twisted_component(3, p, e), gallery._twisted_witness, 3, 4),
        (lambda p, e: poly_twisted_component(3, p, e), gallery._twisted_witness, 5, 3),
    ]

    @pytest.mark.parametrize("build,witness,p,emax", FAMILIES)
    def test_agrees_with_pair_scan(self, build, witness, p, emax):
        comps = {e: build(p, e) for e in range(1, emax + 1)}
        rng = random.Random(p * 10 + emax)
        # the gallery's witnesses, then generators of each component, most
        # of which lie in some split product
        batches = [{e: witness(p, e) for e in range(2, emax + 1)}]
        batches += [{e: rng.choice(comps[e].generators) for e in range(2, emax + 1)}
                    for _ in range(3)]
        seen = set()
        for witnesses in batches:
            excluded = gallery._splits_excluded(comps, witnesses, p)
            assert list(excluded) == list(witnesses)
            for e, w in witnesses.items():
                assert excluded[e] == [
                    not monomial_oracle.twisted_product_contains(comps[e1], comps[e - e1], p, w)
                    for e1 in range(1, e)]
                seen.update(excluded[e])
        assert seen == {True, False}

    def test_one_index_per_right_hand_component(self, monkeypatch):
        builds = []
        init = _Dominance.__init__
        monkeypatch.setattr(_Dominance, "__init__",
                            lambda self, *args: builds.append(1) or init(self, *args))
        counts = []
        # the three jobs of the monomial benchmark workload
        for job in (lambda: gallery.determinantal_case(2, emax_groebner=1, emax_monomial=8),
                    lambda: gallery.determinantal_case(3, emax_groebner=1, emax_monomial=5),
                    lambda: gallery.run_case("twisted", dim=3, p=7, emax=3)):
            before = len(builds)
            assert job().passed
            counts.append(len(builds) - before)
        # one per right-hand degree 1..emax-1; one per split would be 28, 10, 3
        assert counts == [7, 4, 2]


def test_run_case_unknown():
    with pytest.raises(ValueError):
        gallery.run_case("nonesuch")


def test_run_case_routes_given_arguments():
    # arguments left as None fall to each case's own defaults; emax is the
    # Groebner depth of determinantal; a case rejects what it cannot use
    assert gallery.run_case("determinantal", emax=1).params == {
        "p": 2, "emax_groebner": 1, "emax_monomial": 4}
    assert gallery.run_case("lifts", emax=1).params == {"p": 2, "emax": 1}
    assert gallery.run_case("twisted", p=3, emax=2).params == {
        "dim": 2, "p": 3, "emax": 2}
    assert gallery.run_case("fedder").params == {"p": 2, "strictness": True}


@pytest.mark.parametrize("name,kwargs,arg", [
    ("lifts", {"emax": 1, "dim": 3}, "dim"),
    ("katzman", {"dim": 3}, "dim"),
    ("fedder", {"emax": 5}, "emax"),
    ("twisted", {"degree_guard": 50}, "degree_guard"),
])
def test_run_case_rejects_unused_arguments(name, kwargs, arg):
    with pytest.raises(ValueError, match=f"does not use {arg}$"):
        gallery.run_case(name, **kwargs)
