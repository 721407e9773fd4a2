from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from frobtool import frobenius, groebner, polyring
from frobtool.cache import BasisCache
from frobtool.frobenius import (
    component,
    degree_growth,
    fingen_probe,
    fractional_fingen_probe,
    generation_report,
    monomial_fingen_probe,
    qgor_expected_bound,
)
from frobtool.gallery import (
    katzman_ideal,
    minors_ideal,
    poly_twisted_case,
    twisted_cubic_ideal,
)
from frobtool.groebner import (
    DegreeGuardExceeded,
    Ideal,
    colon,
    frobenius_power,
    minimal_generators_mod,
    set_persistent_cache,
)
from frobtool.monomials import (
    FracMonomialModule,
    MonomialIdeal,
    free_semigroup,
    mono_colon,
    mono_frobenius_power,
    veronese_component,
)
from frobtool.parsing import parse_polynomial
from frobtool.polyring import (
    GREVLEX,
    LEX,
    Order,
    Polynomial,
    PrimeField,
    RingSpec,
    monomials_of_weighted_degree,
)

import colon_completeness
import monomial_oracle
import probe_oracle
import root_oracle
from conftest import minimal_forms_with, reordered
from order_oracle import key_function
from probe_oracle import product_component, twisted_mul


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
        """Degree 1 is all new; each later degree's products take as left
        factors every degree-1 generator and, above, only the generators
        that outside returned as new, exactly as it returned them."""
        gens = [("a", "b"), ("c", "f"), ("d", "e")]
        seen, lefts = [], []

        def outside(e, products):
            products = list(products)
            seen.append((e, products))
            return ["c"] if e == 2 else list(gens[e - 1])

        def product(e1, left, e2):
            lefts.append((e1, left, e2))
            return [f"{a}{b}" for a in left for b in gens[e2 - 1]]

        report = generation_report(3, gens, product, outside)
        assert [(r.e, r.q, r.min_gen_count, r.new_gen_count, r.max_gen_degree,
                 r.generated_from_lower) for r in report.rows] == [
            (1, 3, 2, 2, 0, False), (2, 9, 2, 1, 0, False), (3, 27, 2, 2, 0, False)]
        assert seen == [(2, ["aa", "ab", "ba", "bb"]),
                        (3, ["ac", "af", "bc", "bf", "ca", "cb"])]
        assert lefts == [(1, ("a", "b"), 1), (1, ("a", "b"), 2), (2, ["c"], 1)]
        assert report.emax == 3 and report.first_new_degree == 2

    def test_fractional_probe_needs_degrees_one_to_emax(self):
        comps = [veronese_component(2, 3, 2, e) for e in range(3)]
        for wrong in (comps, comps[2:0:-1]):
            with pytest.raises(ValueError, match="degrees 1, 2, ..., emax"):
                fractional_fingen_probe(wrong, 2)
        assert fractional_fingen_probe(comps[1:], 2).emax == 2

    def test_row_outside_probed_degrees(self, katzman):
        report = fingen_probe(katzman, 3).report
        assert [report.row(e).e for e in (1, 2, 3)] == [1, 2, 3]
        for e in (0, -1, 4):
            with pytest.raises(ValueError, match=f"no row for e={e}: the probe ran e=1..3"):
                report.row(e)


@st.composite
def homogeneous_ideals(draw):
    """A random proper homogeneous ideal over GF(2), GF(3) or GF(5), with
    the probe depth each field can afford."""
    p, emax = draw(st.sampled_from(((2, 3), (3, 2), (5, 2))))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights)
    rng = draw(st.randoms(use_true_random=False))
    gens = []
    for _ in range(rng.randint(1, 4)):
        monos = monomials_of_weighted_degree(weights, rng.randint(1, 3))
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
        gens.append(Polynomial(ring, {m: rng.randint(1, p - 1) for m in chosen}))
    return Ideal(ring, gens), emax


def _probe_or_abort(module, ideal, emax):
    try:
        return module.fingen_probe(ideal, emax, 400).report.rows
    except DegreeGuardExceeded:
        return None


class TestProbeOracle:
    """The probe with the twisted products in the components' echelon
    against the earlier probe, which ran Buchberger on I^[q] + (products),
    kept in tests/probe_oracle.py.  A guard abort of the probe is an abort
    of the oracle; the oracle may abort alone, on its own Buchberger run."""

    @settings(max_examples=40, deadline=None)
    @given(homogeneous_ideals())
    def test_random_ideals_match_oracle(self, drawn):
        ideal, emax = drawn
        rows = _probe_or_abort(frobenius, ideal, emax)
        old = _probe_or_abort(probe_oracle, ideal, emax)
        if rows is None:
            assert old is None
        elif old is not None:
            assert rows == old

    @pytest.mark.parametrize("make, p, emax", [
        (katzman_ideal, 2, 3), (katzman_ideal, 3, 2), (minors_ideal, 2, 3),
        (minors_ideal, 3, 2), (twisted_cubic_ideal, 2, 3), (twisted_cubic_ideal, 3, 2),
        (twisted_cubic_ideal, 7, 2)])
    def test_gallery_ideals_match_oracle(self, make, p, emax):
        _, ideal = make(p)
        assert fingen_probe(ideal, emax, 1000).report.rows == \
            probe_oracle.fingen_probe(ideal, emax, 1000).report.rows


@st.composite
def monomial_ideals(draw):
    """A random monomial ideal in three variables over GF(2), GF(3) or
    GF(5), with the probe depth each field can afford."""
    p, emax = draw(st.sampled_from(((2, 3), (3, 2), (5, 2))))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"))
    monos = draw(st.lists(st.tuples(*[st.integers(0, 2)] * 3).filter(any),
                          min_size=1, max_size=3))
    return MonomialIdeal(ring, monos), emax


def _monomial_components(ideal, emax):
    """The fractional components of monomial_fingen_probe, built anew."""
    semigroup = free_semigroup(ideal.ring.nvars)
    comps = []
    for e in range(1, emax + 1):
        iq = mono_frobenius_power(ideal, e)
        gens = [g for g in mono_colon(iq, ideal).generators if not iq.contains(g)]
        comps.append(FracMonomialModule(semigroup, gens, e))
    return comps


class TestLeftFactors:
    """The three library probes, whose loop takes only new generators as
    left factors, against the earlier loop (tests/probe_oracle.py), which
    takes all of them: the oracles of tests/probe_oracle.py and
    tests/monomial_oracle.py run on it, and so do the library's probes
    within probe_oracle.every_left_factor.  On random homogeneous ideals
    TestProbeOracle compares fingen_probe with that oracle."""

    @settings(max_examples=30, deadline=None)
    @given(monomial_ideals())
    def test_monomial_ideals_match_reference(self, drawn):
        mono, emax = drawn
        ideal = Ideal(mono.ring, mono.polynomials())
        rows = _probe_or_abort(frobenius, ideal, emax)
        old = _probe_or_abort(probe_oracle, ideal, emax)
        if rows is None:
            assert old is None
        elif old is not None:
            assert rows == old
        comps = _monomial_components(mono, emax)
        degree = mono.ring.weighted_degree
        assert monomial_fingen_probe(mono, emax).rows == \
            monomial_oracle.fractional_fingen_probe(comps, mono.ring.field.p, degree).rows

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 4), st.sampled_from((2, 3, 5)), st.integers(1, 3))
    def test_veronese_shapes_match_reference(self, d, n, p, emax):
        comps = [veronese_component(d, n, p, e) for e in range(1, emax + 1)]
        assert fractional_fingen_probe(comps, p, degree=sum).rows == \
            monomial_oracle.fractional_fingen_probe(comps, p, degree=sum).rows

    @pytest.mark.parametrize("dim, p, emax", [
        (1, 2, 5), (1, 3, 3), (2, 2, 5), (2, 3, 3), (3, 2, 4), (3, 3, 3), (3, 5, 2)])
    def test_poly_twisted_rows_match_reference(self, dim, p, emax):
        rows = poly_twisted_case(dim, p, emax).components
        comps = [monomial_oracle.poly_twisted_component(dim, p, e) for e in range(1, emax + 1)]
        old = monomial_oracle.fractional_fingen_probe(comps, p).rows
        assert [(r["e"], r["q"], r["component_size"], r["missing_count"],
                 r["generated_from_lower"]) for r in rows] == \
            [(r.e, r.q, r.min_gen_count, r.new_gen_count, r.generated_from_lower) for r in old]

    def test_products_come_from_new_generators(self):
        """At the minors p=2 emax=3, degree 3 gets the products of the 3
        generators of degree 1 with the 10 of degree 2 and of the 1 new one
        of degree 2 with the 3 of degree 1: 9 + 33 = 42 in all, against
        9 + 60 = 69 from every left factor."""
        _, ideal = minors_ideal(2)
        calls = []
        minimal_forms = frobenius._minimal_forms

        def counting(pk, cands, products, *args):
            products = list(products)
            calls.append(len(products))
            return minimal_forms(pk, cands, products, *args)

        with patch.object(frobenius, "_minimal_forms", counting):
            rows = fingen_probe(ideal, 3).report.rows
            new_left = calls[:]
            calls.clear()
            with probe_oracle.every_left_factor():
                assert fingen_probe(ideal, 3).report.rows == rows
        # the first three calls minimalize the components, with no products
        assert new_left == [0, 0, 0, 9, 33] and calls == [0, 0, 0, 9, 60]


class TestFrobeniusRoot:
    """The colon of each component against membership by Frobenius roots
    (tests/root_oracle.py), which asks only whether root parts lie in I."""

    @settings(max_examples=30, deadline=None)
    @given(homogeneous_ideals(), st.randoms(use_true_random=False))
    def test_colon_generators_pass_root_check(self, drawn, rng):
        ideal, emax = drawn
        ring = ideal.ring
        low = min(g.weighted_degree() for g in ideal.generators)
        for e in range(1, min(emax, 2) + 1):
            q = ring.field.p ** e
            try:
                col = component(ideal, e, 400).colon
            except DegreeGuardExceeded:
                return
            for u in col.generators:
                assert root_oracle.in_frobenius_colon(u, ideal, q), (e, u)
            # x_i^k with k*w_i < (q-1)*low is outside the colon: x_i^k*f, f of
            # degree low, has degree below q*low, where I^[q] starts
            i = rng.randrange(ring.nvars)
            k = rng.randrange(-(-(q - 1) * low // ring.weights[i]))
            perturbed = rng.choice(col.generators) + ring.monomial(
                tuple(k if j == i else 0 for j in range(ring.nvars)))
            assert not root_oracle.in_frobenius_colon(perturbed, ideal, q), (e, perturbed)
            assert not col.contains(perturbed)


class TestColonCompleteness:
    """The colon of each component against its dimension in every degree up
    to its top degree, read from normal forms modulo I^[q] alone
    (tests/colon_completeness.py), with the root check for inclusion."""

    @settings(max_examples=40, deadline=None)
    @given(homogeneous_ideals())
    def test_colon_is_complete(self, drawn):
        ideal, _ = drawn
        # small e: the check runs to the top degree, about q times I's
        for e in range(1, 3 if ideal.ring.field.p == 2 else 2):
            try:
                col = component(ideal, e, 400).colon
            except DegreeGuardExceeded:
                return
            colon_completeness.check_frobenius_colon(ideal, e, col, 400)

    def test_dropped_generator_is_caught(self):
        ring, ideal = twisted_cubic_ideal(3)
        col = component(ideal, 1, 400).colon
        assert colon_completeness.check_frobenius_colon(ideal, 1, col, 400) == 7
        for i in range(len(col.generators)):
            dropped = Ideal(ring, col.generators[:i] + col.generators[i + 1:])
            with pytest.raises(AssertionError, match="dimension"):
                colon_completeness.check_frobenius_colon(ideal, 1, dropped, 400)


GALLERY_COMPONENTS = [
    (katzman_ideal, 2, 3), (katzman_ideal, 3, 2), (minors_ideal, 2, 3),
    (minors_ideal, 3, 2), (twisted_cubic_ideal, 2, 3), (twisted_cubic_ideal, 3, 2),
    (twisted_cubic_ideal, 7, 2)]


class TestComponentOracle:
    """component takes its generators from minimal_generators_mod, the
    monic normal forms of the survivors; the earlier rule, a second normal
    form of every survivor, is kept in tests/probe_oracle.py.  Both see the
    same guard aborts."""

    @pytest.mark.parametrize("make, p, emax", GALLERY_COMPONENTS)
    def test_gallery_components_are_the_minimalization(self, make, p, emax):
        _, ideal = make(p)
        for e in range(1, emax + 1):
            modulus = frobenius_power(ideal, e)
            basis = colon(modulus, ideal, 1000).groebner_basis(degree_guard=1000)
            assert component(ideal, e, 1000).min_gens == \
                tuple(minimal_generators_mod(basis, modulus, 1000))

    @pytest.mark.parametrize("make, p, emax", GALLERY_COMPONENTS)
    def test_gallery_components_match_oracle(self, make, p, emax):
        """The library's own survivors, renormalized: these components are
        too large for the slice oracle, and the golden reports pin their
        generators."""
        _, ideal = make(p)
        for e in range(1, emax + 1):
            assert component(ideal, e, 1000).min_gens == \
                probe_oracle.component_min_gens(ideal, e, 1000)

    @settings(max_examples=40, deadline=None)
    @given(homogeneous_ideals())
    def test_random_components_match_oracle(self, drawn):
        """The survivors come from the slice oracle, independent of the
        library's echelon."""
        ideal, emax = drawn
        for e in range(1, emax + 1):
            outcomes = []
            for build in (lambda: component(ideal, e, 400).min_gens,
                          lambda: probe_oracle.component_min_gens(
                              ideal, e, 400, probe_oracle.slice_survivors)):
                try:
                    outcomes.append(build())
                except DegreeGuardExceeded:
                    outcomes.append(None)
            assert outcomes[0] == outcomes[1]


class TestOtherOrderFinish:
    """On a ring order other than grevlex, the colon chain finishes by one
    Buchberger run in the ring's order, whose packed entries the component
    minimalizes as they are; the probe and the components against the
    oracles of tests/probe_oracle.py on lex and elim-1 copies of the minors.
    No store is installed, so every colon is computed and handed on packed."""

    ORDERS = [pytest.param(LEX, id="lex"), pytest.param(Order("elim", 1), id="elim1")]

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("p, emax", [(2, 3), (3, 2)])
    def test_probe_rows_match_oracle(self, order, p, emax):
        ideal = reordered(minors_ideal(p)[1], order)
        rows = fingen_probe(ideal, emax, 1000).report.rows
        assert rows == probe_oracle.fingen_probe(ideal, emax, 1000).report.rows

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("p, emax", [(2, 3), (3, 2)])
    def test_components_match_slice_oracle(self, order, p, emax):
        ideal = reordered(minors_ideal(p)[1], order)
        for e in range(1, emax + 1):
            assert component(ideal, e, 1000).min_gens == probe_oracle.component_min_gens(
                ideal, e, 1000, probe_oracle.slice_survivors), e


@st.composite
def twisted_factors(draw):
    """Homogeneous a and b and a Frobenius degree e1 over GF(2), GF(3),
    GF(5) or GF(7), with weights (1,1,1) or (1,2,1), grevlex or lex."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights, order)
    e1 = draw(st.integers(0, 2 if p < 5 else 1))
    rng = draw(st.randoms(use_true_random=False))

    def homogeneous():
        monos = monomials_of_weighted_degree(weights, rng.randint(0, 3))
        chosen = rng.sample(monos, min(len(monos), rng.randint(1, 4)))
        return Polynomial(ring, {m: rng.randint(1, p - 1) for m in chosen})

    return ring, homogeneous(), e1, homogeneous(), rng


class TestPackedProducts:
    """Twisted products formed in a packing, against twisted_mul."""

    @settings(max_examples=150, deadline=None)
    @given(twisted_factors())
    def test_packed_product_is_twisted_mul(self, drawn):
        ring, a, e1, b, _ = drawn
        q1 = ring.field.p ** e1
        pk = polyring._packing(ring, a.weighted_degree() + q1 * b.weighted_degree())
        packed = groebner._twisted_product(pk.pack_terms(a.terms), q1,
                                           pk.pack_terms(b.terms), pk)
        # a product's dict is not sorted: Packing.polynomial takes descending items
        assert pk.polynomial(sorted(packed.items(), reverse=True)) == twisted_mul(a, e1, b)

    @settings(max_examples=60, deadline=None)
    @given(twisted_factors())
    def test_factored_known_acts_as_its_product(self, drawn):
        ring, a, e1, b, rng = drawn
        q1 = ring.field.p ** e1
        product = twisted_mul(a, e1, b)
        d = product.weighted_degree()
        x, z = ring.variable("x"), ring.variable("z")
        cands = [product * x + x ** (d + 1), product * z, x ** d + z ** d, z ** (d + 1)]
        modulus = Ideal(ring, (x ** (d + 1) - z ** (d + 1) if rng.random() < 0.5 else x * z,))
        assert minimal_forms_with(cands, modulus, [(a, q1, b)]) == \
            minimal_forms_with(cands, modulus, [(product, 1, ring.one())])

    def test_product_above_top_is_never_formed(self, gf2_xyz, monkeypatch):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        x, y = P("x"), P("y")
        formed = []
        real = groebner._twisted_product

        def recording(ad, q1, bd, pk):
            formed.append(q1)
            return real(ad, q1, bd, pk)

        monkeypatch.setattr(groebner, "_twisted_product", recording)
        zero = Ideal(gf2_xyz, ())
        assert minimal_forms_with([P("x*y"), P("z^2")], zero,
                                  [(x, 2 ** 40, y), (x, 1, y)]) == [P("z^2")]
        assert formed == [1]
        pk = polyring._packing(gf2_xyz, 2)
        with pytest.raises(ArithmeticError):  # the skipped one does not fit that packing
            real(pk.pack_terms(x.terms), 2 ** 40, pk.pack_terms(y.terms), pk)

    def test_field_overflow_raises_and_never_wraps(self, gf2_xyz):
        pk = polyring._packing(gf2_xyz, 1)
        one, x, y = (pk.pack_terms(f.terms) for f in
                     (gf2_xyz.one(), gf2_xyz.variable("x"), gf2_xyz.variable("y")))
        fits = 2 ** (pk.width - 2)  # the largest power of 2 a field may hold
        assert pk.polynomial(groebner._twisted_product(one, fits, y, pk).items()) == \
            gf2_xyz.monomial((0, fits, 0))
        # x*y^(2^(W-1)) needs the guard bit; y^(2^W) would carry into the next field
        for a, q1 in ((x, 2 * fits), (one, 2 * fits), (one, 4 * fits), (x, 2 ** 80)):
            with pytest.raises(ArithmeticError, match="outgrew"):
                groebner._twisted_product(a, q1, y, pk)

class TestPackedHandOff:
    """The colon hands its reduced basis to the minimalization packed, and
    the probe keeps each component's generators packed, so neither is
    packed again; a colon from the store is packed and every term of it
    looked up."""

    def test_probe_packs_no_candidate_and_no_factor(self):
        _, ideal = minors_ideal(2)
        packed = []
        pack_terms = polyring.Packing.pack_terms

        def recording(self, terms):
            terms = tuple(terms)
            packed.append(terms)
            return pack_terms(self, terms)

        with patch.object(polyring.Packing, "pack_terms", recording):
            comps = fingen_probe(ideal, 3).components
        # the colon's inputs and the moduli's bases are still packed, and a
        # modulus's basis elements lie in the colon's basis too
        moduli = {g.terms for c in comps for g in c.modulus.groebner_basis()}
        candidates = {g.terms for c in comps for g in c.colon.generators} - moduli
        factors = {g.terms for c in comps for g in c.min_gens}
        assert candidates and factors and packed
        assert not (candidates | factors) & set(packed)

    def test_unreduced_survivors_are_their_candidates(self):
        # with reduced tails, a survivor that needed no reduction comes back
        # as its candidate's own (degree, lead, form) triple
        _, ideal = minors_ideal(2)
        calls = []
        minimal_forms = frobenius._minimal_forms

        def recording(pk, cands, products, modulus, guard, tails_reduced):
            forms = minimal_forms(pk, cands, products, modulus, guard, tails_reduced)
            calls.append((cands, tails_reduced, forms))
            return forms

        with patch.object(frobenius, "_minimal_forms", recording):
            fingen_probe(ideal, 3)
        # three components from the colon, then degrees 2 and 3 of the probe
        assert [reduced for _, reduced, _ in calls] == [True] * 5
        for cands, _, forms in calls:
            assert forms and all(any(f is c for c in cands) for f in forms)

    def test_probe_from_the_store_matches_a_fresh_one(self, tmp_path):
        _, ideal = twisted_cubic_ideal(2)
        store = BasisCache(tmp_path)
        set_persistent_cache(store)
        try:
            fresh = fingen_probe(ideal, 3, 1000)
            assert store.hits == 0
            stored = fingen_probe(ideal, 3, 1000)  # every colon and basis from the store
        finally:
            set_persistent_cache(None)
        assert store.hits == store.misses
        assert stored.report == fresh.report
        assert [c.min_gens for c in stored.components] == \
            [c.min_gens for c in fresh.components]

    def test_stored_colon_with_unreduced_tail(self, tmp_path):
        # a store entry of the right shape whose tail is not reduced: a
        # generator g that survives, plus m*b for a basis element b of
        # I^[q], which keeps the ideal and the lead of g
        _, ideal = minors_ideal(2)
        ring, e = ideal.ring, 2
        modulus = frobenius_power(ideal, e)
        fresh = component(ideal, e, 1000)
        basis = list(fresh.colon.generators)
        key = key_function(ring)
        survivors = set(fresh.min_gens)
        g, b, m = next(
            (g, b, m) for g in basis if g in survivors for b in modulus.groebner_basis()
            for m in monomials_of_weighted_degree(ring.weights,
                                                  g.weighted_degree() - b.weighted_degree())
            if key(tuple(x + y for x, y in zip(m, b.leading_monomial())))
            < key(g.leading_monomial()))
        basis[basis.index(g)] = g + ring.monomial(m) * b
        store = BasisCache(tmp_path)
        store.put(groebner._content_key(ring, groebner._normalized_gens(modulus.generators),
                                        groebner._normalized_gens(ideal.generators)),
                  ring, basis)
        set_persistent_cache(store)
        try:
            stored = component(ideal, e, 1000)
        finally:
            set_persistent_cache(None)
        assert store.hits == 1
        assert stored.colon.generators == tuple(basis)
        assert stored.min_gens == fresh.min_gens


class TestGuardContext:
    """A guard abort inside component names e, q and the step."""

    def test_abort_names_component_and_step(self, gf2_xyz, tmp_path):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        ideal = Ideal(gf2_xyz, (P("x^2 + y*z"), P("x*y + z^2")))
        with pytest.raises(DegreeGuardExceeded, match=(
                r"^intermediate weighted degree 7 \(pair lcm\) exceeds the degree guard 6 "
                r"in the colon I\^\[q\]:I of component e=1 \(q=2\); ")) as info:
            component(ideal, 1, 6)
        assert (info.value.degree, info.value.guard, info.value.phase) == (7, 6, "pair lcm")
        # with the colon in the store, the basis of I^[q] is the first step to run
        set_persistent_cache(BasisCache(tmp_path))
        try:
            colon(frobenius_power(ideal, 1), ideal, 100)
            with pytest.raises(DegreeGuardExceeded, match=(
                    r"^intermediate weighted degree 6 \(pair lcm\) exceeds the degree guard 5 "
                    r"in the basis of I\^\[q\] of component e=1 \(q=2\); ")):
                component(ideal, 1, 5)
        finally:
            set_persistent_cache(None)
        with pytest.raises(DegreeGuardExceeded, match=(
                r"exceeds the degree guard 9 in the colon I\^\[q\]:I of "
                r"component e=2 \(q=4\); ")):
            fingen_probe(ideal, 2, 9)
        # no basis of I is computed, so the first step that can abort is the colon
        with pytest.raises(DegreeGuardExceeded, match=(
                r"^intermediate weighted degree 5 \(pair lcm\) exceeds the degree guard 3 "
                r"in the colon I\^\[q\]:I of component e=1 \(q=2\); ")):
            component(Ideal(gf2_xyz, ideal.generators), 1, 3)

    def test_constant_generator_rejected_without_a_basis(self, gf2_xyz, monkeypatch):
        def no_basis(*args, **kwargs):
            raise AssertionError("a basis was computed")

        monkeypatch.setattr(Ideal, "groebner_basis", no_basis)
        x = gf2_xyz.variable("x")
        for gens in ((x, gf2_xyz.one()), (gf2_xyz.one(),)):
            with pytest.raises(ValueError, match="needs a proper ideal"):
                component(Ideal(gf2_xyz, gens), 1, 3)


class TestDegreeGrowth:
    def test_hypersurface_ratio(self, gf2_xyz):
        f = parse_polynomial("x*y - z^2", gf2_xyz)  # degree 2
        ideal = Ideal(gf2_xyz, (f,))
        growth = degree_growth(fingen_probe(ideal, 3).report)
        for e, deg, ratio in growth:
            q = 2 ** e
            assert deg == 2 * (q - 1)
            assert ratio == Fraction(2 * (q - 1), q)

    def test_katzman_frozen_values(self, katzman):
        growth = degree_growth(fingen_probe(katzman, 3).report)
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
