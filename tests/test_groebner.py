import contextlib
import gc
import itertools
import random
import tempfile
from datetime import timedelta
from operator import add

import pytest
from hypothesis import assume, given, settings, strategies as st

from unittest.mock import patch

from frobtool import groebner, polyring
from frobtool.cache import BasisCache
from frobtool.frobenius import component
from frobtool.gallery import minors_ideal, twisted_cubic_ideal
from frobtool.groebner import (
    DegreeGuardExceeded,
    Ideal,
    NoLiftExists,
    clear_memo,
    colon,
    frobenius_power,
    ideal_equal,
    ideal_power,
    intersect,
    lift_by_nzd,
    minimal_generators_mod,
    set_persistent_cache,
)
from frobtool.parsing import parse_polynomial
from frobtool.polyring import (
    GREVLEX,
    LEX,
    Order,
    Polynomial,
    PrimeField,
    RingMismatch,
    RingSpec,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials_of_weighted_degree,
)

import buchberger_oracle
import colon_oracle
import lift_oracle
from order_oracle import key_function
from conftest import minimal_forms_with, random_monomial, random_poly, spare_bits
from slice_oracle import GradedMembership, slice_minimal_generators_mod


def spoly(f, g):
    ring = f.ring
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    lcm = mono_lcm(lmf, lmg)
    sf = ring.monomial(mono_div(lcm, lmf))
    sg = ring.monomial(mono_div(lcm, lmg))
    fm, gm = f.monic(), g.monic()
    return sf * fm - sg * gm


def assert_reduced_basis(ideal):
    """Every S-polynomial of the returned basis reduces to zero, leading
    coefficients are 1, no lead divides another, tails fully reduced."""
    basis = ideal.groebner_basis()
    holder = Ideal(ideal.ring, basis)
    lms = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        assert g.leading_coefficient() == 1
        for j, lm in enumerate(lms):
            if i == j:
                continue
            for mono, _ in g.terms:
                assert not all(a <= b for a, b in zip(lm, mono))
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert holder.normal_form(spoly(basis[i], basis[j])).is_zero()


class TestBasis:
    def test_principal_monomial(self, gf2_xyz):
        ideal = Ideal(gf2_xyz, (parse_polynomial("x", gf2_xyz),))
        assert [str(g) for g in ideal.groebner_basis()] == ["x"]

    def test_monomial_ideal_is_own_basis(self, gf2_xyz):
        ideal = Ideal(gf2_xyz, (parse_polynomial("x*y", gf2_xyz),
                                parse_polynomial("y*z", gf2_xyz)))
        assert {str(g) for g in ideal.groebner_basis()} == {"x*y", "y*z"}
        assert_reduced_basis(ideal)

    def test_minors_form_reduced_basis(self, minors):
        ring, ideal = minors
        basis = ideal.groebner_basis()
        assert len(basis) == 3
        monic_minors = {g.monic() for g in ideal.generators}
        assert set(basis) == monic_minors
        assert_reduced_basis(ideal)

    def test_deterministic_under_generator_shuffle(self, gf2_xyz):
        rng = random.Random(3)
        gens = [random_poly(gf2_xyz, rng, max_terms=3, max_exp=2) for _ in range(4)]
        basis = Ideal(gf2_xyz, gens).groebner_basis()
        for _ in range(5):
            rng.shuffle(gens)
            assert Ideal(gf2_xyz, gens).groebner_basis() == basis

    def test_degree_guard(self, gf2_xyz):
        # leading terms x^2 and x*y collide, so the first S-pair has lcm
        # degree 3 and trips a guard of 2
        f = parse_polynomial("x^2 + y*z", gf2_xyz)
        g = parse_polynomial("x*y + z^2", gf2_xyz)
        with pytest.raises(DegreeGuardExceeded):
            Ideal(gf2_xyz, (f, g)).groebner_basis(degree_guard=2)
        Ideal(gf2_xyz, (f, g)).groebner_basis(degree_guard=10)

    def test_collector_paused_only_inside_engine_calls(self, gf2_xyz):
        # the engine pauses the cyclic collector while it computes, resumes
        # it on return and on an abort, and leaves it off when it was off
        f = parse_polynomial("x^2 + y*z", gf2_xyz)
        g = parse_polynomial("x*y + z^2", gf2_xyz)
        seen = []
        real = groebner._reduced_basis

        def spy(*args):
            seen.append(gc.isenabled())
            return real(*args)

        with patch.object(groebner, "_reduced_basis", spy):
            clear_memo()
            assert gc.isenabled()
            groebner.groebner_basis((f, g), gf2_xyz)
            assert gc.isenabled() and seen == [False]
            clear_memo()
            with pytest.raises(DegreeGuardExceeded):
                groebner.groebner_basis((f, g), gf2_xyz, degree_guard=2)
            assert gc.isenabled()
            clear_memo()
            gc.disable()
            try:
                groebner.groebner_basis((f, g), gf2_xyz)
                assert not gc.isenabled()
            finally:
                gc.enable()
        assert seen == [False, False, False]

    @pytest.mark.parametrize("gens,order,guard,degree,phase", [
        # the first S-pair's lcm x^2*y has degree 3
        (("x^2 + y*z", "x*y + z^2"), GREVLEX, 2, 3, "pair lcm"),
        # lex: the S-pair of x*y + z^5 and x*z + y^5 has lcm x*y*z of degree
        # 3, but its remainder z^6 - y^6 has degree 6
        (("x*y + z^5", "x*z + y^5"), LEX, 4, 6, "remainder"),
    ], ids=("pair_lcm", "remainder"))
    def test_degree_guard_names_phase(self, gens, order, guard, degree, phase):
        ring = RingSpec(PrimeField(2), ("x", "y", "z"), order=order)
        ideal = Ideal(ring, [parse_polynomial(g, ring) for g in gens])
        clear_memo()
        with pytest.raises(DegreeGuardExceeded, match=f"\\({phase}\\)") as info:
            ideal.groebner_basis(degree_guard=guard)
        assert (info.value.degree, info.value.guard, info.value.phase) == (degree, guard, phase)

    def test_memo_stays_bounded(self, gf2_xyz):
        # more distinct bases than the memo holds; the basis used between
        # them stays, the least recently used ones go
        clear_memo()
        x = gf2_xyz.variable("x")
        first = groebner.groebner_basis([x], gf2_xyz)
        for a, b in itertools.islice(itertools.product(range(1, 40), repeat=2),
                                     groebner.GB_MEMO_SIZE + 100):
            groebner.groebner_basis([gf2_xyz.monomial((0, a, b))], gf2_xyz)
            assert groebner.groebner_basis([x], gf2_xyz) is first
            assert len(groebner._GB_MEMO) <= groebner.GB_MEMO_SIZE
        assert len(groebner._GB_MEMO) == groebner.GB_MEMO_SIZE
        clear_memo()


class TestNormalForm:
    def test_generators_reduce_to_zero(self, minors):
        _, ideal = minors
        for g in ideal.generators:
            assert ideal.normal_form(g).is_zero()

    def test_monomial_multiple(self, gf2_xyz):
        ideal = Ideal(gf2_xyz, (parse_polynomial("x*y", gf2_xyz),
                                parse_polynomial("y*z", gf2_xyz)))
        assert ideal.normal_form(parse_polynomial("x^2*y^2", gf2_xyz)).is_zero()

    def test_idempotent_on_entry_product(self, minors):
        ring, ideal = minors
        f = parse_polynomial("u*y*v*z", ring)
        once = ideal.normal_form(f)
        assert ideal.normal_form(once) == once

    def test_additivity_invariant(self, gf2_xyz):
        rng = random.Random(4)
        ideal = Ideal(gf2_xyz, (parse_polynomial("x*y + z^2", gf2_xyz),))
        for _ in range(15):
            f = random_poly(gf2_xyz, rng, max_terms=4)
            g = random_poly(gf2_xyz, rng, max_terms=4)
            assert ideal.normal_form(f + g) == ideal.normal_form(ideal.normal_form(f) + g)


class TestIdealEqual:
    def test_same_ideal_different_generators(self, gf2_xyz):
        x = parse_polynomial("x", gf2_xyz)
        y = parse_polynomial("y", gf2_xyz)
        assert ideal_equal(Ideal(gf2_xyz, (x, y)), Ideal(gf2_xyz, (y, x + y)))

    def test_strict_inclusion(self, gf2_xyz):
        x = parse_polynomial("x", gf2_xyz)
        assert not ideal_equal(Ideal(gf2_xyz, (x,)), Ideal(gf2_xyz, (x * x,)))

    def test_fedder_shape_p2(self, minors):
        _, ideal = minors
        modulus = frobenius_power(ideal, 1)
        lhs = colon(modulus, ideal)
        rhs = ideal_power(ideal, 2) + modulus
        assert ideal_equal(lhs, rhs)

    def test_ring_mismatch(self, gf2_xyz):
        other = RingSpec(PrimeField(2), ("a",))
        with pytest.raises(ValueError):
            ideal_equal(Ideal(gf2_xyz, (parse_polynomial("x", gf2_xyz),)),
                        Ideal(other, (other.variable("a"),)))


class TestIntersect:
    def test_principal(self, gf2_xyz):
        x = parse_polynomial("x", gf2_xyz)
        y = parse_polynomial("y", gf2_xyz)
        meet = intersect(Ideal(gf2_xyz, (x,)), Ideal(gf2_xyz, (y,)))
        assert ideal_equal(meet, Ideal(gf2_xyz, (x * y,)))

    def test_monomial_oracle_example(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        lhs = Ideal(gf2_xyz, (P("x*y"), P("y*z^2")))
        rhs = Ideal(gf2_xyz, (P("x^2*y"), P("y*z")))
        meet = intersect(lhs, rhs)
        expected = Ideal(gf2_xyz, (P("x^2*y"), P("x*y*z"), P("y*z^2")))
        assert ideal_equal(meet, expected)

    def test_idempotent(self, minors):
        _, ideal = minors
        assert ideal_equal(intersect(ideal, ideal), ideal)

    @pytest.mark.parametrize("weights,order", (((1, 1, 1), GREVLEX), ((1, 2, 1), GREVLEX),
                                               ((1, 1, 1), LEX)))
    def test_lift_and_project_are_canonical(self, weights, order):
        ring = RingSpec(PrimeField(5), ("x", "y", "z"), weights, order)
        ext = groebner._extended_ring(ring)
        t = ext.variable(ext.variables[0])
        el = groebner._Elimination(ring, 40)
        rng = random.Random(14)
        for _ in range(20):
            f = random_poly(ring, rng, max_terms=6, max_exp=3)
            g = random_poly(ring, rng, max_terms=6, max_exp=3)
            lifted = _lift(f, ext)
            assert el.lift(f) == el.pk.pack_terms(lifted.terms)
            assert el.lift(f, 1) == el.pk.pack_terms((t * lifted).terms)
            projected = el.polynomial(el.lift(f).items())
            assert projected.terms == f.terms
            if f.is_zero() or g.is_zero():
                continue
            # the packed step against the elimination of t*(f) + (1-t)*(g)
            # built from polynomials
            meet = groebner._interreduce(el.free(el.meet([el.lift(f, 1)], [el.lift(g)], 40)),
                                         el.pk)
            basis = groebner.groebner_basis([t * lifted, (ext.one() - t) * _lift(g, ext)],
                                            ext, degree_guard=40)
            expected = [Polynomial(ring, [(m[1:], c) for m, c in b.terms])
                        for b in basis if b.leading_monomial()[0] == 0]
            assert [el.polynomial(((lm, 1),) + tail) for lm, tail in meet] == expected


def _lift(f, ext):
    """f as a polynomial of the extended ring, free of its first variable."""
    return Polynomial(ext, [((0,) + m, c) for m, c in f.terms])


class TestColon:
    def test_colon_by_self_is_unit(self, minors):
        _, ideal = minors
        result = colon(ideal, ideal)
        assert [str(g) for g in result.generators] == ["1"]

    def test_monomial_example(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        lhs = Ideal(gf2_xyz, (P("x^2*y^2"), P("y^2*z^2")))
        rhs = Ideal(gf2_xyz, (P("x*y"), P("y*z")))
        expected = Ideal(gf2_xyz, (P("x^2*y"), P("x*y*z"), P("y*z^2")))
        assert ideal_equal(colon(lhs, rhs), expected)

    def test_contains_lhs(self, gf2_xyz):
        rng = random.Random(5)
        for _ in range(10):
            lhs = Ideal(gf2_xyz, [random_poly(gf2_xyz, rng, 2, 2) for _ in range(2)])
            rhs = Ideal(gf2_xyz, [random_poly(gf2_xyz, rng, 2, 1) for _ in range(1)])
            if rhs.is_zero():
                continue
            result = colon(lhs, rhs)
            assert all(result.contains(g) for g in lhs.generators)

    def test_ufd_principal(self, gf2_xyz):
        f = parse_polynomial("x*y + z^2", gf2_xyz)
        result = colon(Ideal(gf2_xyz, (f ** 4,)), Ideal(gf2_xyz, (f,)))
        assert ideal_equal(result, Ideal(gf2_xyz, (f ** 3,)))

    def test_colon_by_zero_rejected(self, gf2_xyz):
        x = parse_polynomial("x", gf2_xyz)
        with pytest.raises(ValueError):
            colon(Ideal(gf2_xyz, (x,)), Ideal(gf2_xyz, ()))


ELIM1 = Order("elim", 1)


@st.composite
def colon_instances(draw, orders=(GREVLEX, LEX, ELIM1)):
    """lhs : rhs over GF(2), GF(3) or GF(5) on a ring with one of `orders`
    (by default grevlex, weighted grevlex, lex or an elimination order, the
    last two taking the chain's non-grevlex final basis), with homogeneous
    or inhomogeneous generators.  rhs has 1 to 4 generators; each is
    random, a multiple of a generator of lhs, a unit or a scaled repeat of
    an earlier one."""
    p = draw(st.sampled_from((2, 3, 5)))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    order = draw(st.sampled_from(orders))
    homogeneous = draw(st.booleans())
    kinds = draw(st.lists(st.sampled_from(("random", "member", "unit", "repeat")),
                          min_size=1, max_size=4))
    rng = draw(st.randoms(use_true_random=False))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights, order)

    def poly(low=1):
        if homogeneous:
            return _random_homogeneous(ring, rng, rng.randint(low, 3))
        return random_poly(ring, rng, max_terms=3, max_exp=2)

    lhs = [poly() for _ in range(rng.randint(1, 3))]
    rhs = []
    for kind in kinds:
        if kind == "member":
            rhs.append(rng.choice(lhs) * poly(0))
        elif kind == "unit":
            rhs.append(ring.one().scale(rng.randint(1, p - 1)))
        elif kind == "repeat" and rhs:
            rhs.append(rng.choice(rhs).scale(rng.randint(1, p - 1)))
        else:
            rhs.append(poly())
    return ring, Ideal(ring, lhs), Ideal(ring, rhs), rng


COLON_GUARD = 30


@contextlib.contextmanager
def _colon_store():
    """A persistent store in a temporary directory, installed over an empty
    memo for the duration."""
    with tempfile.TemporaryDirectory() as root:
        store = BasisCache(root)
        clear_memo()
        set_persistent_cache(store)
        try:
            yield store
        finally:
            set_persistent_cache(None)
            clear_memo()


def _colon_or_abort(colon_fn, lhs, rhs, guard=COLON_GUARD):
    try:
        return colon_fn(lhs, rhs, guard).generators
    except DegreeGuardExceeded:
        return None


class TestColonOracle:
    """The chained colon, its packed division and its interreduced final
    basis against the earlier colon kept in tests/colon_oracle.py."""

    @settings(max_examples=200, deadline=None)
    @given(colon_instances())
    def test_colon_matches_oracle(self, instance):
        ring, lhs, rhs, _ = instance
        new = _colon_or_abort(groebner.colon, lhs, rhs)
        old = _colon_or_abort(colon_oracle.colon, lhs, rhs)
        # the two chains eliminate different inputs, so a guard may stop
        # one and not the other
        assume(new is not None and old is not None)
        assert new == old

    @settings(max_examples=60, deadline=None)
    @given(colon_instances())
    def test_stored_colon_matches_computed(self, instance):
        ring, lhs, rhs, _ = instance
        assume(not lhs.is_zero())  # a zero colon is answered before the store
        with _colon_store() as store:
            computed = _colon_or_abort(groebner.colon, lhs, rhs)
            assume(computed is not None)
            clear_memo()
            hits = store.hits
            stored = groebner.colon(lhs, rhs, COLON_GUARD).generators
            assert store.hits == hits + 1
        old = _colon_or_abort(colon_oracle.colon, lhs, rhs)
        assume(old is not None)
        assert stored == computed == old

    @settings(max_examples=30, deadline=None)
    @given(colon_instances())
    def test_corrupt_stored_colon_is_recomputed(self, instance):
        ring, lhs, rhs, _ = instance
        assume(not lhs.is_zero())  # a zero colon is answered before the store
        with _colon_store() as store:
            computed = _colon_or_abort(groebner.colon, lhs, rhs)
            assume(computed is not None)
            key = groebner._content_key(ring,
                                        groebner._normalized_gens(lhs.generators),
                                        groebner._normalized_gens(rhs.generators))
            path = store.root / f"{key}.json"
            path.write_text(path.read_text()[:20], encoding="utf-8")
            clear_memo()
            recomputed = groebner.colon(lhs, rhs, COLON_GUARD).generators
            assert store.discarded == 1
            # the recomputed colon is stored again
            assert store.get(key, ring) == recomputed
        assert recomputed == computed

    @settings(max_examples=200, deadline=None)
    @given(colon_instances(), st.sampled_from((0, 0, 1, 20)))
    def test_divide_exact_matches_oracle(self, instance, e):
        ring, lhs, rhs, rng = instance
        f = lhs.generators[0].frobenius_power(e)
        g = rhs.generators[0].frobenius_power(e)
        assert colon_oracle._divide_exact(f * g, g) == f
        off = None
        if len(g.terms) > 1:
            # a monomial is no multiple of a polynomial of two or more terms
            off = f * g + ring.monomial(random_monomial(rng, ring.nvars, 4))
            with pytest.raises(ArithmeticError, match="not exactly divisible"):
                colon_oracle._divide_exact(off, g)
        degree = max(h.weighted_degree() for h in (f * g, off) if h is not None)
        # a step of the division adds no term above the one it removes when
        # the tail of g lies within its lead's degree; otherwise the division
        # of off may pass every degree of its input
        if not groebner._graded(ring, (g,)):
            degree = polyring._headroom(degree)
        # in the ring's own packing and in the elimination packing of the chain
        pk = polyring._packing(ring, degree)
        el = groebner._Elimination(ring, degree + 1)
        for lift, unlift, packing in ((lambda h: pk.pack_terms(h.terms), pk.polynomial, pk),
                                      (el.lift, el.polynomial, el.pk)):
            quotient = unlift(groebner._divide_exact(lift(f * g), lift(g), packing).items())
            assert quotient == f
            if off is not None:
                with pytest.raises(ArithmeticError, match="not exactly divisible"):
                    groebner._divide_exact(lift(off), lift(g), packing)

    @settings(max_examples=100, deadline=None)
    @given(colon_instances(orders=(GREVLEX,)))
    def test_interreduce_matches_groebner_basis(self, instance):
        # on a grevlex ring, the quotients of the reduced basis of
        # lhs ∩ (f) by f are a minimal basis of lhs : f
        ring, lhs, rhs, _ = instance
        f = rhs.generators[0]
        try:
            meet = intersect(lhs, Ideal(ring, (f,)), COLON_GUARD)
        except DegreeGuardExceeded:
            assume(False)
        pk = polyring._packing(ring, max(
            [COLON_GUARD] + [b.weighted_degree() for b in meet.generators]))
        quotients = [pk.polynomial(groebner._divide_exact(
            pk.pack_terms(b.terms), pk.pack_terms(f.terms), pk).items())
            for b in meet.generators]
        minimal = [groebner._make_entry(pk.pack_terms(g.terms), pk.p) for g in quotients]
        reduced = tuple(pk.polynomial(((lm, 1),) + tail)
                        for lm, tail in groebner._interreduce(minimal, pk))
        assert reduced == groebner.groebner_basis(quotients, ring, degree_guard=COLON_GUARD)


@st.composite
def homogeneous_pairs(draw):
    """Homogeneous ideals A and B over GF(2), GF(3) or GF(5) under weighted
    grevlex, weights (1,1,1) or (1,2,1)."""
    p = draw(st.sampled_from((2, 3, 5)))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    rng = draw(st.randoms(use_true_random=False))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights)

    def ideal():
        gens = [_random_homogeneous(ring, rng, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        return Ideal(ring, [g for g in gens if not g.is_zero()] or [ring.variable("z")])

    return ring, ideal(), ideal()


class TestEliminationGrading:
    """An elimination takes its pairs by the degree of the ring's own
    variables, t counting 0; its answers equal those of a basis of the same
    inputs under the full weighted degree, the grading of groebner_basis."""

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_pairs())
    def test_intersect_matches_full_degree(self, instance):
        ring, lhs, rhs = instance
        ext = groebner._extended_ring(ring)
        t = ext.variable(ext.variables[0])
        gens = ([t * _lift(a, ext) for a in lhs.generators]
                + [(ext.one() - t) * _lift(b, ext) for b in rhs.generators])
        try:
            meet = intersect(lhs, rhs, COLON_GUARD)
            basis = groebner.groebner_basis(gens, ext, degree_guard=COLON_GUARD)
        except DegreeGuardExceeded:
            assume(False)
        assert meet.generators == tuple(Polynomial(ring, [(m[1:], c) for m, c in b.terms])
                                        for b in basis if b.leading_monomial()[0] == 0)

    @settings(max_examples=100, deadline=None)
    @given(homogeneous_pairs())
    def test_colon_matches_oracle(self, instance):
        ring, lhs, rhs = instance
        clear_memo()
        new = _colon_or_abort(groebner.colon, lhs, rhs)
        old = _colon_or_abort(colon_oracle.colon, lhs, rhs)
        assume(new is not None and old is not None)
        assert new == old


def _eliminations(call):
    """call() and the number of eliminations (_Elimination.meet calls) it ran."""
    count = 0
    meet = groebner._Elimination.meet

    def counted(self, *args):
        nonlocal count
        count += 1
        return meet(self, *args)

    with patch.object(groebner._Elimination, "meet", counted):
        result = call()
    return result, count


@st.composite
def frobenius_colon_instances(draw):
    """(I^[q], I, guard) for a random homogeneous I of one to three
    generators of degree 1 or 2 over GF(2), GF(3) or GF(5), with q = p^e
    and e <= 2; the guard grows with q."""
    p = draw(st.sampled_from((2, 3, 5)))
    e = draw(st.integers(0, 2))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    rng = draw(st.randoms(use_true_random=False))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights, GREVLEX)
    ideal = Ideal(ring, [_random_homogeneous(ring, rng, rng.randint(1, 2))
                         for _ in range(rng.randint(1, 3))])
    return frobenius_power(ideal, e), ideal, 8 * p ** e


class TestColonSkip:
    """The chain skips step i >= 2 when f_i*R_(i-1) already lies in lhs.
    Its colons match the chain reference in tests/colon_oracle.py, which
    runs the elimination of every step, basis for basis."""

    @settings(max_examples=150, deadline=None)
    @given(colon_instances())
    def test_matches_chain_reference(self, instance):
        ring, lhs, rhs, _ = instance
        clear_memo()
        new = _colon_or_abort(groebner.colon, lhs, rhs)
        old = _colon_or_abort(colon_oracle.chain_colon, lhs, rhs)
        assume(new is not None and old is not None)
        assert new == old

    @settings(max_examples=100, deadline=None)
    @given(frobenius_colon_instances())
    def test_frobenius_colon_matches_chain_reference(self, instance):
        lhs, ideal, guard = instance
        clear_memo()
        new = _colon_or_abort(groebner.colon, lhs, ideal, guard)
        old = _colon_or_abort(colon_oracle.chain_colon, lhs, ideal, guard)
        assume(new is not None and old is not None)
        assert new == old

    @pytest.mark.parametrize("build,p,e,guard", ((minors_ideal, 2, 3, 600),
                                                 (minors_ideal, 3, 2, 600),
                                                 (twisted_cubic_ideal, 7, 2, 600)))
    def test_last_step_skipped(self, build, p, e, guard):
        # the benchmark's colons: R_2 is already I^[q] : I
        _, ideal = build(p)
        lhs = frobenius_power(ideal, e)
        clear_memo()
        result, count = _eliminations(lambda: colon(lhs, ideal, guard))
        assert count == 2
        reference, count = _eliminations(lambda: colon_oracle.chain_colon(lhs, ideal, guard))
        assert count == 3
        assert result.generators == reference.generators
        clear_memo()

    def test_no_step_skipped(self, gf2_xyz):
        # x*R_0, y*R_1 = y*(x^2, y^3, z^3) and z*R_2 each leave (x^3, y^3, z^3)
        P = lambda s: parse_polynomial(s, gf2_xyz)
        lhs = Ideal(gf2_xyz, (P("x^3"), P("y^3"), P("z^3")))
        rhs = Ideal(gf2_xyz, (P("x"), P("y"), P("z")))
        clear_memo()
        result, count = _eliminations(lambda: colon(lhs, rhs))
        assert count == 3
        assert result.generators == colon_oracle.chain_colon(lhs, rhs).generators
        clear_memo()

    def test_skipped_step_cannot_abort(self, gf2_xyz):
        # f_3 is a multiple of x^2, so its step is skipped; the chain
        # reference eliminates it and stops at the guard
        P = lambda s: parse_polynomial(s, gf2_xyz)
        lhs = Ideal(gf2_xyz, (P("x^2"), P("y^2")))
        rhs = Ideal(gf2_xyz, (P("x"), P("y"), P("x^2*z^10")))
        clear_memo()
        result, count = _eliminations(lambda: colon(lhs, rhs, 8))
        assert count == 2
        assert ideal_equal(result, Ideal(gf2_xyz, (P("x*y"), P("x^2"), P("y^2"))))
        with pytest.raises(DegreeGuardExceeded):
            colon_oracle.chain_colon(lhs, rhs, 8)
        clear_memo()


INTERSECT_RINGS = {
    "grevlex": ((1, 1, 1), GREVLEX),
    "weighted grevlex": ((1, 2, 1), GREVLEX),
    "lex": ((1, 1, 1), LEX),
    "elim 1": ((1, 2, 1), ELIM1),
}


def _standard_count(basis, weights, d):
    """The degree-d monomials that no lead of `basis` divides."""
    leads = [b.leading_monomial() for b in basis]
    return sum(not any(mono_divides(lm, m) for lm in leads)
               for m in monomials_of_weighted_degree(weights, d))


@st.composite
def homogeneous_intersect_pairs(draw):
    """Homogeneous A and B over GF(2), GF(3) or GF(5) in 2 to 4 variables of
    weight 1 or 2, under grevlex, lex or an elimination order."""
    p = draw(st.sampled_from((2, 3, 5)))
    n = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.sampled_from((1, 2)), min_size=n, max_size=n)))
    order = draw(st.sampled_from((GREVLEX, LEX, ELIM1)))
    rng = draw(st.randoms(use_true_random=False))
    ring = RingSpec(PrimeField(p), ("w", "x", "y", "z")[:n], weights, order)

    def ideal():
        gens = [_random_homogeneous(ring, rng, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        return Ideal(ring, [g for g in gens if not g.is_zero()] or [ring.variable("x")])

    return ring, ideal(), ideal()


class TestIntersectBasis:
    """intersect is the one-step colon chain: on every order its generators
    are its reduced basis, kept in gb_cache, and it writes no memo or store
    entry."""

    @pytest.mark.parametrize("kind", sorted(INTERSECT_RINGS))
    def test_generators_are_the_reduced_basis(self, kind):
        weights, order = INTERSECT_RINGS[kind]
        ring = RingSpec(PrimeField(3), ("x", "y", "z"), weights, order)
        grevlex = RingSpec(ring.field, ring.variables, weights)
        rng = random.Random(23)
        for _ in range(15):
            gens = [[random_poly(ring, rng, max_terms=3, max_exp=2)
                     for _ in range(rng.randint(1, 2))] for _ in range(2)]
            lhs, rhs = (Ideal(ring, g) for g in gens)
            clear_memo()
            try:
                meet = intersect(lhs, rhs, COLON_GUARD)
                # the same intersection on grevlex, carried over to this order
                other = intersect(*(Ideal(grevlex, [Polynomial(grevlex, f.terms) for f in g])
                                    for g in gens), COLON_GUARD)
            except DegreeGuardExceeded:
                continue
            assert meet.gb_cache == {order.tag: meet.generators}
            assert all(g.leading_coefficient() == 1 for g in meet.generators)
            assert meet.generators == groebner.groebner_basis(meet.generators, ring, COLON_GUARD)
            assert meet.generators == groebner.groebner_basis(
                [Polynomial(ring, f.terms) for f in other.generators], ring, COLON_GUARD)

    @pytest.mark.parametrize("kind", sorted(INTERSECT_RINGS))
    def test_store_entries(self, kind):
        # a colon keeps one entry, in the memo and in the store, on every
        # order; intersect keeps none
        weights, order = INTERSECT_RINGS[kind]
        ring = RingSpec(PrimeField(3), ("x", "y", "z"), weights, order)
        P = lambda s: parse_polynomial(s, ring)
        lhs = Ideal(ring, (P("x^2*y + z^3"), P("x*y*z - y^2*z")))
        rhs = Ideal(ring, (P("x + z"), P("y^2")))
        with _colon_store() as store:
            intersect(lhs, rhs)
            assert not groebner._GB_MEMO and not list(store.root.iterdir())
            colon(lhs, rhs)
            assert len(groebner._GB_MEMO) == 1 and len(list(store.root.iterdir())) == 1

    @settings(max_examples=60, deadline=None)
    @given(homogeneous_intersect_pairs())
    def test_intersection_is_complete(self, instance):
        # dim (A ∩ B)_d = dim A_d + dim B_d - dim (A + B)_d in every degree
        # up to the top one of the result, each read from the standard
        # monomials of a groebner_basis, with no elimination; and every
        # generator lies in A and in B
        ring, lhs, rhs = instance
        try:
            meet = intersect(lhs, rhs, COLON_GUARD)
            bases = [groebner.groebner_basis(i.generators, ring, COLON_GUARD)
                     for i in (meet, lhs, rhs, lhs + rhs)]
        except DegreeGuardExceeded:
            assume(False)
        for g in meet.generators:
            assert lhs.contains(g, COLON_GUARD) and rhs.contains(g, COLON_GUARD)
        for d in range(max(g.weighted_degree() for g in meet.generators) + 1):
            meet_d, lhs_d, rhs_d, sum_d = (_standard_count(b, ring.weights, d) for b in bases)
            # with s_d the standard count: dim I_d = dim S_d - s(I)_d
            assert meet_d + sum_d == lhs_d + rhs_d, d


class TestFrobeniusPower:
    def test_monomial(self, gf2_xyz):
        ideal = Ideal(gf2_xyz, (parse_polynomial("x*y", gf2_xyz),
                                parse_polynomial("y*z", gf2_xyz)))
        sq = frobenius_power(ideal, 1)
        assert {str(g) for g in sq.generators} == {"x^2*y^2", "y^2*z^2"}

    def test_binomial(self, gf2_xyz):
        ideal = Ideal(gf2_xyz, (parse_polynomial("x + y", gf2_xyz),))
        assert {str(g) for g in frobenius_power(ideal, 1).generators} == {"x^2 + y^2"}

    def test_generating_set_independence(self, gf2_xyz):
        rng = random.Random(6)
        for _ in range(10):
            gens = [random_poly(gf2_xyz, rng, 2, 2) for _ in range(2)]
            ideal = Ideal(gf2_xyz, gens)
            if ideal.is_zero():
                continue
            redundant = Ideal(gf2_xyz, gens + [gens[0] * random_poly(gf2_xyz, rng, 2, 1),
                                               gens[0] + gens[-1]])
            assert ideal_equal(frobenius_power(ideal, 1), frobenius_power(redundant, 1))


class TestMinimalGenerators:
    def test_redundant_power(self, gf2_xyz):
        x = parse_polynomial("x", gf2_xyz)
        result = minimal_generators_mod([x, x * x], Ideal(gf2_xyz, ()))
        assert result == [x]

    def test_survivors_modulo_frobenius_square(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        G = [P("x^2*y"), P("x*y*z"), P("y*z^2")]
        J = Ideal(gf2_xyz, (P("x^2*y^2"), P("y^2*z^2")))
        assert minimal_generators_mod(G, J) == sorted(G, key=lambda g: str(g)) or \
            len(minimal_generators_mod(G, J)) == 3

    def test_unit_mod_ideal(self, minors):
        ring, ideal = minors
        result = minimal_generators_mod([ring.one()], ideal)
        assert result == [ring.one()]

    def test_candidate_outside_normal_form_is_reduced(self, gf2_xyz):
        # x^2 + y^2 and y^2 agree modulo (x^2), which only the normal form
        # of x^2 + y^2 shows; candidates that are normal forms are not
        # reduced again, so this one must be told apart, or both survive
        P = lambda s: parse_polynomial(s, gf2_xyz)
        J = Ideal(gf2_xyz, (P("x^2"),))
        assert minimal_generators_mod([P("x^2 + y^2"), P("y^2")], J) == [P("y^2")]

    def test_unreduced_survivor_is_made_monic(self):
        # 2*x*y + 3*z^2 is its own normal form modulo (x^2), so it survives
        # as its candidate, unscaled, and only the result is made monic
        ring = RingSpec(PrimeField(5), ("x", "y", "z"))
        P = lambda s: parse_polynomial(s, ring)
        J = Ideal(ring, (P("x^2"),))
        assert minimal_generators_mod([P("2*x*y + 3*z^2"), P("3*y")], J) == \
            [P("y"), P("x*y + 4*z^2")]

    def test_repeated_candidate_keeps_its_first_place(self, gf2_xyz):
        # x and x + y share a lead; the repeated x is dropped before the
        # greedy pass, so the first x, not x + y, is taken first
        P = lambda s: parse_polynomial(s, gf2_xyz)
        J = Ideal(gf2_xyz, (P("x^2"),))
        assert minimal_generators_mod([P("x"), P("x + y"), P("x")], J) == [P("x"), P("x + y")]

    def test_rejects_inhomogeneous(self, gf2_xyz):
        f = parse_polynomial("x + x*y", gf2_xyz)
        with pytest.raises(ValueError):
            minimal_generators_mod([f], Ideal(gf2_xyz, ()))

    def test_count_invariance(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        G = [P("x^2*y"), P("x*y*z"), P("y*z^2")]
        J = Ideal(gf2_xyz, (P("x^2*y^2"), P("y^2*z^2")))
        base = len(minimal_generators_mod(G, J))
        rng = random.Random(11)
        for _ in range(5):
            shuffled = list(G)
            rng.shuffle(shuffled)
            augmented = shuffled + [J.generators[0] * P("x"), J.generators[1] * P("z^2")]
            assert len(minimal_generators_mod(augmented, J)) == base

    def test_degree_guard_reaches_modulus_basis(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        J = Ideal(gf2_xyz, (P("x^2*y + z^3"), P("x*y*z + y^3")))
        clear_memo()  # a basis memoized by another test would skip the guard
        with pytest.raises(DegreeGuardExceeded):
            minimal_generators_mod([P("x")], J, degree_guard=2)

    def test_known_equal_to_candidate_drops_it(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        one, zero = gf2_xyz.one(), Ideal(gf2_xyz, ())
        assert minimal_forms_with([P("x*y"), P("y^2")], zero,
                                  [(P("x*y"), 1, one)]) == [P("y^2")]

    def test_known_below_candidates_removes_what_it_generates(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        one, zero = gf2_xyz.one(), Ideal(gf2_xyz, ())
        assert minimal_forms_with([P("x*y"), P("y^2")], zero,
                                  [(P("x"), 1, one)]) == [P("y^2")]

    def test_known_never_returned(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        J = Ideal(gf2_xyz, (P("z^3"),))
        known = [(h, 1, gf2_xyz.one()) for h in (P("x"), P("y^2"), P("y*z^2 + z^3"))]
        assert minimal_forms_with([P("x")], J, known) == []
        assert minimal_forms_with([P("x*y"), P("z^2"), P("y*z^2")], J, known) == [P("z^2")]

    @pytest.mark.parametrize("order", [GREVLEX, LEX])
    def test_inhomogeneous_input_raises_before_the_modulus_basis(self, order):
        """A candidate's homogeneity is read from its packed terms; the error
        keeps its message and comes before a guard abort of the modulus
        basis and before a ring mismatch further on."""
        ring = RingSpec(PrimeField(2), ("x", "y", "z"), (1, 2, 1), order)
        P = lambda s: parse_polynomial(s, ring)
        J = Ideal(ring, (P("x^2*y + z^4"), P("x*y*z + y^2")))
        message = "minimal generators need homogeneous input"
        clear_memo()
        with pytest.raises(DegreeGuardExceeded):
            minimal_generators_mod([P("x")], J, degree_guard=4)
        clear_memo()
        for gens in ([P("x + y")], [P("y + x*z^2")], [P("y + z^2"), P("x + y")]):
            with pytest.raises(ValueError, match=f"^{message}$"):
                minimal_generators_mod(gens, J, degree_guard=4)
            with pytest.raises(ValueError, match=f"^{message}$"):
                minimal_generators_mod(gens, Ideal(ring, ()))
        foreign = RingSpec(PrimeField(2), ("u", "v"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            minimal_generators_mod([P("x + y"), foreign.variable("u")], J, degree_guard=4)
        with pytest.raises(RingMismatch):
            minimal_generators_mod([P("y"), foreign.variable("u")], J, degree_guard=4)

    def test_inhomogeneous_modulus_after_inputs(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        bad = Ideal(gf2_xyz, (P("x + y*z"),))
        with pytest.raises(ValueError, match="homogeneous input"):
            minimal_generators_mod([P("x + y^2")], bad)
        with pytest.raises(ValueError, match="homogeneous modulus"):
            minimal_generators_mod([P("x")], bad)


class TestGradedMembership:
    def test_against_normal_form(self, gf2_xyz):
        rng = random.Random(12)
        P = lambda s: parse_polynomial(s, gf2_xyz)
        gens = [P("x*y + z^2"), P("y^3")]
        ideal = Ideal(gf2_xyz, gens)
        membership = GradedMembership(gens, gf2_xyz)
        for _ in range(30):
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            f = gf2_xyz.monomial(mono)
            assert membership.contains(f) == ideal.contains(f)

    def test_monomial_slice_counts(self, gf2_xyz):
        assert len(monomials_of_weighted_degree(gf2_xyz.weights, 3)) == 10
        weighted = RingSpec(PrimeField(2), ("x", "y"), (2, 3))
        assert set(monomials_of_weighted_degree(weighted.weights, 6)) == {(3, 0), (0, 2)}


def _random_homogeneous(ring, rng, d):
    monos = monomials_of_weighted_degree(ring.weights, d)
    if not monos:
        return ring.zero()
    p = ring.field.p
    chosen = rng.sample(monos, min(len(monos), rng.randint(1, 3)))
    return Polynomial(ring, {m: rng.randint(1, p - 1) for m in chosen})


@st.composite
def graded_instances(draw):
    """A random homogeneous modulus over GF(2), GF(3) or GF(5) and candidates
    that include shifts and sums of each other and of the modulus."""
    p = draw(st.sampled_from((2, 3, 5)))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights, order)
    rng = draw(st.randoms(use_true_random=False))
    modulus = Ideal(ring, [_random_homogeneous(ring, rng, rng.randint(1, 3))
                           for _ in range(rng.randint(1, 3))])
    cands = [_random_homogeneous(ring, rng, rng.randint(1, 3))
             for _ in range(rng.randint(1, 5))]
    cands = [g for g in cands if not g.is_zero()] or [ring.variable("x")]
    for _ in range(rng.randint(0, 4)):
        a = rng.choice(cands + list(modulus.generators))
        b = rng.choice(cands)
        shifted = a * ring.variable(rng.choice(ring.variables))
        if b.weighted_degree() == shifted.weighted_degree():
            shifted = shifted + b.scale(rng.randint(1, p - 1))
        cands.append(shifted)
    rng.shuffle(cands)
    return ring, modulus, [g for g in cands if not g.is_zero()], rng


class TestSliceOracle:
    """The normal-form engine against the slice oracle in tests/."""

    @settings(max_examples=200, deadline=None)
    @given(graded_instances())
    def test_membership_matches_normal_form(self, instance):
        ring, modulus, cands, rng = instance
        oracle = GradedMembership(modulus.generators, ring)
        members = []
        for f in cands:
            d = f.weighted_degree()
            member = ring.zero()
            for g in modulus.generators:
                if g.weighted_degree() <= d:
                    member = member + g * _random_homogeneous(ring, rng, d - g.weighted_degree())
            members.append(member)
        for f in cands + members + [f + m for f, m in zip(cands, members)]:
            assert oracle.contains(f) == modulus.contains(f)
        for m in members:
            assert oracle.contains(m)

    @settings(max_examples=200, deadline=None)
    @given(graded_instances())
    def test_survivors_match_oracle(self, instance):
        """The oracle returns the surviving candidates; the library returns
        their monic normal forms, by weighted degree and then by lead."""
        ring, modulus, cands, _ = instance
        key = key_function(ring)
        assert minimal_generators_mod(cands, modulus) == sorted(
            (modulus.normal_form(g).monic() for g in slice_minimal_generators_mod(cands, modulus)),
            key=lambda g: (g.weighted_degree(), key(g.leading_monomial())))

    @settings(max_examples=100, deadline=None)
    @given(graded_instances())
    def test_forms_are_normal_forms(self, instance):
        """Each survivor is returned as its monic normal form, whether the
        candidate was one already, as a component's generators are in the
        probe, or not, and the survivors ascend by weighted degree and then
        by lead."""
        ring, modulus, cands, _ = instance
        forms = [modulus.normal_form(g) for g in cands]
        result = minimal_generators_mod(cands + [h for h in forms if not h.is_zero()], modulus)
        key = key_function(ring)
        for g in result:
            assert g == modulus.normal_form(g)
            assert g.leading_coefficient() == 1
        order = [(g.weighted_degree(), key(g.leading_monomial())) for g in result]
        assert order == sorted(order)
        assert len(result) == len(minimal_generators_mod(cands, modulus))

    @settings(max_examples=100, deadline=None)
    @given(graded_instances())
    def test_known_matches_enlarged_modulus(self, instance):
        """Known elements, given to the minimalization core as products
        h*1^(1) as the probe gives its twisted products, act exactly as
        generators added to the modulus: the same candidates survive, so
        their monic normal forms modulo the enlarged modulus agree.  Both
        sides are sorted by every term, since two survivors may share a lead
        modulo the enlarged modulus only."""
        ring, modulus, cands, rng = instance
        known = [_random_homogeneous(ring, rng, rng.randint(0, 4))
                 for _ in range(rng.randint(1, 3))]
        known += rng.sample(cands, rng.randint(0, min(2, len(cands))))
        enlarged = modulus + Ideal(ring, known)
        key = key_function(ring)
        canonical = lambda gens: sorted(gens, key=lambda g: (
            g.weighted_degree(), [(key(m), c) for m, c in g.terms]))
        products = [(h, 1, ring.one()) for h in known if not h.is_zero()]
        assert canonical(enlarged.normal_form(g).monic() for g in
                         minimal_forms_with(cands, modulus, products)) == \
            canonical(minimal_generators_mod(cands, enlarged))


def _unpack_entry(pk, entry):
    lm, tail = entry
    return pk.unpack(lm), tuple((pk.unpack(m), c) for m, c in tail)


def _buchberger_bound(inputs, ring, guard):
    """The degree bound groebner_basis asks for on the input dicts."""
    return groebner._basis_bound(ring, [Polynomial(ring, fd) for fd in inputs], guard)


def _traced_buchberger(module, inputs, ring, guard, base=None):
    """Run one engine's _buchberger and record its steps: the leads of every
    S-pair it takes and every entry it makes, in order, as exponent tuples.
    The library's engine gets its inputs packed as groebner_basis packs
    them, and its steps and result are unpacked through that packing; its
    minimal basis is interreduced, as groebner_basis does, and the
    interreduced entries are recorded as steps, so its entries line up
    with the oracle's reduced basis.  Pairs are graded by the
    weighted degree, or with `base`, the ring extended by t, by the
    weighted degree of the variables of `base`, as _Elimination.meet does.
    A guard abort is part of the outcome."""
    steps = []
    if module is groebner:
        degree = _buchberger_bound(inputs, ring, guard)
        if base is None:
            pk = polyring._packing(ring, degree)
            grading = pk.degree
        else:
            el = groebner._Elimination(base, degree)
            pk, grading = el.pk, el.degree
        args = ([pk.pack_terms(fd.items()) for fd in inputs], pk, guard, grading)
        finish = lambda basis: groebner._interreduce(basis, pk)
        unpack, unpack_entry = pk.unpack, lambda entry: _unpack_entry(pk, entry)
    else:
        grading = (ring.weighted_degree if base is None
                   else lambda m: base.weighted_degree(m[1:]))
        args = (inputs, ring, guard, grading)
        finish = unpack = unpack_entry = lambda x: x
    spoly, make_entry = module._spoly, module._make_entry

    def traced_spoly(f, g, *rest):
        steps.append(("pair", unpack(f[0]), unpack(g[0])))
        return spoly(f, g, *rest)

    def traced_make_entry(*rest):
        entry = make_entry(*rest)
        steps.append(("entry", unpack_entry(entry)))
        return entry

    with patch.object(module, "_spoly", traced_spoly), \
            patch.object(module, "_make_entry", traced_make_entry):
        try:
            basis = module._buchberger(*args)
        except DegreeGuardExceeded as exc:
            return ("guard", exc.degree, exc.phase), steps
    outcome = [unpack_entry(e) for e in finish(basis)]
    if module is groebner:
        # the oracle's interreduction makes one entry per element, in
        # ascending order of lead; the library keeps an element whose tail
        # is already reduced as it is, so its finished entries are recorded
        steps.extend(("entry", e) for e in outcome)
    return outcome, steps


@st.composite
def buchberger_instances(draw):
    """Random input dicts over GF(2), GF(3) or GF(5) under grevlex, lex or
    the elimination order, the last also as the inhomogeneous
    t*I + (1-t)*J inputs that intersect builds.  The last item is the ring
    that t extends for those, and None for the others."""
    p = draw(st.sampled_from((2, 3, 5)))
    kind = draw(st.sampled_from(("grevlex", "lex", "elim", "intersect")))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    rng = draw(st.randoms(use_true_random=False))
    field = PrimeField(p)

    def gens(ring, count):
        return [random_poly(ring, rng, max_terms=3, max_exp=2) for _ in range(count)]

    base = None
    if kind == "intersect":
        base = RingSpec(field, ("x", "y", "z"), weights)
        ring = groebner._extended_ring(base)
        t = ring.variable(ring.variables[0])
        polys = [t * _lift(g, ring) for g in gens(base, rng.randint(1, 2))]
        polys += [(ring.one() - t) * _lift(g, ring) for g in gens(base, rng.randint(1, 2))]
    else:
        order = {"grevlex": GREVLEX, "lex": LEX, "elim": Order("elim", 1)}[kind]
        ring = RingSpec(field, ("x", "y", "z"), weights, order)
        polys = gens(ring, rng.randint(1, 4))
    return ring, [dict(f.terms) for f in polys if not f.is_zero()], rng, base


class TestBuchbergerOracle:
    """The heap-ordered engine on packed monomials against the earlier
    engine on exponent tuples kept in tests/buchberger_oracle.py: the same
    S-pairs in the same order, the same entries, the same guard aborts.
    The intersect inputs run under the grading of the ring's own
    variables, as in an elimination, the others under the weighted
    degree."""

    # the slowest of 3000 examples took 2.1 s; a finite deadline turns a
    # rare slow instance into a failure that prints its example
    @settings(max_examples=200, deadline=timedelta(seconds=60))
    @given(buchberger_instances())
    def test_steps_match_oracle(self, instance):
        ring, inputs, _, base = instance
        new = _traced_buchberger(groebner, inputs, ring, 40, base)
        old = _traced_buchberger(buchberger_oracle, inputs, ring, 40, base)
        assert new == old

    @settings(max_examples=100, deadline=None)
    @given(buchberger_instances(), st.integers(2, 6))
    def test_guard_matches_oracle(self, instance, guard):
        ring, inputs, _, base = instance
        new = _traced_buchberger(groebner, inputs, ring, guard, base)
        old = _traced_buchberger(buchberger_oracle, inputs, ring, guard, base)
        assert new == old

    @settings(max_examples=100, deadline=None)
    @given(buchberger_instances())
    def test_reducer_choice_matches_oracle(self, instance):
        # the inputs are no Groebner basis, so the remainder depends on
        # which divisor reduces each term; the basis is fixed, so one
        # divisor index serves all three reductions
        ring, inputs, rng, _ = instance
        key = key_function(ring)
        p = ring.field.p
        basis = [buchberger_oracle._make_entry(fd, key, p) for fd in inputs]
        polys = [random_poly(ring, rng, max_terms=5, max_exp=4) for _ in range(3)]
        degree = max([f.weighted_degree() for f in polys]
                     + [ring.weighted_degree(m) for fd in inputs for m in fd])
        # the bound of Ideal._reducer, on a basis that is the inputs
        if not groebner._graded(ring, [Polynomial(ring, fd) for fd in inputs]):
            degree = polyring._headroom(degree)
        pk = polyring._packing(ring, degree)
        packed = [groebner._make_entry(pk.pack_terms(fd.items()), p) for fd in inputs]
        index = groebner._Divisors(pk)
        for f in polys:
            r = groebner._reduce_full(pk.pack_terms(f.terms), packed, pk, index)
            assert {pk.unpack(m): c for m, c in r.items()} == \
                buchberger_oracle._reduce_full(dict(f.terms), basis, key, p)


def _fully_interreduced(minimal, pk):
    """The interreduction as it was before entries with reduced tails were
    kept as they are: every tail goes through the full reduction."""
    index = groebner._Divisors(pk)
    reduced = []
    for lm, tail in minimal:
        r = groebner._reduce_full(dict(tail), minimal, pk, index)
        r[lm] = 1
        reduced.append(groebner._make_entry(r, pk.p))
    return sorted(reduced)


@st.composite
def homogeneous_minimal_bases(draw):
    """The packing, the minimal basis (ascending monic packed entries) that
    Buchberger makes of random homogeneous forms over GF(2), GF(3) or GF(5)
    under weighted grevlex, weights (1,1,1) or (1,2,1), with leads in two
    or more degrees, and a random source."""
    p = draw(st.sampled_from((2, 3, 5)))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    rng = draw(st.randoms(use_true_random=False))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights)
    gens = [_random_homogeneous(ring, rng, rng.randint(low, low + 2)) for low in (1, 2, 3)]
    inputs = [dict(g.terms) for g in gens if not g.is_zero()]
    assume(inputs)
    pk = polyring._packing(ring, _buchberger_bound(inputs, ring, 40))
    try:
        minimal = groebner._buchberger([pk.pack_terms(fd.items()) for fd in inputs],
                                       pk, 40, pk.degree)
    except DegreeGuardExceeded:
        assume(False)
    assume(len({pk.degree(lm) for lm, _ in minimal}) >= 2)
    return pk, minimal, rng


def _plant(minimal, pk, rng, same_degree):
    """`minimal` with one entry E replaced by E + c*u*F, for another entry F
    whose lead has a lower degree, or with `same_degree`, the same degree
    and a lower lead, and a monomial u of the degree that makes u*lead(F)
    a term of E below lead(E): then u*lead(F) is a tail term of E, a
    multiple of a lead of lower degree or a lead.  The ideal and the leads
    stay, so it is still a minimal basis.  None when no E, F and u fit."""
    degree, p = pk.degree, pk.p
    pairs = [(e, f) for e in minimal for f in minimal
             if (degree(f[0]) == degree(e[0]) and f[0] < e[0] if same_degree
                 else degree(f[0]) < degree(e[0]))]
    if not pairs:
        return None
    (lm, tail), (lf, tf) = rng.choice(pairs)
    shifts = [s for s in map(pk.pack, monomials_of_weighted_degree(
        pk.ring.weights, degree(lm) - degree(lf))) if s + lf < lm]
    if not shifts:
        return None
    s = rng.choice(shifts)
    work = dict(tail)
    c = rng.randint(1, p - 1)
    for m, cc in ((lf, 1),) + tf:
        work[m + s] = (work.get(m + s, 0) + c * cc) % p
    if not work[lf + s]:
        return None
    entry = (lm, tuple(sorted(((m, c) for m, c in work.items() if c), reverse=True)))
    return [entry if e[0] == lm else e for e in minimal]


class TestInterreduce:
    """_interreduce, which keeps an entry whose tail no lead divides,
    against the full reduction of every tail."""

    @settings(max_examples=150, deadline=None)
    @given(buchberger_instances())
    def test_matches_full_reduction(self, instance):
        ring, inputs, _, base = instance
        assume(base is None)
        pk = polyring._packing(ring, _buchberger_bound(inputs, ring, 40))
        try:
            minimal = groebner._buchberger([pk.pack_terms(fd.items()) for fd in inputs],
                                           pk, 40, pk.degree)
        except DegreeGuardExceeded:
            assume(False)
        assume(len(minimal) >= 2)
        # give the last entry a tail term that the first lead divides: add
        # the first entry, whose terms all lie below the last lead, unless
        # that lead is in the tail already; the ideal and leads stay
        (lm0, tail0), (lm, tail) = minimal[0], minimal[-1]
        work = dict(tail)
        if lm0 not in work:
            for m, c in ((lm0, 1),) + tail0:
                work[m] = (work.get(m, 0) + c) % pk.p
        minimal[-1] = (lm, tuple(sorted(((m, c) for m, c in work.items() if c), reverse=True)))
        assert lm0 in dict(minimal[-1][1])
        expected = _fully_interreduced(minimal, pk)
        assert groebner._interreduce(minimal, pk) == expected
        if ring.order == GREVLEX:
            # inhomogeneous tails: the degree screen holds on every tail of
            # a degree-first order; a cut of 0 sends each tail with a lead
            # of lower degree to the index
            for few in (0, groebner.FEW_LEADS, len(minimal)):
                with patch.object(groebner, "FEW_LEADS", few):
                    assert groebner._interreduce(minimal, pk, pk.degree) == expected

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_minimal_bases(), st.booleans())
    def test_degree_screen_matches_full_reduction(self, instance, same_degree):
        # a planted tail term is a lead of the same degree or a multiple of
        # a lead of lower degree; each cut sends the tails with lower leads
        # to the guard-bit tests (all of them) or to the index (none)
        pk, minimal, rng = instance
        planted = _plant(minimal, pk, rng, same_degree)
        assume(planted is not None)
        for basis in (minimal, planted):
            expected = _fully_interreduced(basis, pk)
            for few in (0, groebner.FEW_LEADS, len(basis)):
                with patch.object(groebner, "FEW_LEADS", few):
                    assert groebner._interreduce(basis, pk, pk.degree) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from((2, 3, 5)),
           st.lists(st.integers(0, 1 << 40), min_size=1, max_size=20, unique=True),
           st.randoms(use_true_random=False))
    def test_make_entry_of_descending_dict(self, p, monos, rng):
        fd = {m: rng.randint(1, p - 1) for m in monos}
        descending = dict(sorted(fd.items(), reverse=True))
        assert groebner._make_entry(descending, p, True) == groebner._make_entry(fd, p)

    @settings(max_examples=100, deadline=None)
    @given(buchberger_instances())
    def test_entries_are_born_descending(self, instance):
        # _make_entry takes these dicts as they come: a remainder, a
        # quotient and an entry's dict must have their keys descending
        ring, inputs, rng, base = instance
        assume(base is None)
        pk = polyring._packing(ring, polyring._headroom(_buchberger_bound(inputs, ring, 40)))
        basis = [groebner._make_entry(pk.pack_terms(fd.items()), pk.p) for fd in inputs]
        index = groebner._Divisors(pk)
        for entry in basis:
            assert list(groebner._entry_dict(entry)) == sorted(groebner._entry_dict(entry),
                                                              reverse=True)
        for _ in range(3):
            f = pk.pack_terms(random_poly(ring, rng, max_terms=5, max_exp=3).terms)
            r = groebner._reduce_full(f, basis, pk, index)
            assert list(r) == sorted(r, reverse=True)
            for entry in basis:
                g = groebner._entry_dict(entry)
                q = groebner._divide_exact(groebner._multiply(f, g, pk), g, pk) if f else {}
                assert q == f and list(q) == sorted(q, reverse=True)


def _basis_or_abort(gens, ring, guard):
    try:
        return groebner.groebner_basis(gens, ring, degree_guard=guard)
    except DegreeGuardExceeded as exc:
        return ("guard", exc.degree, exc.phase)


class TestFrobeniusOracle:
    """The closed form of the reduced basis of a Frobenius power: the q-th
    power map keeps the monomial order and divisibility and fixes GF(p), so
    the reduced basis of I^[q] is the reduced basis of I with every term
    raised to the q-th power, and a guard g on I aborts exactly where the
    guard g*q on I^[q] does.  This runs the engine at large, sparse
    exponents, up to q = 5^30."""

    @settings(max_examples=100, deadline=None)
    @given(buchberger_instances(), st.sampled_from((1, 2, 5, 30)))
    def test_basis_of_frobenius_power(self, instance, e):
        ring, inputs, _, _ = instance
        q = ring.field.p ** e
        gens = [Polynomial(ring, fd) for fd in inputs]
        clear_memo()  # a memoized basis would skip the guard
        base = _basis_or_abort(gens, ring, 40)
        power = _basis_or_abort([g.frobenius_power(e) for g in gens], ring, 40 * q)
        if base and base[0] == "guard":
            assert power == ("guard", base[1] * q, base[2])
        else:
            assert power == tuple(g.frobenius_power(e) for g in base)


@st.composite
def packing_instances(draw):
    """A few monomials under grevlex, lex or the elimination order: every
    permutation of one of them, which makes ties in degree, and others
    drawn freely or as its multiples.  A common scale, which keeps every
    order and divisibility relation, takes them past 2^45."""
    order = draw(st.sampled_from((GREVLEX, LEX, Order("elim", 1))))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    ring = RingSpec(PrimeField(2), ("x", "y", "z"), weights, order)
    exps = st.tuples(*[st.integers(0, 3)] * 3)
    a = draw(exps)
    monos = sorted(set(itertools.permutations(a))) + draw(st.lists(st.one_of(
        exps, exps.map(lambda c: tuple(map(add, a, c)))), min_size=1, max_size=5))
    scale = draw(st.sampled_from((1, 2 ** 45 + 1)))
    monos = [tuple(scale * e for e in m) for m in monos]
    pk = polyring._packing(ring, 2 * max(map(ring.weighted_degree, monos)))
    return ring, pk, monos


@st.composite
def elimination_instances(draw):
    """A grevlex ring of 1 to 5 variables with random weights, and t-free
    monomials over it for an elimination packing, some scaled past 2^45."""
    n = draw(st.integers(1, 5))
    weights = tuple(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)))
    ring = RingSpec(PrimeField(3), tuple(f"x{i}" for i in range(n)), weights)
    monos = draw(st.lists(st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=8))
    scale = draw(st.sampled_from((1, 2 ** 45 + 1)))
    return ring, [tuple(scale * e for e in m) for m in monos]


class TestPacking:
    """Packed monomials against the exponent tuples they stand for."""

    @settings(max_examples=200, deadline=None)
    @given(packing_instances())
    def test_order_agrees_with_key_function(self, instance):
        ring, pk, monos = instance
        key = key_function(ring)
        assert sorted(monos, key=pk.pack) == sorted(monos, key=key)
        assert len({pk.pack(m) for m in monos}) == len(set(monos))

    @settings(max_examples=200, deadline=None)
    @given(packing_instances())
    def test_respects_addition(self, instance):
        ring, pk, monos = instance
        for a in monos:
            for b in monos:
                assert pk.pack(a) + pk.pack(b) == pk.pack(tuple(map(add, a, b)))

    @settings(max_examples=200, deadline=None)
    @given(packing_instances())
    def test_divisibility_agrees_with_mono_divides(self, instance):
        ring, pk, monos = instance
        for a in monos:
            for b in monos:
                assert (not (pk.pack(b) - pk.pack(a)) & pk.guard_bits) == mono_divides(a, b)

    @settings(max_examples=200, deadline=None)
    @given(packing_instances())
    def test_unpack_inverts_pack(self, instance):
        ring, pk, monos = instance
        for m in monos:
            assert pk.unpack(pk.pack(m)) == m
            assert pk.degree(pk.pack(m)) == ring.weighted_degree(m)
        # the packed sort is the ring's order, so the output is canonical
        distinct = list(dict.fromkeys(monos))
        random.Random(len(distinct)).shuffle(distinct)
        assert pk.polynomial([(pk.pack(m), 1) for m in distinct]).terms == \
            Polynomial(ring, [(m, 1) for m in distinct]).terms

    @settings(max_examples=200, deadline=None)
    @given(packing_instances(), st.lists(st.tuples(*[st.integers(0, 3)] * 3),
                                         min_size=polyring.COLUMNWISE_TERMS, max_size=30,
                                         unique=True))
    def test_columnwise_unpack_matches_unpack(self, instance, more):
        ring, pk, monos = instance
        # a packing that also holds the monomials of `more`
        pk = polyring._packing(ring, max([pk._limit] + [ring.weighted_degree(m) for m in more]))
        items = [(m, 1) for m in dict.fromkeys(map(pk.pack, monos + more))]
        random.Random(len(items)).shuffle(items)
        # 0 and 1 terms, and both sides of polyring.COLUMNWISE_TERMS
        for size in (0, 1, polyring.COLUMNWISE_TERMS - 1, len(items)):
            expected = tuple((pk.unpack(m), c) for m, c in sorted(items[:size], reverse=True))
            assert polyring._unpacked(items[:size], pk.mask, pk._exponent_shifts) == expected
            assert pk.polynomial(items[:size]).terms == expected

    @settings(max_examples=200, deadline=None)
    @given(elimination_instances())
    def test_elimination_entries_move_to_the_ring_packing(self, instance):
        ring, monos = instance
        degree = 1 + max(map(ring.weighted_degree, monos))
        el = groebner._Elimination(ring, degree)
        lead, *tail = sorted({el.pk.pack((0,) + m) for m in monos}, reverse=True)
        pk, entries = el.ring_entries([(lead, tuple((m, 1) for m in tail))])
        assert pk.ring == ring and pk.width == el.pk.width
        unpack = lambda m: el.pk.unpack(m)[1:]  # drop the exponent of t, 0
        assert entries == [(pk.pack(unpack(lead)), tuple((pk.pack(unpack(m)), 1) for m in tail))]
        # the t-free part of the elimination order is the ring's own
        items = [(lead, 1)] + [(m, 1) for m in tail]
        assert el.polynomial(items).terms == \
            tuple((unpack(m), c) for m, c in sorted(items, reverse=True))

    def test_big_exponent_colon(self):
        # q = 2^40 needs fields wider than 32 bits; a fixed 32-bit width
        # wraps and answers (1)
        q = 2 ** 40
        ring = RingSpec(PrimeField(2), ("x", "y", "z"))
        ideal = Ideal(ring, [parse_polynomial(s, ring) for s in ("x*y", "z^2")])
        clear_memo()
        result = colon(frobenius_power(ideal, 40), ideal, 2 ** 44)
        assert [str(g) for g in result.generators] == [
            f"z^{2 * q}", f"x^{q}*y^{q}", f"x^{q - 1}*y^{q - 1}*z^{2 * q - 2}"]

    def test_lex_normal_form_outgrows_input_degree(self):
        ring = RingSpec(PrimeField(3), ("x", "y", "z"), order=LEX)
        P = lambda s: parse_polynomial(s, ring)
        ideal = Ideal(ring, (P("x - y^2"), P("y - 2*z^3")))
        assert ideal.normal_form(P("x^1000 + x*y")) == P("z^6000 + 2*z^9")

    def test_overflow_raises(self, monkeypatch):
        ring = RingSpec(PrimeField(3), ("x", "y", "z"), order=LEX)
        P = lambda s: parse_polynomial(s, ring)
        with pytest.raises(ArithmeticError):
            polyring.Packing(ring, 3).pack((4, 0, 0))  # fields hold 0..3
        # with no spare bits the fields hold the input degree 3, and
        # reducing x^3 reaches x*y^4 on the way to z^18
        monkeypatch.setattr(polyring, "SPARE_BITS", 0)
        ideal = Ideal(ring, (P("x - y^2"), P("y - 2*z^3")))
        with pytest.raises(ArithmeticError):
            ideal.normal_form(P("x^3"))


def _outcome(call):
    """call() on an empty memo, or the type and message of what it raised."""
    clear_memo()
    try:
        return call()
    except (ArithmeticError, RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


def _width_outcomes(ring, lhs, rhs, guard):
    """The outcomes of every entry point that packs, on fresh ideals (an
    Ideal keeps its basis and reducer): groebner_basis, normal_form,
    intersect, colon, minimal_generators_mod and lift_by_nzd."""
    fresh = lambda ideal: Ideal(ring, ideal.generators)
    f, m = rhs.generators[0], rhs.generators[-1]
    return [
        _outcome(lambda: groebner.groebner_basis(lhs.generators, ring, guard)),
        _outcome(lambda: [fresh(lhs).normal_form(g, guard) for g in (f, f * m, f ** 3)]),
        _outcome(lambda: intersect(fresh(lhs), fresh(rhs), guard).generators),
        _outcome(lambda: colon(fresh(lhs), fresh(rhs), guard).generators),
        _outcome(lambda: minimal_generators_mod(rhs.generators, fresh(lhs), guard)),
        _outcome(lambda: lift_by_nzd(f * m + lhs.generators[0], m, fresh(lhs), guard)),
    ]


class TestRightSizedPacking:
    """Each packing holds the degree bound its call proves, with no bits to
    spare.  A packed computation is exact at every width it does not
    overflow, so with bounds that hold, every result, guard abort and error
    is the one of packings SPARE_BITS bits wider (conftest.spare_bits)."""

    @settings(max_examples=100, deadline=None)
    @given(colon_instances(), st.integers(2, 40))
    def test_results_match_spare_bits(self, instance, guard):
        ring, lhs, rhs, _ = instance
        right = _width_outcomes(ring, lhs, rhs, guard)
        with spare_bits():
            wide = _width_outcomes(ring, lhs, rhs, guard)
        assert right == wide
        clear_memo()

    def test_divisor_products_above_the_guard(self, gf2_xyz):
        # the products x^2*z^40*q of the third step, and its divisor, pass
        # the guard 8 and every degree of lhs; the step is skipped, so the
        # colon finishes, in a packing that holds them
        P = lambda s: parse_polynomial(s, gf2_xyz)
        lhs = Ideal(gf2_xyz, (P("x^2"), P("y^2")))
        rhs = Ideal(gf2_xyz, (P("x"), P("y"), P("x^2*z^40")))
        assert polyring._packing(gf2_xyz, 2 * (1 + 8))._limit < 42  # a bound without them
        clear_memo()
        result, count = _eliminations(lambda: colon(lhs, rhs, 8))
        assert count == 2
        assert result.generators == (P("y^2"), P("x*y"), P("x^2"))
        clear_memo()

    def test_pruned_pair_above_the_guard(self, gf2_xyz):
        # y^8*z and x^8*z make the pair of lcm x^8*y^8*z, degree 17, above
        # the guard 15 and the input degrees; x^4*y^5*z then prunes it by
        # the chain criterion, so the run finishes, while _gm_update packed
        # its lcm when it made the pair
        P = lambda s: parse_polynomial(s, gf2_xyz)
        gens = [P("y^8*z"), P("x^8*z"), P("x^4*y^5*z")]
        assert polyring._packing(gf2_xyz, 15)._limit < 17  # the bound without the lcms
        made = []
        gm_update = groebner._gm_update

        def recording(exps, pairs, t, pk):
            kept, new = gm_update(exps, pairs, t, pk)
            made.extend(pk.degree(lcm) for _, lcm in new)
            return kept, new

        clear_memo()
        with patch.object(groebner, "_gm_update", recording):
            basis = groebner.groebner_basis(gens, gf2_xyz, degree_guard=15)
        assert basis == tuple(gens)  # ascending in grevlex
        assert max(made) == 17
        clear_memo()


@st.composite
def divisor_instances(draw):
    """Leads drawn with repeats from a few exponent tuples, with zero and
    repeated exponents, under grevlex, lex or the elimination order, cut
    into chunks that the index takes in one sync each; query monomials are
    the leads, their multiples and free draws.  A common scale takes some
    past 2^45."""
    order = draw(st.sampled_from((GREVLEX, LEX, Order("elim", 1))))
    weights = draw(st.sampled_from(((1, 1, 1, 1), (1, 2, 1, 3))))
    ring = RingSpec(PrimeField(2), ("t", "x", "y", "z"), weights, order)
    exps = st.tuples(*[st.integers(0, 3)] * 4)
    pool = draw(st.lists(exps, min_size=1, max_size=6))
    leads = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    cuts = sorted(draw(st.lists(st.integers(0, len(leads)), max_size=3)))
    queries = leads + draw(st.lists(exps, max_size=10)) + [
        tuple(map(add, a, b)) for a, b in zip(leads, draw(st.lists(exps, max_size=12)))]
    scale = draw(st.sampled_from((1, 2 ** 45 + 1)))
    leads = [tuple(scale * e for e in m) for m in leads]
    queries = [tuple(scale * e for e in m) for m in queries]
    pk = polyring._packing(ring, max(map(ring.weighted_degree, queries)))
    return pk, leads, cuts, queries


class TestDivisors:
    """The divisor index against a linear first-divisor scan on exponent
    tuples, over a basis that grows between lookups."""

    @settings(max_examples=200, deadline=None)
    @given(divisor_instances())
    def test_first_divisor_matches_linear_scan(self, instance):
        pk, leads, cuts, queries = instance
        index = groebner._Divisors(pk)
        basis = []
        for end in cuts + [len(leads)]:
            basis.extend((pk.pack(lead), ()) for lead in leads[len(basis):end])
            index.sync(basis)
            for m in queries:
                expected = next((i for i, lead in enumerate(leads[:end])
                                 if mono_divides(lead, m)), -1)
                assert index.first(pk.pack(m)) == expected


@st.composite
def shift_instances(draw):
    """(ring, modulus generators, normal-form source, shift degree): a
    random homogeneous ideal over GF(2), GF(3), GF(5) or GF(7), under
    grevlex or lex, with weights (1,1,1) or (1,2,1), and a homogeneous
    polynomial to reduce modulo it.  Half the time one variable is left out
    of every generator, and so of every lead of the basis, and every shift
    of the instance's degree is tried, those in that variable included."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    order = draw(st.sampled_from((GREVLEX, LEX)))
    weights = draw(st.sampled_from(((1, 1, 1), (1, 2, 1))))
    ring = RingSpec(PrimeField(p), ("x", "y", "z"), weights, order)
    absent = draw(st.sampled_from((None, None, None, 0, 1, 2)))
    rng = draw(st.randoms(use_true_random=False))

    def homogeneous(d, terms):
        monos = [m for m in monomials_of_weighted_degree(weights, d)
                 if absent is None or not m[absent]]
        chosen = rng.sample(monos, min(len(monos), terms))
        return Polynomial(ring, {m: rng.randint(1, p - 1) for m in chosen})

    gens = [homogeneous(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    d = rng.randint(1, 5)
    f = Polynomial(ring, {m: rng.randint(0, p - 1)
                          for m in monomials_of_weighted_degree(weights, d)})
    assume(not f.is_zero())
    return ring, gens, f, draw(st.integers(1, 3))


class TestShiftScreen:
    """groebner._Shifts, which reduces a shifted normal form only at the
    terms where a lead can newly divide, against _reduce_full of the whole
    shifted row."""

    @settings(max_examples=150, deadline=None)
    @given(shift_instances())
    def test_screened_shift_matches_full_reduction(self, instance):
        ring, gens, f, k = instance
        basis = Ideal(ring, gens).groebner_basis(degree_guard=60)
        top = f.weighted_degree() + k
        pk = polyring._packing(ring, max([top] + [g.weighted_degree() for g in basis]))
        entries = [groebner._make_entry(pk.pack_terms(g.terms), pk.p) for g in basis]
        index = groebner._Divisors(pk)
        form = groebner._reduce_full(pk.pack_terms(f.terms), entries, pk, index)
        assume(form)
        shifts = groebner._Shifts(entries, pk, index)
        for m in monomials_of_weighted_degree(ring.weights, k):
            s = pk.pack(m)
            assert shifts.normal_form(form, m) == groebner._reduce_full(
                {mm + s: c for mm, c in form.items()}, entries, pk, index), m

    def test_shift_in_no_lead_variable_is_its_own_normal_form(self):
        """No lead of the basis of I^[49] for the twisted cubic at p=7
        involves a or d, so a shift in those alone sends no term to
        _reduce_full; a shift by b sends exactly the terms whose b exponent
        is one below a lead's, 48 or 97."""
        ring, ideal = twisted_cubic_ideal(7)
        basis = frobenius_power(ideal, 2).groebner_basis(degree_guard=600)
        assert sorted(g.leading_monomial() for g in basis) == [
            (0, 0, 98, 0), (0, 49, 49, 0), (0, 98, 0, 0)]
        (v,) = component(ideal, 2, 600).min_gens
        pk = polyring._packing(ring, 200)
        entries = [groebner._make_entry(pk.pack_terms(g.terms), pk.p) for g in basis]
        index = groebner._Divisors(pk)
        form = pk.pack_terms(v.terms)
        sent = []
        reduce_full = groebner._reduce_full

        def recording(fd, *args):
            sent.append({pk.unpack(m) for m in fd})
            return reduce_full(fd, *args)

        shifts = groebner._Shifts(entries, pk, index)
        for m in [(1, 0, 0, 0), (0, 0, 0, 1), (2, 0, 0, 1), (0, 1, 0, 0)]:
            sent.clear()
            with patch.object(groebner, "_reduce_full", recording):
                row = shifts.normal_form(form, m)
            s = pk.pack(m)
            assert row == reduce_full({mm + s: c for mm, c in form.items()}, entries, pk, index)
            caught = {tuple(map(add, u, m)) for u, _ in v.terms if m[1] and u[1] in (48, 97)}
            assert sent == ([caught] if caught else []), m
        assert caught  # the shift by b sent some terms


class TestLift:
    def test_constructed_instance(self, minors):
        ring, ideal = minors
        rng = random.Random(13)
        modulus = frobenius_power(ideal, 1)
        m = parse_polynomial("x", ring)
        h = parse_polynomial("u*y^2 + w^3", ring)
        j = modulus.generators[0] * parse_polynomial("u", ring)
        g = m * h + j
        f = lift_by_nzd(g, m, modulus)
        assert modulus.contains(m * f - g)

    def test_unit_divisor(self, minors):
        ring, ideal = minors
        d2, d3 = ideal.generators[1], ideal.generators[2]
        modulus = frobenius_power(ideal, 1)
        g = d2 * d3
        f = lift_by_nzd(g, ring.one(), modulus)
        assert modulus.contains(f - g)

    def test_q4_lift(self, minors):
        ring, ideal = minors
        d2, d3 = ideal.generators[1], ideal.generators[2]
        modulus = frobenius_power(ideal, 2)
        y = ring.variable("y")
        x = ring.variable("x")
        g = y * (d2 * d3) ** 3
        f = lift_by_nzd(g, x, modulus)
        assert modulus.contains(x * f - g)
        assert not modulus.contains(f)

    def test_member_of_modulus_lifts_to_zero(self, minors):
        ring, ideal = minors
        modulus = frobenius_power(ideal, 1)
        f = lift_by_nzd(modulus.generators[0], ring.variable("x"), modulus)
        assert f.is_zero()

    def test_no_lift(self, minors):
        ring, ideal = minors
        modulus = frobenius_power(ideal, 1)
        with pytest.raises(NoLiftExists):
            lift_by_nzd(ring.variable("u"), ring.variable("x"), modulus)

    def test_inhomogeneous_divisor_or_modulus_rejected(self, minors):
        ring, ideal = minors
        modulus = frobenius_power(ideal, 1)
        x = ring.variable("x")
        g = x * ideal.generators[0]
        with pytest.raises(ValueError, match="homogeneous"):
            lift_by_nzd(g, x + ring.one(), modulus)
        with pytest.raises(ValueError, match="homogeneous"):
            lift_by_nzd(g, x, modulus + Ideal(ring, (x * x + ring.variable("y"),)))

    def test_guard_abort_names_lift_step(self, gf2_xyz):
        P = lambda s: parse_polynomial(s, gf2_xyz)
        modulus = Ideal(gf2_xyz, (P("x^2 + y*z"), P("x*y + z^2")))
        m = P("x^2 + y*z + z^2")
        clear_memo()
        modulus.groebner_basis(degree_guard=4)  # the basis of J fits the guard
        with pytest.raises(DegreeGuardExceeded, match=(
                r"^intermediate weighted degree 5 \(pair lcm\) exceeds the degree guard 4 "
                r"in the basis of J \+ \(t - m\) of the lift along m = x\^2 \+ y\*z \+ z\^2; "
                )) as info:
            lift_by_nzd(m * P("x"), m, modulus, 4)
        assert (info.value.degree, info.value.guard, info.value.phase) == (5, 4, "pair lcm")
        clear_memo()


@st.composite
def lift_instances(draw):
    """(J, m, g, h): J = I^[q], q = p^e, for the prime I of the 2x3 minors or
    the twisted cubic, p in {2, 3}, e in {1, 2}; m a random form of degree 1
    or 2 outside I, so a nonzerodivisor modulo J, since Ass(R/I^[q]) =
    Ass(R/I); and g = m*h + j, with h a random form and j a random element
    of J of the degree of m*h."""
    build = draw(st.sampled_from((minors_ideal, twisted_cubic_ideal)))
    p = draw(st.sampled_from((2, 3)))
    e = draw(st.integers(1, 2))
    rng = draw(st.randoms(use_true_random=False))
    ring, ideal = build(p)
    modulus = frobenius_power(ideal, e)
    m = _random_homogeneous(ring, rng, rng.randint(1, 2))
    assume(not ideal.contains(m))
    d = m.weighted_degree() + rng.randint(0, 2 * p ** e + 1)
    h = _random_homogeneous(ring, rng, d - m.weighted_degree())
    j = sum((f * _random_homogeneous(ring, rng, d - f.weighted_degree())
             for f in modulus.generators if f.weighted_degree() <= d), ring.zero())
    return modulus, m, m * h + j, h


LIFT_GUARD = 1000


class TestLiftOracle:
    """The lift by one normal form modulo J + (t - m) against the
    colon-based lift kept in tests/lift_oracle.py.  The lift is unique
    modulo J, so the library's lift is the normal form of the reference's."""

    @settings(max_examples=60, deadline=None)
    @given(lift_instances())
    def test_lift_matches_oracle(self, instance):
        modulus, m, g, h = instance
        f = lift_by_nzd(g, m, modulus, LIFT_GUARD)
        assert f == modulus.normal_form(f)
        assert f == modulus.normal_form(h)
        assert f == modulus.normal_form(lift_oracle.lift_by_nzd(g, m, modulus, LIFT_GUARD))

    @settings(max_examples=30, deadline=None)
    @given(lift_instances())
    def test_inhomogeneous_g_lifts_degree_by_degree(self, instance):
        modulus, m, g, h = instance
        ring = modulus.ring
        shifted = g * ring.variable(ring.variables[0])  # one degree higher
        f = lift_by_nzd(g + shifted, m, modulus, LIFT_GUARD)
        assert f == lift_by_nzd(g, m, modulus, LIFT_GUARD) + \
            lift_by_nzd(shifted, m, modulus, LIFT_GUARD)

    @settings(max_examples=30, deadline=None)
    @given(lift_instances(), st.randoms(use_true_random=False))
    def test_outside_j_plus_m_has_no_lift(self, instance, rng):
        modulus, m, g, _ = instance
        ring = modulus.ring
        r = _random_homogeneous(ring, rng, g.weighted_degree() if g else rng.randint(0, 3))
        assume(not (modulus + Ideal(ring, (m,))).contains(g + r))
        with pytest.raises(NoLiftExists):
            lift_by_nzd(g + r, m, modulus, LIFT_GUARD)
        with pytest.raises(NoLiftExists):
            lift_oracle.lift_by_nzd(g + r, m, modulus, LIFT_GUARD)
