import random
from math import comb
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from frobtool.frobenius import fractional_fingen_probe
from frobtool.groebner import Ideal, colon, frobenius_power, ideal_equal
from frobtool.monomials import (
    FracMonomialModule,
    MonomialIdeal,
    SemigroupSpec,
    _Dominance,
    free_semigroup,
    mono_colon,
    mono_frobenius_power,
    mono_intersect,
    poly_twisted_component,
    segre_component_2x3,
    segre_semigroup_2x3,
    twisted_product_memberships,
    twisted_products,
    veronese_component,
    veronese_semigroup,
)
from frobtool.polyring import PrimeField, RingSpec, monomials_of_weighted_degree

import monomial_oracle
import probe_oracle
from conftest import random_monomial
from monomial_oracle import frac_twisted_product


@pytest.fixture
def R3():
    return RingSpec(PrimeField(2), ("x", "y", "z"))


def M(ring, *monos):
    return MonomialIdeal(ring, monos)


class TestMonomialIdeal:
    def test_antichain_pruning(self, R3):
        ideal = M(R3, (1, 1, 0), (2, 2, 0), (0, 1, 1))
        assert set(ideal.generators) == {(1, 1, 0), (0, 1, 1)}

    def test_colon_example(self, R3):
        lhs = M(R3, (2, 2, 0), (0, 2, 2))
        rhs = M(R3, (1, 1, 0), (0, 1, 1))
        result = mono_colon(lhs, rhs)
        assert set(result.generators) == {(2, 1, 0), (1, 1, 1), (0, 1, 2)}

    def test_colon_by_self(self, R3):
        ideal = M(R3, (1, 1, 0), (0, 1, 1))
        assert mono_colon(ideal, ideal).generators == ((0, 0, 0),)

    def test_colon_principal_power(self):
        R1 = RingSpec(PrimeField(2), ("x",))
        q = 8
        assert mono_colon(M(R1, (q,)), M(R1, (1,))).generators == ((q - 1,),)

    def test_frobenius_power(self, R3):
        ideal = M(R3, (1, 1, 0), (0, 1, 1))
        assert set(mono_frobenius_power(ideal, 1).generators) == {(2, 2, 0), (0, 2, 2)}
        R1 = RingSpec(PrimeField(2), ("x",))
        assert mono_frobenius_power(M(R1, (1,)), 3).generators == ((8,),)

    def test_intersection_example(self, R3):
        lhs = M(R3, (1, 1, 0), (0, 1, 2))
        rhs = M(R3, (2, 1, 0), (0, 1, 1))
        result = mono_intersect(lhs, rhs)
        assert set(result.generators) == {(2, 1, 0), (1, 1, 1), (0, 1, 2)}


class TestCrossOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_colon_and_power_match_basis_engine(self, R3, seed):
        rng = random.Random(seed)
        lhs_m = [random_monomial(rng, 3, 3) for _ in range(rng.randint(1, 3))]
        rhs_m = [random_monomial(rng, 3, 2) for _ in range(rng.randint(1, 2))]
        lhs_m = [m for m in lhs_m if any(m)] or [(1, 0, 0)]
        rhs_m = [m for m in rhs_m if any(m)] or [(0, 1, 0)]
        lhs = MonomialIdeal(R3, lhs_m)
        rhs = MonomialIdeal(R3, rhs_m)
        lhs_poly = Ideal(R3, lhs.polynomials())
        rhs_poly = Ideal(R3, rhs.polynomials())
        assert ideal_equal(Ideal(R3, mono_colon(lhs, rhs).polynomials()),
                           colon(lhs_poly, rhs_poly))
        assert ideal_equal(Ideal(R3, mono_frobenius_power(lhs, 1).polynomials()),
                           frobenius_power(lhs_poly, 1))


class TestGradedPiece:
    def test_dim2_degree1(self):
        R2 = RingSpec(PrimeField(2), ("x", "y"))
        assert monomials_of_weighted_degree(R2.weights, 1) == ((1, 0), (0, 1))

    def test_dim3_degree3_count(self, R3):
        piece = monomials_of_weighted_degree(R3.weights, 3)
        assert len(piece) == len(set(piece)) == comb(5, 2) == 10
        assert all(sum(m) == 3 for m in piece)
        assert list(piece) == sorted(piece, reverse=True)

    def test_degree0(self, R3):
        assert monomials_of_weighted_degree(R3.weights, 0) == ((0, 0, 0),)
        assert monomials_of_weighted_degree(R3.weights, -1) == ()


class TestSemigroup:
    def test_free(self):
        S = free_semigroup(3)
        assert S.admissible((0, 0, 0))
        assert S.admissible((2, 0, 5))
        assert not S.admissible((-1, 0, 0))

    def test_veronese(self):
        S = veronese_semigroup(2, 3)
        assert S.admissible((1, 2))
        assert not S.admissible((1, 1))

    def test_segre_balance(self):
        S = segre_semigroup_2x3()
        assert S.admissible((2, 1, 1, 1, 1))
        assert not S.admissible((2, 1, 1, 1, 0))

    def test_fixed_semigroups_built_once(self):
        for build, args in ((free_semigroup, (3,)), (veronese_semigroup, (2, 3)),
                            (segre_semigroup_2x3, ())):
            first = build(*args)
            assert build(*args) == first
            # a built spec equals a freshly constructed one
            assert first == SemigroupSpec(first.dim, first.congruences)
        assert free_semigroup(2) != free_semigroup(3)
        assert veronese_semigroup(2, 3) != veronese_semigroup(2, 2)

    def test_closure_check_rejects_bad_data(self):
        # v >= 0 with v_0 * v_... a non-linear predicate cannot be encoded;
        # a wrong weight length is rejected immediately
        with pytest.raises(ValueError):
            SemigroupSpec(2, (((1,), 2),))


class TestFracModules:
    def test_membership_of_generator(self):
        mod = poly_twisted_component(2, 2, 1)
        for g in mod.generators:
            assert mod.contains(g)

    def test_generators_shared_or_converted(self):
        given = (-1, 0)
        mod = FracMonomialModule(free_semigroup(2), [given, [True, 2.0]])
        assert mod.generators == ((-1, 0), (1, 2))
        assert mod.generators[0] is given
        assert all(type(x) is int for x in mod.generators[1])

    def test_twisted_product_dim2(self):
        t1 = poly_twisted_component(2, 2, 1)
        prod = frac_twisted_product(t1, t1, 2)
        assert set(prod.generators) == {(3, 0), (1, 2), (2, 1), (0, 3)}
        assert set(prod.generators) == set(poly_twisted_component(2, 2, 2).generators)

    def test_degree0_identity(self):
        t0 = poly_twisted_component(3, 2, 0)
        t2 = poly_twisted_component(3, 2, 2)
        prod = frac_twisted_product(t0, t2, 2)
        assert set(prod.generators) == set(t2.generators)

    def test_dim3_witness_not_member(self):
        # q = 4: the element x * y^(q/p-1) * z^(q-q/p-1) avoids the split product
        t1 = poly_twisted_component(3, 2, 1)
        prod = frac_twisted_product(t1, t1, 2)
        assert not prod.contains((1, 1, 1))

    def test_grading(self):
        for p in (2, 3):
            for e1 in (1, 2):
                for e2 in (1, 2):
                    prod = frac_twisted_product(poly_twisted_component(2, p, e1),
                                                poly_twisted_component(2, p, e2), p)
                    assert prod.degree == e1 + e2
                    target = p ** (e1 + e2) - 1
                    assert all(sum(g) == target for g in prod.generators)

    def test_twist_associativity_on_exponents(self):
        rng = random.Random(21)
        p = 3
        for _ in range(40):
            e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
            q1, q2 = p ** e1, p ** e2
            a = tuple(rng.randint(-4, 4) for _ in range(3))
            b = tuple(rng.randint(-4, 4) for _ in range(3))
            c = tuple(rng.randint(-4, 4) for _ in range(3))
            left = tuple(x + q1 * y for x, y in zip(a, b))
            left = tuple(x + q1 * q2 * y for x, y in zip(left, c))
            inner = tuple(x + q2 * y for x, y in zip(b, c))
            right = tuple(x + q1 * y for x, y in zip(a, inner))
            assert left == right

    def test_dim1_commutative_generation(self):
        for p in (2, 3):
            for e1 in range(1, 5):
                for e2 in range(1, 5 - e1 + 1):
                    a = poly_twisted_component(1, p, e1)
                    b = poly_twisted_component(1, p, e2)
                    ab = frac_twisted_product(a, b, p)
                    ba = frac_twisted_product(b, a, p)
                    full = poly_twisted_component(1, p, e1 + e2)
                    assert set(ab.generators) == set(ba.generators) == set(full.generators)

    def test_dim2_degree1_generates(self):
        for p in (2, 3):
            for e in range(1, 6):
                t1 = poly_twisted_component(2, p, 1)
                te = poly_twisted_component(2, p, e)
                prod = frac_twisted_product(t1, te, p)
                assert set(prod.generators) == set(poly_twisted_component(2, p, e + 1).generators)

    def test_dim3_witness_all_splits(self):
        for p in (2, 3):
            for e in (2, 3, 4):
                q = p ** e
                witness = (1, q // p - 1, q - q // p - 1)
                for e1 in range(1, e):
                    prod = frac_twisted_product(poly_twisted_component(3, p, e1),
                                                poly_twisted_component(3, p, e - e1), p)
                    assert not prod.contains(witness)


class TestVeroneseComponent:
    def test_p3_pair(self):
        assert set(veronese_component(2, 3, 3, 1).generators) == {(-1, -2), (-2, -1)}

    def test_p7_cyclic(self):
        assert veronese_component(2, 3, 7, 1).generators == ((-6, -6),)

    def test_p2_mixed_signs(self):
        assert set(veronese_component(2, 3, 2, 1).generators) == {(1, -1), (0, 0), (-1, 1)}
        assert veronese_component(2, 3, 2, 2).generators == ((-3, -3),)

    def test_e0(self):
        assert veronese_component(2, 3, 5, 0).generators == ((0, 0),)

    def test_product_reproduces_scaled_component(self):
        # degree-(e+e') component times the monomial pair (x^q, y^q)
        p = 3
        for e1, e2 in ((1, 1), (1, 2), (2, 1)):
            q1 = p ** e1
            prod = frac_twisted_product(veronese_component(2, 3, p, e1),
                                        veronese_component(2, 3, p, e2), p)
            target = veronese_component(2, 3, p, e1 + e2)
            shifted = FracMonomialModule(
                target.semigroup,
                [tuple(s + g for s, g in zip(shift, gen))
                 for shift in ((q1, 0), (0, q1)) for gen in target.generators],
                e1 + e2)
            assert all(prod.contains(g) for g in shifted.generators)
            assert all(shifted.contains(g) for g in prod.generators)


class TestSegre:
    def test_component_size(self):
        # k+l+m = 2q-2 with k,l,m <= q-1 has 3 solutions at q=2, 10 at q=4
        assert len(segre_component_2x3(2, 1).generators) == 3
        assert len(segre_component_2x3(2, 2).generators) == 10

    def test_witness_in_component_but_not_products(self):
        p = 2
        for e in (2, 3, 4):
            q = p ** e
            witness = (-(q - 1), -(q - 1), -(q - 2), -(q - q // p), -(q // p))
            comp = segre_component_2x3(p, e)
            assert comp.contains(witness)
            for e1 in range(1, e):
                prod = frac_twisted_product(segre_component_2x3(p, e1),
                                            segre_component_2x3(p, e - e1), p)
                assert not prod.contains(witness)


def _degrees(p, top):
    """0, 1, ... while p^e <= top."""
    e = 0
    while p ** e <= top:
        yield e
        e += 1


def _assert_canonical(module):
    """Strictly ascending int tuples of the semigroup's dimension."""
    gens = module.generators
    assert type(gens) is tuple
    assert all(type(g) is tuple and len(g) == module.semigroup.dim for g in gens)
    assert all(type(x) is int for g in gens for x in g)
    assert all(a < b for a, b in zip(gens, gens[1:]))


class TestInOrderComponents:
    """The builders that emit their generators in order against the
    sorting builders they replaced (tests/monomial_oracle.py)."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_segre_matches_reference(self, p):
        for e in _degrees(p, 256):
            built = segre_component_2x3(p, e)
            reference = monomial_oracle.segre_component_2x3(p, e)
            assert built.generators == reference.generators
            assert built == reference

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_poly_twisted_matches_reference(self, d):
        for p in (2, 3, 5, 7):
            for e in _degrees(p, 81):
                built = poly_twisted_component(d, p, e)
                reference = monomial_oracle.poly_twisted_component(d, p, e)
                assert built.generators == reference.generators
                assert built == reference

    def test_from_sorted_callers_are_canonical(self):
        modules = [segre_component_2x3(p, e) for p in (2, 3) for e in range(4)]
        modules += [poly_twisted_component(d, p, e)
                    for d in (1, 2, 3) for p in (2, 3) for e in range(4)]
        modules += [m.minimalize() for m in list(modules)]
        modules += [veronese_component(2, 3, p, e) for p in (2, 3, 5) for e in range(3)]
        rng = random.Random(33)
        modules += [_module_instance(rng).minimalize() for _ in range(100)]
        for module in modules:
            _assert_canonical(module)


class TestTwistedProductContains:
    def test_agrees_with_built_product(self):
        rng = random.Random(29)
        families = [
            (2, lambda p, e: poly_twisted_component(2, p, e)),
            (3, lambda p, e: poly_twisted_component(3, p, e)),
            (2, lambda p, e: veronese_component(2, 3, p, e)),
            (5, lambda p, e: segre_component_2x3(p, e)),
        ]
        seen = set()
        for dim, build in families:
            for p in (2, 3):
                for e1, e2 in ((0, 1), (1, 1), (1, 2), (2, 1)):
                    lhs, rhs = build(p, e1), build(p, e2)
                    prod = frac_twisted_product(lhs, rhs, p)
                    for _ in range(30):
                        base = rng.choice(prod.generators)
                        v = tuple(x + rng.randint(-2, 2) for x in base)
                        expected = prod.contains(v)
                        assert twisted_product_memberships(rhs, p, [(lhs, v)])[0] == expected
                        seen.add(expected)
        assert seen == {True, False}

    def test_products_are_the_pairwise_sums(self):
        for lhs, rhs, p in ((poly_twisted_component(3, 2, 2), poly_twisted_component(3, 2, 1), 2),
                            (segre_component_2x3(3, 1), segre_component_2x3(3, 2), 3),
                            (veronese_component(2, 3, 2, 0), veronese_component(2, 3, 2, 1), 2)):
            q1 = p ** lhs.degree
            products = twisted_products(lhs, rhs, p)
            assert products == [tuple(a + q1 * b for a, b in zip(ga, gb))
                                for ga in lhs.generators for gb in rhs.generators]
            assert frac_twisted_product(lhs, rhs, p).generators == tuple(sorted(set(products)))

    def test_memberships_answer_each_query(self):
        rng = random.Random(34)
        p = 2
        rhs = segre_component_2x3(p, 1)
        queries = []
        for e1 in (1, 2, 3):
            lhs = segre_component_2x3(p, e1)
            prod = frac_twisted_product(lhs, rhs, p)
            for _ in range(20):
                base = rng.choice(prod.generators)
                queries.append((lhs, tuple(x + rng.randint(-1, 1) for x in base)))
        answers = twisted_product_memberships(rhs, p, queries)
        assert answers == [monomial_oracle.twisted_product_contains(lhs, rhs, p, v)
                           for lhs, v in queries]
        assert set(answers) == {True, False}

    def test_memberships_build_one_index_after_checking(self, monkeypatch):
        builds = []
        init = _Dominance.__init__
        monkeypatch.setattr(_Dominance, "__init__",
                            lambda self, *args: builds.append(1) or init(self, *args))
        t1, t2 = poly_twisted_component(2, 2, 1), poly_twisted_component(2, 2, 2)
        twisted_product_memberships(t1, 2, [(t1, (1, 2)), (t2, (3, 4)), (t1, (0, 0))])
        assert len(builds) == 1
        with pytest.raises(ValueError, match="wrong length"):
            twisted_product_memberships(t1, 2, [(t1, (1, 2)), (t2, (3, 4, 5))])
        assert len(builds) == 1

    def test_checks_as_built_product(self):
        t1 = poly_twisted_component(2, 2, 1)
        loose = FracMonomialModule(t1.semigroup, t1.generators)
        other = veronese_component(2, 3, 2, 1)
        for lhs, rhs in ((t1, loose), (t1, other)):
            with pytest.raises(ValueError):
                twisted_products(lhs, rhs, 2)
            with pytest.raises(ValueError):
                twisted_product_memberships(rhs, 2, [(lhs, (0, 0))])


def _random_semigroup(rng, p):
    """Dimension 1-5 with up to two congruences: an exact one (m = 0) with
    weights of both signs where the dimension allows, or one modulo an m
    that often shares a factor with p."""
    dim = rng.randint(1, 5)
    congruences = []
    for _ in range(rng.randint(0, 2)):
        weights = [rng.randint(-3, 3) for _ in range(dim)]
        if rng.random() < 0.5:
            if dim > 1:
                weights[0], weights[-1] = rng.randint(1, 3), -rng.randint(1, 3)
            modulus = 0
        else:
            modulus = p * rng.randint(1, 3) if rng.random() < 0.5 else rng.randint(1, 9)
        congruences.append((weights, modulus))
    return SemigroupSpec(dim, congruences)


def _near(rng, semigroup, v):
    """v moved by an admissible step, by noise, or not at all."""
    roll = rng.random()
    if roll < 0.2:
        return tuple(v)
    if roll < 0.6:
        for _ in range(20):
            step = [rng.randint(0, 3) for _ in v]
            if semigroup.admissible(step):
                return tuple(x + s for x, s in zip(v, step))
    return tuple(x + rng.randint(-2, 2) for x in v)


def _random_gens(rng, semigroup, low=0):
    return [tuple(rng.randint(-6, 6) for _ in range(semigroup.dim))
            for _ in range(rng.randint(low, 10))]


def _product_instance(rng):
    """(lhs, rhs, p, v): q = p^e1 up to p^4, v near a generator sum
    ga + q*gb or drawn freely."""
    p = rng.choice((2, 3, 5))
    semigroup = _random_semigroup(rng, p)
    lhs = FracMonomialModule(semigroup, _random_gens(rng, semigroup), rng.randint(0, 4))
    rhs = FracMonomialModule(semigroup, _random_gens(rng, semigroup), rng.randint(0, 2))
    q = p ** lhs.degree
    if lhs.generators and rhs.generators and rng.random() < 0.9:
        ga, gb = rng.choice(lhs.generators), rng.choice(rhs.generators)
        v = _near(rng, semigroup, [a + q * b for a, b in zip(ga, gb)])
    else:
        v = tuple(rng.randint(-12, 12) for _ in range(semigroup.dim))
    return lhs, rhs, p, v


def _module_instance(rng):
    """A module where some generators are admissible steps above others."""
    p = rng.choice((2, 3, 5))
    semigroup = _random_semigroup(rng, p)
    gens = _random_gens(rng, semigroup, low=1)
    gens += [_near(rng, semigroup, rng.choice(gens)) for _ in range(rng.randint(0, 8))]
    return FracMonomialModule(semigroup, gens, 1)


def _probe_instance(rng):
    """(comps, p): components of degrees 1..emax, emax 2 or 3, over one
    semigroup; each degree-e generator drawn freely or near a twisted
    product of lower components.  Half the time the degree-2 component
    holds (p+1)*a for a degree-1 generator a, so the degree-3 products
    a + p*(p+1)*a and (p+1)*a + p^2*a of the two splits repeat."""
    p = rng.choice((2, 3, 5))
    semigroup = _random_semigroup(rng, p)
    comps = []
    for e in range(1, rng.randint(2, 3) + 1):
        gens = _random_gens(rng, semigroup, low=1)
        if e == 2 and rng.random() < 0.5:
            gens.append(tuple((p + 1) * x for x in rng.choice(comps[0].generators)))
        products = [h for e1 in range(1, e)
                    for h in twisted_products(comps[e1 - 1], comps[e - e1 - 1], p)]
        gens += [_near(rng, semigroup, rng.choice(products))
                 for _ in range(rng.randint(0, 6) if products else 0)]
        comps.append(FracMonomialModule(semigroup, gens, e))
    return comps, p


def _repeats_a_product(comps, p) -> bool:
    for e in range(2, len(comps) + 1):
        products = [h for e1 in range(1, e)
                    for h in twisted_products(comps[e1 - 1], comps[e - e1 - 1], p)]
        if len(set(products)) < len(products):
            return True
    return False


class TestProbeOracle:
    """fractional_fingen_probe, which asks a dominance index over the
    products, against the pair scan it replaced (tests/monomial_oracle.py)."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_probe_matches_scan(self, rng):
        """The random components are not closed under the twisted product,
        which the library's loop needs to take only new generators as left
        factors, so the index is checked here on the earlier loop, which
        takes all of them, as the pair scan does."""
        comps, p = _probe_instance(rng)
        with probe_oracle.every_left_factor():
            rows = fractional_fingen_probe(comps, p, degree=sum).rows
        assert rows == monomial_oracle.fractional_fingen_probe(comps, p, degree=sum).rows

    def test_instances_reach_every_case(self):
        rng = random.Random(33)
        instances = [_probe_instance(rng) for _ in range(300)]
        reports = [fractional_fingen_probe(comps, p) for comps, p in instances]
        congruences = [m for comps, _ in instances
                       for _, m in comps[0].semigroup.congruences]
        assert 0 in congruences and any(m > 0 for m in congruences)
        assert any(min(g) < 0 for comps, _ in instances for g in comps[-1].generators)
        # some rows have products reaching a generator, some have none
        assert any(r.new_gen_count < r.min_gen_count for rep in reports for r in rep.rows[1:])
        assert any(r.new_gen_count == r.min_gen_count for rep in reports for r in rep.rows[1:])
        assert 0.1 < sum(_repeats_a_product(comps, p) for comps, p in instances) / 300 < 0.9

    @pytest.mark.parametrize("p, emax", [(2, 5), (3, 3)])
    def test_segre_rows_match_scan(self, p, emax):
        comps = [segre_component_2x3(p, e).minimalize() for e in range(1, emax + 1)]
        assert fractional_fingen_probe(comps, p, degree=sum).rows == \
            monomial_oracle.fractional_fingen_probe(comps, p, degree=sum).rows

    def test_index_holds_distinct_products(self):
        """Each degree's index is built over the distinct products whose
        left factors are the new generators of their degree (all of
        degree 1), and the rows still equal the pair scan's.  The Segre
        products at p=2 do not repeat; in the small free-semigroup instance
        two degree-1 generators reach one degree-3 product, (2,0) + 2*(0,1)
        = (0,2) + 2*(1,0)."""
        semigroup = free_semigroup(2)
        repeating = [FracMonomialModule(semigroup, gens, e) for e, gens in enumerate(
            ([(2, 0), (0, 2)], [(1, 0), (0, 1)], [(0, 0), (2, 2), (3, 3)]), start=1)]
        segre = [segre_component_2x3(2, e).minimalize() for e in range(1, 6)]
        for comps, repeats_expected in ((segre, False), (repeating, True)):
            p, emax = 2, len(comps)
            built = []
            init = _Dominance.__init__

            def recording(self, generators, congruences):
                built.append(list(generators))
                init(self, generators, congruences)

            with patch.object(_Dominance, "__init__", recording):
                rows = fractional_fingen_probe(comps, p, degree=sum).rows
            assert len(built) == emax - 1
            new, repeats = {1: comps[0].generators}, 0
            for e, generators in enumerate(built, start=2):
                products = [h for e1 in range(1, e) for h in twisted_products(
                    FracMonomialModule(comps[0].semigroup, new[e1], e1), comps[e - e1 - 1], p)]
                assert len(generators) == len(set(products))
                assert set(generators) == set(products)
                repeats += len(products) - len(generators)
                admissible = comps[e - 1].semigroup.admissible
                new[e] = [g for g in comps[e - 1].generators
                          if not any(admissible([a - b for a, b in zip(g, h)]) for h in products)]
                assert len(new[e]) == rows[e - 1].new_gen_count
            assert (repeats > 0) == repeats_expected
            assert rows == monomial_oracle.fractional_fingen_probe(comps, p, degree=sum).rows


class TestDominanceOracle:
    """The dominance index against the pair scans it replaced
    (tests/monomial_oracle.py) and against `admissible` itself."""

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_below_is_the_admissible_set(self, rng):
        lhs, rhs, p, v = _product_instance(rng)
        index = _Dominance(rhs.generators, rhs.semigroup.congruences)
        q = p ** lhs.degree
        for r in [v] + [tuple(x - a for x, a in zip(v, ga)) for ga in lhs.generators]:
            expected = sum(1 << i for i, g in enumerate(rhs.generators)
                           if rhs.semigroup.admissible([x - q * b for x, b in zip(r, g)]))
            assert index.below(r, q) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_product_contains_matches_oracle(self, rng):
        lhs, rhs, p, v = _product_instance(rng)
        assert twisted_product_memberships(rhs, p, [(lhs, v)])[0] == \
            monomial_oracle.twisted_product_contains(lhs, rhs, p, v)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_minimalize_matches_oracle(self, rng):
        module = _module_instance(rng)
        assert module.minimalize() == monomial_oracle.minimalize(module)

    def test_instances_reach_both_answers(self):
        rng = random.Random(31)
        answers = [twisted_product_memberships(rhs, p, [(lhs, v)])[0]
                   for lhs, rhs, p, v in (_product_instance(rng) for _ in range(400))]
        assert 0.2 < sum(answers) / len(answers) < 0.8
        rng = random.Random(32)
        dropped = [len(m.generators) - len(m.minimalize().generators)
                   for m in (_module_instance(rng) for _ in range(200))]
        assert 0.2 < sum(map(bool, dropped)) / len(dropped) < 0.9

    def test_wrong_length_vector_raises(self):
        t1 = poly_twisted_component(2, 2, 1)
        for v in ((0,), (0, 0, 0)):
            with pytest.raises(ValueError, match="wrong length"):
                twisted_product_memberships(t1, 2, [(t1, v)])
            with pytest.raises(ValueError, match="wrong length"):
                t1.contains(v)
