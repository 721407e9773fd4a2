import contextlib
from unittest.mock import patch

import pytest

from frobtool import frobenius, groebner, polyring
from frobtool.groebner import Ideal
from frobtool.monomials import MonomialIdeal
from frobtool.parsing import parse_polynomial
from frobtool.polyring import Polynomial, PrimeField, RingSpec


@pytest.fixture
def gf2_xyz():
    return RingSpec(PrimeField(2), ("x", "y", "z"))


@pytest.fixture
def minors():
    ring = RingSpec(PrimeField(2), ("u", "v", "w", "x", "y", "z"))
    gens = tuple(parse_polynomial(src, ring)
                 for src in ("v*z - w*y", "w*x - u*z", "u*y - v*x"))
    return ring, Ideal(ring, gens)


def minors_over(p):
    ring = RingSpec(PrimeField(p), ("u", "v", "w", "x", "y", "z"))
    gens = tuple(parse_polynomial(src, ring)
                 for src in ("v*z - w*y", "w*x - u*z", "u*y - v*x"))
    return ring, Ideal(ring, gens)


def random_monomial(rng, nvars, max_exp=3):
    return tuple(rng.randint(0, max_exp) for _ in range(nvars))


def random_poly(ring, rng, max_terms=3, max_exp=3, homogeneous=None):
    p = ring.field.p
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[random_monomial(rng, ring.nvars, max_exp)] = rng.randint(1, p - 1) if p > 2 else 1
    poly = Polynomial(ring, terms)
    return poly


def random_monomial_ideal(ring, rng, max_gens=3, max_exp=3):
    gens = [ring.monomial(random_monomial(rng, ring.nvars, max_exp))
            for _ in range(rng.randint(1, max_gens))]
    gens = [g for g in gens if g.weighted_degree() > 0]
    if not gens:
        gens = [ring.variable(ring.variables[0])]
    return Ideal(ring, gens)


def random_binomial_ideal(ring, rng, max_gens=3, max_exp=2):
    p = ring.field.p
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        a = random_monomial(rng, ring.nvars, max_exp)
        b = random_monomial(rng, ring.nvars, max_exp)
        if a == b:
            continue
        c = rng.randint(1, p - 1)
        gens.append(Polynomial(ring, {a: 1, b: -c}))
    if not gens:
        gens = [ring.variable(ring.variables[0])]
    return Ideal(ring, gens)


def reordered(ideal, order):
    """A copy of `ideal` in a copy of its ring with the monomial order `order`."""
    r = ideal.ring
    ring = RingSpec(r.field, r.variables, r.weights, order)
    return Ideal(ring, [Polynomial(ring, g.terms) for g in ideal.generators])


def as_monomial_ideal(ideal):
    return MonomialIdeal(ideal.ring, [g.leading_monomial() for g in ideal.generators])


def minimal_forms_with(cands, modulus, products, degree_guard=None):
    """minimal_generators_mod(cands, modulus, degree_guard) with the twisted
    products a*b^(q1) of the triples (a, q1, b) of nonzero homogeneous
    polynomials in the submodule, through the core the probe calls: each
    triple enters groebner._minimal_forms packed, as (deg a + q1*deg b,
    a, q1, b), and a polynomial h of the submodule is the triple (h, 1, 1).
    Every term of a candidate is looked up, as minimal_generators_mod does."""
    top = max([0] + [g.weighted_degree() for g in cands if not g.is_zero()])
    # wide enough for every factor; _minimal_forms forms no product above top
    pk = polyring._packing(modulus.ring, max([top] + [h.weighted_degree()
                                                      for a, _, b in products for h in (a, b)]))
    packed = [(a.weighted_degree() + q1 * b.weighted_degree(), pk.pack_terms(a.terms), q1,
               pk.pack_terms(b.terms)) for a, q1, b in products]
    forms = groebner._minimal_forms(pk, groebner._packed_candidates(cands, pk), packed,
                                    modulus, degree_guard, False)
    return [pk.polynomial(form.items()).monic() for _, _, form in forms]


@contextlib.contextmanager
def spare_bits():
    """Every packing that groebner and frobenius ask for made SPARE_BITS
    bits wider than the bound they ask for, as `_packing` sized its fields
    before each call proved its bound: the width that the right-sized
    packings must agree with, step for step."""
    real = polyring._packing

    def wide(ring, degree, width=0):
        return real(ring, degree, max(width, real(ring, degree).width + polyring.SPARE_BITS))

    with patch.object(groebner, "_packing", wide), patch.object(frobenius, "_packing", wide):
        yield
