"""Reference code for fractional monomial modules, as it was before the
dominance index and before the components were emitted in order.

`twisted_product_contains` and `minimalize` below are the earlier code,
unchanged except that `minimalize` is a function of the module instead of
a method.  Both test every generator pair with the semigroup's
`admissible` predicate: one call per `(ga, gb)` pair for a product, one per
ordered pair of distinct generators for a minimalization.  The tests
compare the library's index against them on random semigroups.

`frac_twisted_product` builds the twisted product as a module, from the
library's `twisted_products`, so a test can ask the module's own
`contains` about it.

`fractional_fingen_probe` is the earlier probe, unchanged: its `outside`
tests every generator against every twisted product of lower components
with `admissible`, and it runs on the earlier probe loop,
`probe_oracle.generation_report`, whose products take every generator of
a lower component as a left factor.  The tests require the library's
probe, which asks a dominance index over the products of the new left
factors instead, to give the same rows.

`segre_component_2x3` and `poly_twisted_component` are the earlier
builders, unchanged: each hands its generators to the validating
constructor, which sorts them.  The tests require the library's in-order
builders to give the same generator tuples, order included.
"""

from __future__ import annotations

from operator import sub
from typing import Sequence

from frobtool.frobenius import FinGenReport
from frobtool.monomials import (
    FracMonomialModule,
    _twist,
    free_semigroup,
    segre_semigroup_2x3,
    twisted_products,
)
from frobtool.polyring import monomials_of_weighted_degree

from probe_oracle import generation_report


def frac_twisted_product(lhs: FracMonomialModule, rhs: FracMonomialModule,
                         p: int) -> FracMonomialModule:
    """The twisted product of lhs (degree e1) and rhs as a module: the
    generators g_a + p^{e1} * g_b, sorted and deduplicated."""
    return FracMonomialModule(lhs.semigroup, twisted_products(lhs, rhs, p),
                              lhs.degree + rhs.degree)


def twisted_product_contains(lhs: FracMonomialModule, rhs: FracMonomialModule,
                             p: int, v: Sequence[int]) -> bool:
    """frac_twisted_product(lhs, rhs, p).contains(v), tested pair by pair
    without building the product module."""
    q1 = _twist(lhs, rhs, p)
    adm = lhs.semigroup.admissible
    v = tuple(int(x) for x in v)
    for ga in lhs.generators:
        r = tuple(x - a for x, a in zip(v, ga))
        if any(adm(tuple(x - q1 * b for x, b in zip(r, gb))) for gb in rhs.generators):
            return True
    return False


def minimalize(self: FracMonomialModule) -> FracMonomialModule:
    """Drop generators reachable from another generator."""
    adm = self.semigroup.admissible
    gens = list(self.generators)
    kept = []
    for i, g in enumerate(gens):
        dominated = False
        for j, h in enumerate(gens):
            if i == j:
                continue
            diff = tuple(a - b for a, b in zip(g, h))
            if adm(diff) and any(diff):
                dominated = True
                break
        if not dominated:
            kept.append(g)
    return FracMonomialModule(self.semigroup, kept, self.degree)


def fractional_fingen_probe(comps, p: int, degree=None) -> FinGenReport:
    """Generation probe on fractional monomial components: comps[e - 1] is
    the degree-e component, a FracMonomialModule of degree e.  A degree-e
    generator g is new when no twisted product h of lower components
    leaves g - h admissible.  degree is as in generation_report."""
    if [c.degree for c in comps] != list(range(1, len(comps) + 1)):
        raise ValueError("the components must have degrees 1, 2, ..., emax")

    def outside(e, products):
        products = set(products)
        admissible = comps[e - 1].semigroup.admissible
        return [g for g in comps[e - 1].generators
                if not any(admissible(tuple(map(sub, g, h))) for h in products)]

    return generation_report(
        p, [c.generators for c in comps],
        lambda e1, e2: twisted_products(comps[e1 - 1], comps[e2 - 1], p),
        outside, degree)


def poly_twisted_component(d: int, p: int, e: int) -> FracMonomialModule:
    """Degree-e component for a standard graded polynomial ring in d
    variables: all monomials of total degree p^e - 1."""
    semigroup = free_semigroup(d)
    if e == 0:
        return FracMonomialModule(semigroup, [(0,) * d], 0)
    return FracMonomialModule(semigroup, monomials_of_weighted_degree((1,) * d, p ** e - 1), e)


def segre_component_2x3(p: int, e: int) -> FracMonomialModule:
    """Degree-e component for the 2x3 Segre/determinantal ring: the span of
    1/((st)^{q-1} x^k y^l z^m) with k+l+m = 2q-2 and k,l,m <= q-1."""
    if e < 0:
        raise ValueError("Frobenius degree must be non-negative")
    q = p ** e
    semigroup = segre_semigroup_2x3()
    gens = []
    for k in range(q):
        for l in range(q):
            m = 2 * q - 2 - k - l
            if 0 <= m <= q - 1:
                gens.append((-(q - 1), -(q - 1), -k, -l, -m))
    return FracMonomialModule(semigroup, gens, e)
