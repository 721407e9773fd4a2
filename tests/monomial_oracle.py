"""Reference membership scans for fractional monomial modules, as they were
before the dominance index.

`twisted_product_contains` and `minimalize` below are the earlier code,
unchanged except that `minimalize` is a function of the module instead of
a method.  Both test every generator pair with the semigroup's
`admissible` predicate: one call per `(ga, gb)` pair for a product, one per
ordered pair of distinct generators for a minimalization.  The tests
compare the library's index against them on random semigroups.
"""

from __future__ import annotations

from typing import Sequence

from frobtool.monomials import FracMonomialModule, _twist


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
