"""Reference generation probe: the Groebner probe as it was before the
twisted products joined the components' echelon.

`fingen_probe` below is the earlier code, unchanged.  Its `outside` step
builds the ideal I^[q] + (twisted products of the full lower components)
and minimalizes the degree-e generators modulo it, so `minimal_generators_mod`
runs a Buchberger on that ideal to get its reducer.  `product_component`
forms those products as polynomials through `twisted_mul`, the
polynomial the packed products of the library are compared against, and
`component_min_gens` is the earlier rule for a component's generators: a
second normal form of every survivor of a minimalization, the library's
or the slice oracle's.  The tests compare the library's probe and
components with them.
"""

from __future__ import annotations

from typing import Optional

from frobtool.frobenius import (
    FrobeniusComponent,
    ProbeResult,
    component,
    generation_report,
)
from frobtool.groebner import Ideal, colon, frobenius_power, minimal_generators_mod
from frobtool.polyring import Polynomial, RingMismatch

from order_oracle import key_function
from slice_oracle import slice_minimal_generators_mod


def twisted_mul(a: Polynomial, e1: int, b: Polynomial) -> Polynomial:
    """a * b for a of Frobenius degree e1: the product a * b^{p^{e1}}."""
    if a.ring != b.ring:
        raise RingMismatch("ring mismatch")
    return a * b.frobenius_power(e1)


def product_component(comp1: FrobeniusComponent, comp2: FrobeniusComponent):
    """All pairwise twisted products of the two components' generators."""
    return [twisted_mul(g, comp1.e, h) for g in comp1.min_gens for h in comp2.min_gens]


def slice_survivors(gens, modulus: Ideal, degree_guard: Optional[int] = None) -> list:
    """The surviving candidates of `slice_minimal_generators_mod`, after the
    basis of the modulus that the library's minimalization computes, so
    both meet the same guard aborts."""
    modulus.groebner_basis(degree_guard=degree_guard)
    return slice_minimal_generators_mod(gens, modulus)


def component_min_gens(ideal: Ideal, e: int, degree_guard: Optional[int] = None,
                       minimalize=minimal_generators_mod) -> tuple:
    """The generators of the degree-e component (e >= 1) by the earlier
    rule: the survivors of `minimalize(colon basis, I^[q], degree_guard)`,
    each replaced by its monic normal form modulo I^[q], sorted by weighted
    degree and then by leading monomial.  With the library's rule, the
    default, this only repeats what minimal_generators_mod returns;
    slice_survivors makes it independent of the library's echelon."""
    ring = ideal.ring
    # a reduced basis with a constant is (1)
    if any(g.weighted_degree() == 0 for g in ideal.groebner_basis(degree_guard)):
        raise ValueError("component computation needs a proper ideal")
    modulus = frobenius_power(ideal, e)
    col = colon(modulus, ideal, degree_guard)
    raw = minimalize(col.groebner_basis(degree_guard=degree_guard), modulus, degree_guard)
    key = key_function(ring)
    return tuple(sorted((modulus.normal_form(g, degree_guard=degree_guard).monic()
                         for g in raw),
                        key=lambda g: (g.weighted_degree(), key(g.leading_monomial()))))


def fingen_probe(ideal: Ideal, emax: int, degree_guard: Optional[int] = None) -> ProbeResult:
    """Generation probe on the Groebner path: for each e >= 2, the degree-e
    generators are minimalized modulo the ideal generated by I^[q] and all
    twisted products of full lower components."""
    if emax < 1:
        raise ValueError("emax must be >= 1")
    ring = ideal.ring
    comps = tuple(component(ideal, e, degree_guard) for e in range(1, emax + 1))
    report = generation_report(
        ring.field.p, [c.min_gens for c in comps],
        lambda e1, e2: product_component(comps[e1 - 1], comps[e2 - 1]),
        lambda e, products: minimal_generators_mod(
            comps[e - 1].min_gens,
            Ideal(ring, tuple(comps[e - 1].modulus.generators) + tuple(products)),
            degree_guard),
        degree=Polynomial.weighted_degree)
    return ProbeResult(report, comps)
