"""Reference generation probe: the Groebner probe as it was before the
twisted products joined the components' echelon.

`fingen_probe` below is the earlier code, unchanged.  Its `outside` step
builds the ideal I^[q] + (twisted products of the full lower components)
and minimalizes the degree-e generators modulo it, so `minimal_generators_mod`
runs a Buchberger on that ideal to get its reducer.  The tests compare the
library's probe with it row for row.
"""

from __future__ import annotations

from typing import Optional

from frobtool.frobenius import (
    ProbeResult,
    component,
    generation_report,
    product_component,
)
from frobtool.groebner import Ideal, minimal_generators_mod
from frobtool.polyring import Polynomial


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
