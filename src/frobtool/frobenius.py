"""Graded components of the Frobenius-operator algebra of A/I.

The degree-e component is presented as (I^[q] : I) / I^[q] with q = p^e,
carrying the twisted multiplication a * b^{q1} on colon representatives.
This module builds components, multiplies them, probes finite generation
degree by degree, and reports generator-degree growth.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple, Optional

from .groebner import (
    DEFAULT_DEGREE_GUARD,
    Ideal,
    frobenius_power,
    _chain_bound,
    _colon,
    _collector_paused,
    _entry_dict,
    _guard_context,
    _minimal_forms,
    _packed_candidates,
)
from .monomials import (
    FracMonomialModule,
    MonomialIdeal,
    _Dominance,
    free_semigroup,
    mono_colon,
    mono_frobenius_power,
    twisted_products,
)
from .polyring import _packing


class FrobeniusComponent(NamedTuple):
    """Degree-e component, q = p^e: the colon ideal I^[q]:I, the modulus
    I^[q], and minimal generator representatives in ascending weighted
    degree."""

    e: int
    q: int
    colon: Ideal
    modulus: Ideal
    min_gens: tuple


class DegreeRecord(NamedTuple):
    e: int
    q: int
    min_gen_count: int
    new_gen_count: int
    max_gen_degree: int
    generated_from_lower: bool


class FinGenReport(NamedTuple):
    """Per-degree finite-generation evidence.

    Degree 1 is "not generated from lower" by convention (no positive
    splits exist).  A probe is evidence, never proof; the first degree
    needing new generators is recorded, and flags above it are relative to
    full lower components.
    """

    p: int
    emax: int
    rows: tuple

    @property
    def first_new_degree(self) -> Optional[int]:
        for row in self.rows:
            if row.e >= 2 and row.new_gen_count > 0:
                return row.e
        return None

    def row(self, e: int) -> DegreeRecord:
        if not 1 <= e <= self.emax:
            raise ValueError(f"no row for e={e}: the probe ran e=1..{self.emax}")
        return self.rows[e - 1]


@_collector_paused
def component(ideal: Ideal, e: int, degree_guard: Optional[int] = None) -> FrobeniusComponent:
    """The degree-e component of the operator algebra of A/I.

    Its generators are those of minimal_generators_mod of the colon's basis
    modulo I^[q]: the monic normal forms of the survivors, by weighted
    degree and then by leading monomial.  No basis of I is computed:
    weights are positive, so a homogeneous I is proper exactly when no
    generator is a nonzero constant.  A degree-guard abort names e, q and
    the step it happened in: the colon or the basis of I^[q].

    The colon chain hands its reduced basis back packed as well, and the
    minimalization takes those entries as they are, so the basis is
    neither unpacked nor packed on the way; it looks up only each lead in
    the index of I^[q]: the colon contains I^[q], so no tail term of its
    reduced basis is reducible.  A colon from the memo or the store is
    only polynomials, and the store does not check that tails are reduced,
    so those are packed and every term is looked up.  A generator that
    needed no reduction is a monic colon basis element, and is returned as
    the colon's own polynomial; only the reduced ones are unpacked and made
    monic.
    """
    return _component(ideal, e, degree_guard)[0]


def _component(ideal: Ideal, e: int, degree_guard: Optional[int], pk=None):
    """component(ideal, e, degree_guard), returned with (pk, its generators
    as `_minimal_forms` returned them in pk), or with None for e = 0.  pk
    is the given packing of the ring; without one, the colon's own, or on
    a memo or store hit one for the colon's top degree, which no form of
    the minimalization exceeds."""
    ring = ideal.ring
    p = ring.field.p
    if e < 0:
        raise ValueError("Frobenius degree must be non-negative")
    if not ideal.is_homogeneous():
        raise ValueError("component computation needs a homogeneous ideal")
    if any(g.weighted_degree() == 0 for g in ideal.generators):
        raise ValueError("component computation needs a proper ideal")
    q = p ** e
    if e == 0:
        unit = Ideal(ring, (ring.one(),))
        return FrobeniusComponent(0, 1, unit, ideal, (ring.one(),)), None
    modulus = frobenius_power(ideal, e)
    with _guard_context(f"the colon I^[q]:I of component e={e} (q={q})"):
        col, packed = _colon(modulus, ideal, degree_guard, pk.width if pk else 0, True)
    basis = col.generators  # its reduced basis, distinct and nonzero
    if packed is not None and (pk is None or packed[0].width == pk.width):
        pk, entries = packed
        cands = [(pk.degree(entry[0]), entry[0], _entry_dict(entry)) for entry in entries]
    else:  # a memo or store hit
        pk = pk or _packing(ring, max([0] + [g.weighted_degree() for g in basis]))
        cands = _packed_candidates(basis, pk)
    with _guard_context(f"the basis of I^[q] of component e={e} (q={q})"):
        forms = _minimal_forms(pk, cands, (), modulus, degree_guard, packed is not None)
    # a survivor that needed no reduction keeps its candidate's form
    own = {id(form): g for (_, _, form), g in zip(cands, basis)}
    min_gens = tuple(own.get(id(form)) or pk.polynomial(form.items(), descending=True).monic()
                     for _, _, form in forms)
    return FrobeniusComponent(e, q, col, modulus, min_gens), (pk, forms)


def generation_report(p: int, gens, product, outside, degree=None) -> FinGenReport:
    """The degree-by-degree generation probe, shared by every path.

    gens[e - 1] holds the minimal generators of the degree-e component.
    For each e >= 2, outside(e, products) returns the degree-e generators
    that are new: not in the span of the products (and of I^[q]), which it
    gets as one iterable to be read once; the degree is generated from
    lower exactly when none are.  The products are those of every split
    e = e1 + e2 with only the new generators N_e1 of degree e1 as left
    factors, and every one of degree 1: product(e1, left, e2) yields the
    twisted products of the degree-e1 generators `left`, each as gens or
    outside holds it, with every degree-e2 generator, in the form that
    outside reads (the Groebner path passes factors).  degree(g) is a
    generator's weighted degree; without it the maximum degree is recorded
    as 0.

    The products of N_e1 and C_(e-e1), the degree-(e-e1) component, span
    what those of all of C_e1 span, modulo I^[q], so the rows are those of
    every left factor.  By induction on e1: C_e1 is spanned by N_e1, the
    products of lower splits of e1 and I^[q1] (q1 = p^e1), and three facts
    carry each part to degree e: the twisted product a*b = a*b^(q1) is
    associative, so (x*y)*b = x*(y*b) with y*b in a lower split's right
    component; it is left R-linear, (r*a)*b = r*(a*b); and h*b^(q1) lies
    in I^[q] for h in I^[q1], since b*I lies in I^[q/q1].  So gens must be
    closed under the twisted product, as the components of an algebra
    are: on modules that are not, the rows may differ from those of every
    left factor.
    """
    rows, left = [], []  # left[e - 1]: the degree-e generators that are new
    for e, comp in enumerate(gens, start=1):
        if e == 1:
            new = comp  # no positive splits: every generator is new
        else:
            new = outside(e, itertools.chain.from_iterable(
                product(e1, left[e1 - 1], e - e1) for e1 in range(1, e)))
        left.append(new)
        top = max(map(degree, comp), default=0) if degree else 0
        rows.append(DegreeRecord(e, p ** e, len(comp), len(new), top, e > 1 and not new))
    return FinGenReport(p, len(gens), tuple(rows))


class ProbeResult(NamedTuple):
    report: FinGenReport
    components: tuple


@_collector_paused
def fingen_probe(ideal: Ideal, emax: int, degree_guard: Optional[int] = None) -> ProbeResult:
    """Generation probe on the Groebner path: for each e >= 2, the degree-e
    generators are minimalized modulo I^[q] together with the twisted
    products a*b^(q1) of lower components, where a runs over the new
    generators of its degree and b over all generators of its own
    (generation_report: the span, and so every row, is that of all
    products).  Each product is formed from its packed factors, and only
    when its degree deg a + q1*deg b is at most the top generator degree.
    The products join the echelon of normal forms modulo I^[q] that the
    minimalization builds anyway (`_minimal_forms`), so no basis of I^[q] +
    (products) is computed, and degree_guard only reaches the components
    and the bases of the moduli I^[q].  A guard that aborted a Buchberger
    run on I^[q] + (products) may therefore let the probe finish, never
    the other way round.

    The whole probe runs in one packing of the ring, wide enough for every
    colon it computes, so each colon hands its basis over packed, and each
    component's generators stay the (degree, lead, form) triples that
    `_minimal_forms` returned, as the next degrees' candidates and product
    factors.  Being normal forms modulo I^[q], only their leads are looked
    up, and the new ones come back as the same triples."""
    if emax < 1:
        raise ValueError("emax must be >= 1")
    ring = ideal.ring
    guard = DEFAULT_DEGREE_GUARD if degree_guard is None else degree_guard
    # the colon chain of the top degree has the largest bound, so every
    # colon's packed basis arrives in this packing; one of another width
    # would be packed from its polynomials
    pk = _packing(ring, _chain_bound(frobenius_power(ideal, emax).generators,
                                     ideal.generators, guard))
    comps, forms = [], []  # forms[e - 1]: the packed (degree, lead, form) of comps[e - 1]
    for e in range(1, emax + 1):
        comp, (_, comp_forms) = _component(ideal, e, degree_guard, pk)
        comps.append(comp)
        forms.append(comp_forms)
    report = generation_report(
        ring.field.p, forms,
        lambda e1, left, e2: [(d + comps[e1 - 1].q * dh, a, comps[e1 - 1].q, b)
                              for d, _, a in left for dh, _, b in forms[e2 - 1]],
        lambda e, products: _minimal_forms(
            pk, forms[e - 1], products, comps[e - 1].modulus, degree_guard, True),
        degree=itemgetter(0))
    return ProbeResult(report, tuple(comps))


def degree_growth(report: FinGenReport):
    """Max generator degree per probe row and its ratio to q = p^e (the
    empirical growth constant)."""
    return [(r.e, r.max_gen_degree, Fraction(r.max_gen_degree, r.q)) for r in report.rows]


def fractional_fingen_probe(comps, p: int, degree=None) -> FinGenReport:
    """Generation probe on fractional monomial components: comps[e - 1] is
    the degree-e component, a FracMonomialModule of degree e.  A degree-e
    generator g is new when no twisted product h of lower components
    leaves g - h admissible: one dominance index over the distinct products
    of degree e answers that with one query per generator.  degree is as in
    generation_report."""
    if [c.degree for c in comps] != list(range(1, len(comps) + 1)):
        raise ValueError("the components must have degrees 1, 2, ..., emax")

    def outside(e, products):
        below = _Dominance(list(set(products)), comps[e - 1].semigroup.congruences).below
        return [g for g in comps[e - 1].generators if not below(g, 1)]

    return generation_report(p, [c.generators for c in comps],
                             _fractional_products(comps, p), outside, degree)


def _fractional_products(comps, p: int):
    """generation_report's product over the fractional components comps
    (comps[e - 1] of degree e): the twisted products of the generators
    `left` of comps[e1 - 1], in its order, with every one of comps[e2 - 1]."""
    return lambda e1, left, e2: twisted_products(
        FracMonomialModule._from_sorted(comps[e1 - 1].semigroup, left, e1), comps[e2 - 1], p)


def monomial_fingen_probe(ideal: MonomialIdeal, emax: int) -> FinGenReport:
    """Generation probe along the pure monomial path (independent oracle).

    Colons, Frobenius powers and twisted products of monomial data reduce
    to exponent arithmetic: the degree-e generators, those of I^[q]:I
    outside I^[q], form a module over N^n, where g - h is admissible
    exactly when h divides g.  Counts and flags come from divisibility
    alone; results must agree with fingen_probe on the same input.
    """
    if not isinstance(ideal, MonomialIdeal):
        raise TypeError("monomial probe needs a MonomialIdeal")
    if emax < 1:
        raise ValueError("emax must be >= 1")
    ring = ideal.ring
    semigroup = free_semigroup(ring.nvars)
    comps = []
    for e in range(1, emax + 1):
        iq = mono_frobenius_power(ideal, e)
        gens = [g for g in mono_colon(iq, ideal).generators if not iq.contains(g)]
        comps.append(FracMonomialModule(semigroup, gens, e))
    return fractional_fingen_probe(comps, ring.field.p, degree=ring.weighted_degree)


def qgor_expected_bound(m: int, p: int) -> Optional[int]:
    """Least e0 >= 1 with p^{e0} = 1 mod m, or None when p divides m
    (no generation bound is expected there)."""
    if m < 1:
        raise ValueError("index must be >= 1")
    if m == 1:
        return 1
    if math.gcd(p, m) != 1:
        return None
    e0 = 1
    x = p % m
    while x != 1:
        x = x * p % m
        e0 += 1
    return e0
