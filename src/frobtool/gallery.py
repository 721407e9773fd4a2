"""Curated named models with machine-checkable expected outcomes.

Each case builds a ring and ideal, runs the relevant pipeline(s), and
returns a result whose expectations carry a name, pass/fail status, the
measured value, and a provenance tag: "identity" for exact closed-form
identities, "oracle" for values computed by an independent path and
frozen, "direct" for definitional checks.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import CASE_NAMES
from .frobenius import (
    FinGenReport,
    _fractional_products,
    degree_growth,
    fingen_probe,
    fractional_fingen_probe,
    generation_report,
    monomial_fingen_probe,
    qgor_expected_bound,
)
from .groebner import (
    DEFAULT_DEGREE_GUARD,
    Ideal,
    colon,
    frobenius_power,
    ideal_equal,
    ideal_power,
    lift_by_nzd,
    minimal_generators_mod,
)
from .monomials import (
    MonomialIdeal,
    poly_twisted_component,
    segre_component_2x3,
    twisted_product_memberships,
    veronese_component,
)
from .parsing import parse_polynomial
from .polyring import PrimeField, RingSpec
from .report import probe_rows


class Expectation(NamedTuple):
    name: str
    status: str
    measured: object
    provenance: str

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _expect(name: str, ok: bool, measured, provenance: str) -> Expectation:
    return Expectation(name, "pass" if ok else "fail", measured, provenance)


class CaseResult:
    """A case's parameters, expectations and report components."""

    def __init__(self, case: str, params: dict, expectations: Optional[list] = None,
                 components: Optional[list] = None):
        self.case = case
        self.params = params
        self.expectations = [] if expectations is None else expectations
        self.components = [] if components is None else components

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.expectations)


# --------------------------------------------------------------------------
# model builders

def minors_ideal(p: int):
    """The 2x3 generic-matrix minors ideal in GF(p)[u,v,w,x,y,z]."""
    ring = RingSpec(PrimeField(p), ("u", "v", "w", "x", "y", "z"))
    gens = tuple(parse_polynomial(src, ring)
                 for src in ("v*z - w*y", "w*x - u*z", "u*y - v*x"))
    return ring, Ideal(ring, gens)


def twisted_cubic_ideal(p: int):
    """Quotient presentation of the cubic Veronese of GF(p)[x,y]."""
    ring = RingSpec(PrimeField(p), ("a", "b", "c", "d"))
    gens = tuple(parse_polynomial(src, ring)
                 for src in ("a*c - b^2", "b*d - c^2", "a*d - b*c"))
    return ring, Ideal(ring, gens)


def katzman_ideal(p: int):
    ring = RingSpec(PrimeField(p), ("x", "y", "z"))
    gens = (parse_polynomial("x*y", ring), parse_polynomial("y*z", ring))
    return ring, Ideal(ring, gens)


def _report_signature(report: FinGenReport) -> list:
    return [(r.e, r.min_gen_count, r.new_gen_count, r.generated_from_lower)
            for r in report.rows]


# --------------------------------------------------------------------------
# cases

def fedder_identity_check(p: int = 2, degree_guard: Optional[int] = None) -> CaseResult:
    """Exact shape of the first Frobenius colon of the 2x3 minors ideal:
    I^[p]:I = I^{2p-2} + I^[p]; at p = 2, strict growth at q = p^2."""
    _, ideal = minors_ideal(p)
    result = CaseResult("fedder", {"p": p, "strictness": p == 2})
    modulus = frobenius_power(ideal, 1)
    lhs = colon(modulus, ideal, degree_guard)
    rhs = ideal_power(ideal, 2 * p - 2) + modulus
    equal = ideal_equal(lhs, rhs, degree_guard)
    result.expectations.append(_expect(
        f"colon_identity_q{p}", equal,
        {"lhs_basis": [str(g) for g in lhs.groebner_basis()],
         "rhs_basis": [str(g) for g in rhs.groebner_basis(degree_guard=degree_guard)]},
        "identity"))
    if p == 2:
        q = p * p
        modulus2 = frobenius_power(ideal, 2)
        lhs2 = colon(modulus2, ideal, degree_guard)
        rhs2 = ideal_power(ideal, 2 * q - 2) + modulus2
        contained = all(lhs2.contains(g, degree_guard) for g in rhs2.generators)
        extra = [str(g) for g in lhs2.groebner_basis()
                 if not rhs2.contains(g, degree_guard)]
        result.expectations.append(_expect(
            f"strict_containment_q{q}", contained and bool(extra),
            {"power_sum_contained": contained, "witnesses_outside": extra},
            "identity"))
    return result


def lift_family_check(p: int = 2, emax: int = 2,
                      degree_guard: Optional[int] = None) -> CaseResult:
    """The colon generator family of the minors ideal via nonzerodivisor
    lifts: for s + t <= q - 1, the product y^s z^t (D2 D3)^{q-1} lies in
    I^[q] + (x^{s+t}), its lift f_{s,t} satisfies x^{s+t} f = it mod I^[q],
    and the f_{s,t} generate the colon together with I^[q].  lift_by_nzd
    raises unless the first two hold, so only the third is checked here."""
    ring, ideal = minors_ideal(p)
    d2 = ideal.generators[1]
    d3 = ideal.generators[2]
    x = ring.variable("x")
    y = ring.variable("y")
    z = ring.variable("z")
    if emax < 1:
        raise ValueError("emax must be >= 1")
    result = CaseResult("lifts", {"p": p, "emax": emax})
    for e in range(1, emax + 1):
        q = p ** e
        modulus = frobenius_power(ideal, e)
        core = (d2 * d3) ** (q - 1)
        family = [((s, t), lift_by_nzd(y ** s * z ** t * core, x ** (s + t),
                                       modulus, degree_guard))
                  for s in range(q) for t in range(q - s)]
        # lift_by_nzd returns only once it has checked m*f = g mod I^[q], so g
        # lies in I^[q] + (m); otherwise it raises and no report is emitted
        result.expectations.append(_expect(
            f"memberships_q{q}", True,
            {"pairs": len(family)}, "identity"))
        result.expectations.append(_expect(
            f"lifts_verified_q{q}", True,
            {"pairs": len(family),
             "lifts": {f"s{s}_t{t}": str(f) for (s, t), f in family}}, "direct"))
        lhs = colon(modulus, ideal, degree_guard)
        rhs = modulus + Ideal(ring, [f for _, f in family])
        equal = ideal_equal(lhs, rhs, degree_guard)
        result.expectations.append(_expect(
            f"colon_generated_by_lifts_q{q}", equal,
            {"family_size": len(family),
             "measured_min_gen_count": len(minimal_generators_mod(
                 lhs.groebner_basis(degree_guard=degree_guard), modulus, degree_guard))},
            "identity"))
    return result


def katzman_case(p: int = 2, emax: int = 3,
                 degree_guard: Optional[int] = None) -> CaseResult:
    """The non-finitely-generated monomial model (x*y, y*z): the basis
    engine and the monomial oracle must agree degree by degree."""
    ring, ideal = katzman_ideal(p)
    result = CaseResult("katzman", {"p": p, "emax": emax})
    probe = fingen_probe(ideal, emax, degree_guard)
    mono = MonomialIdeal(ring, [g.leading_monomial() for g in ideal.generators])
    mono_report = monomial_fingen_probe(mono, emax)
    agree = _report_signature(probe.report) == _report_signature(mono_report)
    result.expectations.append(_expect(
        "paths_agree", agree,
        {"groebner": _report_signature(probe.report),
         "monomial_oracle": _report_signature(mono_report)},
        "oracle"))
    for e in range(2, emax + 1):
        row = probe.report.row(e)
        result.expectations.append(_expect(
            f"new_generators_e{e}", row.new_gen_count >= 1,
            {"new_gen_count": row.new_gen_count}, "oracle"))
    growth = degree_growth(probe.report)
    result.expectations.append(_expect(
        "degree_growth_bounded", all(r <= 3 for _, _, r in growth),
        {"ratios": [[e, d, str(r)] for e, d, r in growth]}, "oracle"))
    result.components = probe_rows(probe.report, probe.components)
    return result


def veronese_case(p: int = 2, emax: Optional[int] = None,
                  degree_guard: Optional[int] = None) -> CaseResult:
    """Cubic Veronese of a polynomial plane, both presentations.

    Path A: the twisted-cubic quotient presentation, full basis pipeline.
    Path B: fractional monomial components.  Per-degree minimal generator
    counts and generation flags must agree between paths.
    """
    if emax is None:
        emax = 2 if p == 7 else 3
    ring, ideal = twisted_cubic_ideal(p)
    if degree_guard is None:
        degree_guard = max(DEFAULT_DEGREE_GUARD, 12 * p ** emax)
    result = CaseResult("veronese", {"p": p, "emax": emax})

    xy = RingSpec(PrimeField(p), ("x", "y"))
    images = {
        "a": parse_polynomial("x^3", xy),
        "b": parse_polynomial("x^2*y", xy),
        "c": parse_polynomial("x*y^2", xy),
        "d": parse_polynomial("y^3", xy),
    }
    substituted = [g.substitute(images, xy) for g in ideal.generators]
    result.expectations.append(_expect(
        "presentation_substitution", all(s.is_zero() for s in substituted),
        {"images": {k: str(v) for k, v in images.items()}}, "direct"))

    probe = fingen_probe(ideal, emax, degree_guard)
    comps = [veronese_component(2, 3, p, e) for e in range(1, emax + 1)]
    sig_a = _report_signature(probe.report)
    sig_b = _report_signature(fractional_fingen_probe(comps, p))
    result.expectations.append(_expect(
        "paths_agree", sig_a == sig_b,
        {"groebner": sig_a, "monomial": sig_b,
         "monomial_components": {
             str(c.degree): [list(g) for g in c.generators] for c in comps}}, "oracle"))

    rows = probe.report.rows
    if p % 3 == 1:
        result.expectations.append(_expect(
            "cyclic_each_degree", all(r.min_gen_count == 1 for r in rows),
            {"counts": [r.min_gen_count for r in rows]}, "identity"))
        result.expectations.append(_expect(
            "generated_from_degree_1",
            all(r.generated_from_lower for r in rows if r.e >= 2),
            {"flags": [r.generated_from_lower for r in rows]}, "identity"))
        bound = qgor_expected_bound(3, p)
        result.expectations.append(_expect(
            "expected_bound", bound == 1, {"e0": bound}, "identity"))
    elif p % 3 == 2:
        bound = qgor_expected_bound(3, p)
        result.expectations.append(_expect(
            "expected_bound", bound == 2, {"e0": bound}, "identity"))
        result.expectations.append(_expect(
            "generated_from_degrees_le_2",
            all(r.generated_from_lower for r in rows if r.e >= 3),
            {"flags": [r.generated_from_lower for r in rows]}, "identity"))
        if p == 2:
            result.expectations.append(_expect(
                "counts_p2", [r.min_gen_count for r in rows][:3] == [3, 1, 3][:emax],
                {"counts": [r.min_gen_count for r in rows]}, "oracle"))
            if emax >= 2:
                result.expectations.append(_expect(
                    "new_generator_at_e2", rows[1].new_gen_count >= 1,
                    {"new_gen_count": rows[1].new_gen_count}, "oracle"))
    else:  # p == 3: the index is a multiple of the characteristic
        result.expectations.append(_expect(
            "expected_bound_undefined", qgor_expected_bound(3, p) is None,
            {"e0": None}, "identity"))
        result.expectations.append(_expect(
            "counts_p3", all(r.min_gen_count == 2 for r in rows),
            {"counts": [r.min_gen_count for r in rows]}, "identity"))
        result.expectations.append(_expect(
            "new_generators_every_degree",
            all(r.new_gen_count >= 1 for r in rows),
            {"new": [r.new_gen_count for r in rows]}, "identity"))
    result.components = probe_rows(probe.report, probe.components)
    return result


def _segre_witness(p: int, e: int):
    q = p ** e
    return (-(q - 1), -(q - 1), -(q - 2), -(q - q // p), -(q // p))


def _twisted_witness(p: int, e: int):
    q = p ** e
    return (1, q // p - 1, q - q // p - 1)


def _splits_excluded(comps: dict, witnesses: dict, p: int) -> dict:
    """For each degree e of witnesses, per split e = e1 + e2 in order of e1,
    whether witnesses[e] lies outside the product of the degree-e1 and
    degree-e2 components.  The splits are answered one right-hand
    component at a time, each in one batch over its single index."""
    excluded = {e: [None] * (e - 1) for e in witnesses}
    for e2 in range(1, max(witnesses, default=1)):
        degrees = [e for e in witnesses if e > e2]
        inside = twisted_product_memberships(
            comps[e2], p, [(comps[e - e2], witnesses[e]) for e in degrees])
        for e, found in zip(degrees, inside):
            excluded[e][e - e2 - 1] = not found
    return excluded


def determinantal_case(p: int = 2, emax_groebner: int = 2, emax_monomial: int = 4,
                       degree_guard: Optional[int] = None) -> CaseResult:
    """The 2x3 determinantal ring on both presentations.

    Path A: minors ideal, basis pipeline, generation probe.  Path B: the
    Segre-semigroup fractional components; the witness element
    s x (sy)^{q/p-1} (sz)^{q-q/p-1} / (s^2 t x y z)^{q-1} must avoid every
    split product."""
    result = CaseResult("determinantal", {
        "p": p, "emax_groebner": emax_groebner, "emax_monomial": emax_monomial})
    comps = {e: segre_component_2x3(p, e) for e in range(1, emax_monomial + 1)}
    witnesses = {e: _segre_witness(p, e) for e in range(2, emax_monomial + 1)}
    split_flags = _splits_excluded(comps, witnesses, p)
    witness_flags = {}
    for e, w in witnesses.items():
        in_component = comps[e].contains(w)
        excluded = split_flags[e]
        witness_flags[e] = all(excluded)
        result.expectations.append(_expect(
            f"witness_excluded_e{e}", in_component and all(excluded),
            {"witness": list(w), "in_component": in_component,
             "splits_excluded": excluded}, "identity"))
    ring, ideal = minors_ideal(p)
    probe = fingen_probe(ideal, emax_groebner, degree_guard)
    if emax_groebner >= 2:
        row = probe.report.row(2)
        result.expectations.append(_expect(
            "groebner_new_generators_e2", row.new_gen_count >= 1,
            {"new_gen_count": row.new_gen_count,
             "min_gen_count": row.min_gen_count,
             "lift_family_size_q4": 10}, "oracle"))
        result.expectations.append(_expect(
            "paths_consistent",
            (row.new_gen_count >= 1) and witness_flags.get(2, False),
            {"groebner_not_generated_e2": row.new_gen_count >= 1,
             "witness_excluded_e2": witness_flags.get(2)}, "oracle"))
    growth = degree_growth(probe.report)
    result.expectations.append(_expect(
        "degree_growth_bounded", all(r <= 4 for _, _, r in growth),
        {"ratios": [[e, d, str(r)] for e, d, r in growth]}, "oracle"))
    result.components = probe_rows(probe.report, probe.components)
    return result


def poly_twisted_case(dim: int, p: int = 2, emax: Optional[int] = None) -> CaseResult:
    """Twisted algebra of a standard graded polynomial ring, the pure
    combinatorial path: dimension 1 is commutative and degree-1 generated,
    dimension 2 is degree-1 generated, dimension 3 has a persistent witness
    outside every split product."""
    if dim not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    PrimeField(p)  # raises for a non-prime characteristic, as every other case does
    if emax is None:
        emax = 4 if dim == 3 else 5
    limit = 4 if dim == 3 else 5
    if emax < 1:
        raise ValueError("emax must be >= 1")
    if emax > limit:
        raise ValueError(f"emax for dimension {dim} is capped at {limit}")
    result = CaseResult("twisted", {"dim": dim, "p": p, "emax": emax})
    comps = {e: poly_twisted_component(dim, p, e) for e in range(1, emax + 1)}
    # every generator has total degree q - 1, so module membership of a
    # generator among the products is plain equality; the new generators
    # stay in order, as the next degrees' left factors
    def outside(e, products):
        products = set(products)
        return [g for g in comps[e].generators if g not in products]

    report = generation_report(
        p, [comps[e].generators for e in range(1, emax + 1)],
        _fractional_products([comps[e] for e in range(1, emax + 1)], p), outside)
    rows = [{"e": r.e, "q": r.q, "component_size": r.min_gen_count,
             "generated_from_lower": r.generated_from_lower,
             "missing_count": r.new_gen_count} for r in report.rows]
    result.components = rows
    if dim == 1:
        a, b = (poly_twisted_component(1, p, e).generators[0] for e in (1, 2))
        ab = tuple(x + p * y for x, y in zip(a, b))
        ba = tuple(x + p ** 2 * y for x, y in zip(b, a))
        result.expectations.append(_expect(
            "commutative", ab == ba, {"ab": list(ab), "ba": list(ba)}, "identity"))
    if dim in (1, 2):
        result.expectations.append(_expect(
            "generated_in_degree_1",
            all(r["generated_from_lower"] for r in rows if r["e"] >= 2),
            {"flags": [r["generated_from_lower"] for r in rows]}, "identity"))
    else:
        witnesses = {e: _twisted_witness(p, e) for e in range(2, emax + 1)}
        for e, excluded in _splits_excluded(comps, witnesses, p).items():
            result.expectations.append(_expect(
                f"witness_excluded_e{e}", all(excluded),
                {"witness": list(witnesses[e]), "splits_excluded": excluded}, "identity"))
    return result


# --------------------------------------------------------------------------
# registry

def run_case(name: str, p: Optional[int] = None, emax: Optional[int] = None,
             dim: Optional[int] = None,
             degree_guard: Optional[int] = None) -> CaseResult:
    """Run a named case.  Arguments left as None take the case's own
    defaults; an argument the case has no use for raises ValueError."""
    if name not in CASE_NAMES:
        raise ValueError(f"unknown gallery case {name!r}")
    for arg, value, used in (("dim", dim, name == "twisted"),
                             ("emax", emax, name != "fedder"),
                             ("degree_guard", degree_guard, name != "twisted")):
        if value is not None and not used:
            raise ValueError(f"gallery case {name!r} does not use {arg}")
    given = {} if p is None else {"p": p}
    if name == "fedder":
        return fedder_identity_check(**given, degree_guard=degree_guard)
    if name == "twisted":
        return poly_twisted_case(2 if dim is None else dim, emax=emax, **given)
    if emax is not None:
        given["emax_groebner" if name == "determinantal" else "emax"] = emax
    if name == "lifts":
        return lift_family_check(**given, degree_guard=degree_guard)
    if name == "katzman":
        return katzman_case(**given, degree_guard=degree_guard)
    if name == "veronese":
        return veronese_case(**given, degree_guard=degree_guard)
    return determinantal_case(**given, degree_guard=degree_guard)

