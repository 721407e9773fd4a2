"""Known answers on random complete intersections.

For a regular sequence f_1..f_c of forms in S = GF(p)[x_1..x_n] and
f = f_1*...*f_c, Fedder (Trans. AMS 278, 1983) gives I^[q] : I = I^[q] +
(f^(q-1)).  So the degree-e component of the Frobenius-operator algebra is
generated by the one element f^(q-1) modulo I^[q], and the algebra is
generated in degree 1: the probe finds no new generator at e = 2.  The
colon's generators have degree q*d_i and (q-1)*sum(d_i), so the
completeness check, run up to the largest of these, sees all of them.

Inputs: c <= 2 random forms of degrees 1 to 3 in 2 to 4 variables over
GF(2), GF(3) and GF(5), with e <= 2.  An input counts as a regular sequence
only when the Hilbert function of S/I, read from the leads of its reduced
basis, is the coefficient list of prod(1 - t^d_i) / (1 - t)^n up to degree
sum(d_i) + 3; for c <= 2 a common factor of degree k > 0 shows by degree
sum(d_i) - k.  The screen computes no colon.

The drawn shapes (n, degrees, p, e) are those whose probe and check fit a
budget, which keeps the suite to a few seconds: f^(p^2 - 1), which the
probe's e = 2 colon holds, has at most PROBE_TERMS terms, and the check
runs over at most CHECK_MONOMIALS monomials.  That leaves out two cubics in
four variables, and keeps GF(5) to two variables and to one linear form in
three; property_suites.run_deep_complete_intersections draws those shapes,
and three forms in four variables, with e <= 3 at p = 2.
"""

from functools import reduce
from itertools import combinations_with_replacement
from math import comb
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

import colon_completeness
from frobtool.frobenius import component, fingen_probe
from frobtool.groebner import Ideal, frobenius_power
from frobtool.parsing import parse_polynomial
from frobtool.polyring import Polynomial, PrimeField, RingSpec, monomials_of_weighted_degree

GUARD = 2000
VARIABLES = ("x", "y", "z", "w")
PROBE_TERMS = 1000
CHECK_MONOMIALS = 2000


def generator_bound(q: int, degrees) -> int:
    """The top degree of a generator of I^[q] : I = I^[q] + (f^(q-1))."""
    return max(q * max(degrees), (q - 1) * sum(degrees))


def _fits(n: int, degrees, p: int, e: int) -> bool:
    return (comb(generator_bound(p * p, degrees) + n - 1, n - 1) <= PROBE_TERMS
            and comb(generator_bound(p ** e, degrees) + n, n) <= CHECK_MONOMIALS)


SHAPES = [(n, degrees, p, e) for n in (2, 3, 4) for c in (1, 2)
          for degrees in combinations_with_replacement((1, 2, 3), c)
          for p in (2, 3, 5) for e in (1, 2) if _fits(n, degrees, p, e)]


def expected_hilbert(n: int, degrees, top: int) -> list:
    """prod(1 - t^d) / (1 - t)^n, coefficients of degree 0..top."""
    series = [comb(d + n - 1, n - 1) for d in range(top + 1)]
    for d in degrees:
        series = [a - (series[k - d] if k >= d else 0) for k, a in enumerate(series)]
    return series


def hilbert_function(ideal: Ideal, top: int) -> list:
    """dim (S/I)_d for d = 0..top: the monomials no lead of the reduced
    basis divides."""
    basis, weights = ideal.groebner_basis(GUARD), ideal.ring.weights
    return [len(monomials_of_weighted_degree(weights, d))
            - colon_completeness.basis_dimension(basis, weights, d) for d in range(top + 1)]


def random_forms(n: int, degrees, p: int, rng) -> Ideal:
    """The ideal of random forms of the given degrees in the first n
    VARIABLES over GF(p): each a random nonempty set of monomials of its
    degree with random nonzero coefficients."""
    ring = RingSpec(PrimeField(p), VARIABLES[:n])
    gens = []
    for d in degrees:
        monos = monomials_of_weighted_degree(ring.weights, d)
        chosen = rng.sample(monos, rng.randint(1, len(monos)))
        gens.append(Polynomial(ring, {m: rng.randint(1, p - 1) for m in chosen}))
    return Ideal(ring, gens)


def passes_hilbert_screen(ideal: Ideal, degrees) -> bool:
    """The screen for a regular sequence of forms of the given degrees."""
    top = sum(degrees) + 3
    return hilbert_function(ideal, top) == expected_hilbert(ideal.ring.nvars, degrees, top)


def fedder_generator(ideal: Ideal, comp):
    """The one generator Fedder's identity gives the component comp of
    ideal: the monic normal form of f^(q-1) modulo I^[q]; nonzero."""
    expected = comp.modulus.normal_form(reduce(mul, ideal.generators) ** (comp.q - 1))
    assert not expected.is_zero()
    return expected.monic()


@st.composite
def complete_intersections(draw):
    n, degrees, p, e = draw(st.sampled_from(SHAPES))
    ideal = random_forms(n, degrees, p, draw(st.randoms(use_true_random=False)))
    assume(passes_hilbert_screen(ideal, degrees))
    return ideal, degrees, e


@settings(max_examples=30, deadline=None)
@given(complete_intersections())
def test_fedder_known_answers(drawn):
    ideal, degrees, e = drawn
    q = ideal.ring.field.p ** e
    probe = fingen_probe(ideal, 2, GUARD)
    assert probe.report.row(2).new_gen_count == 0
    assert probe.report.row(2).generated_from_lower

    comp = component(ideal, e, GUARD)
    assert comp.min_gens == (fedder_generator(ideal, comp),)

    bound = generator_bound(q, degrees)
    assert colon_completeness.check_frobenius_colon(ideal, e, comp.colon, GUARD, bound) == bound


def test_bound_sees_a_generator_above_the_basis():
    # I^[4] lacks the colon's generator f^3 of degree 12, above the top
    # degree 8 of its own basis: only the a priori bound finds the gap
    ring = RingSpec(PrimeField(2), ("x", "y", "z"))
    ideal = Ideal(ring, [parse_polynomial("x^2 + y*z", ring),
                         parse_polynomial("y^2 + x*z", ring)])
    short = frobenius_power(ideal, 2)
    assert colon_completeness.check_frobenius_colon(ideal, 2, short, GUARD) == 8
    with pytest.raises(AssertionError, match="dimension"):
        colon_completeness.check_frobenius_colon(ideal, 2, short, GUARD,
                                                 generator_bound(4, (2, 2)))
