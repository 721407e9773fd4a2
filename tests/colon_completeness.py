"""Completeness of a Frobenius colon I^[q] : I, degree by degree, by linear
algebra, with no elimination.

In each degree d, (I^[q] : I)_d is the kernel of the linear map
u -> (NF(u*f_j))_j on S_d, the normal forms taken modulo I^[q] and f_j the
generators of I.  Its dimension is dim S_d minus the rank of the images of
the degree-d monomials.  The dimension of a computed homogeneous colon in
degree d is dim S_d minus its standard monomials there, read from the
leads of its reduced basis (Macaulay; Cox, Little and O'Shea, "Ideals,
Varieties, and Algorithms", ch. 9 §3).  The normal forms need only a basis
of I^[q], and the q-th powers of a Groebner basis of I are one, since
in(I^[q]) = in(I)^[q] (Frobenius is flat); so no colon, intersection or
basis of I^[q] is computed here.

Equal dimensions show that the computed colon is not too small in that
degree; the Frobenius-root check of root_oracle.py shows that it is not
too large.  Together they give equality in that degree.
"""

from __future__ import annotations

from typing import Optional

from frobtool.groebner import Ideal, _Echelon
from frobtool.polyring import mono_divides, monomials_of_weighted_degree

import root_oracle


def frobenius_modulus(ideal: Ideal, e: int, guard: int) -> Ideal:
    """I^[q], q = p^e, holding the q-th powers of the reduced basis of I as
    its reduced basis: their leads are the q-th powers of an antichain, and
    a term of g^q is m^q for a term m of g, which no lead^q divides."""
    basis = tuple(g.frobenius_power(e) for g in ideal.groebner_basis(guard))
    return Ideal._from_basis(ideal.ring, basis)


def kernel_dimension(ideal: Ideal, modulus: Ideal, d: int) -> int:
    """dim_d of { u in S_d : u*f in modulus for every generator f of ideal }:
    dim S_d minus the rank of the rows (NF(m*f_j))_j over the degree-d
    monomials m."""
    ring = ideal.ring
    monos = monomials_of_weighted_degree(ring.weights, d)
    echelon = _Echelon(ring.field.p)
    rank = 0
    for m in monos:
        u = ring.monomial(m)
        row = {(j, mono): c for j, f in enumerate(ideal.generators)
               for mono, c in modulus.normal_form(u * f).terms}
        rank += echelon.add_row(row)
    return len(monos) - rank


def basis_dimension(basis, weights: tuple, d: int) -> int:
    """dim_d of the homogeneous ideal with Groebner basis `basis`: the
    degree-d monomials that some lead divides."""
    leads = [g.leading_monomial() for g in basis]
    return sum(any(mono_divides(lm, m) for lm in leads)
               for m in monomials_of_weighted_degree(weights, d))


def check_frobenius_colon(ideal: Ideal, e: int, col: Ideal, guard: int,
                          bound: Optional[int] = None) -> int:
    """Assert that the computed colon `col` equals I^[q] : I, q = p^e, for
    a homogeneous I, in every degree up to `bound`, or without one up to
    the top degree of its reduced basis; returns that degree.

    Every generator of `col` must pass the root check (inclusion), and in
    each degree d its dimension must equal the kernel dimension above
    (completeness).  A true generator of the colon above the degrees
    checked is not seen: without a bound, a colon that lacks its only
    generator of top degree passes.  Given an a priori bound on the
    degrees of the true colon's generators, the check is complete: the
    computed colon then holds every one of them.  Raises AssertionError
    naming the first degree that disagrees."""
    ring = ideal.ring
    q = ring.field.p ** e
    for u in col.generators:
        assert root_oracle.in_frobenius_colon(u, ideal, q), ("outside the colon", e, u)
    basis = col.groebner_basis(guard)
    modulus = frobenius_modulus(ideal, e, guard)
    top = max(g.weighted_degree() for g in basis) if bound is None else bound
    for d in range(top + 1):
        computed, expected = (basis_dimension(basis, ring.weights, d),
                              kernel_dimension(ideal, modulus, d))
        assert computed == expected, ("dimension", e, d, computed, expected)
    return top
