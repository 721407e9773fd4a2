"""Exact Frobenius-operator computations over prime fields."""

from .polyring import (
    GREVLEX,
    LEX,
    Order,
    Polynomial,
    PrimeField,
    RingMismatch,
    RingSpec,
    is_prime,
)
from .parsing import ParseError, UnknownVariableError, parse_polynomial
from .groebner import (
    DEFAULT_DEGREE_GUARD,
    DegreeGuardExceeded,
    Ideal,
    LiftVerificationError,
    NoLiftExists,
    colon,
    frobenius_power,
    groebner_basis,
    ideal_equal,
    ideal_power,
    intersect,
    lift_by_nzd,
    minimal_generators_mod,
)
from .monomials import (
    FracMonomialModule,
    MonomialIdeal,
    SemigroupSpec,
    mono_colon,
    mono_frobenius_power,
    mono_intersect,
    poly_twisted_component,
    segre_component_2x3,
    veronese_component,
)
from .frobenius import (
    FinGenReport,
    FrobeniusComponent,
    component,
    degree_growth,
    fingen_probe,
    qgor_expected_bound,
)

__version__ = "0.1.0"
