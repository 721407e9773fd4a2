"""Exact Frobenius-operator computations over prime fields.

The exported names load lazily (PEP 562): `import frobtool` runs no
submodule, and the first read of an exported name imports the one module
that defines it, so a command pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

CASE_NAMES = ("fedder", "lifts", "katzman", "veronese", "determinantal", "twisted")

_EXPORTS = {name: module for module, names in (
    ("polyring", "GREVLEX LEX Order Polynomial PrimeField RingMismatch RingSpec is_prime"),
    ("parsing", "ParseError UnknownVariableError parse_polynomial"),
    ("groebner", "DEFAULT_DEGREE_GUARD DegreeGuardExceeded Ideal LiftVerificationError "
                 "NoLiftExists colon frobenius_power groebner_basis ideal_equal ideal_power "
                 "intersect lift_by_nzd minimal_generators_mod"),
    ("monomials", "FracMonomialModule MonomialIdeal SemigroupSpec mono_colon "
                  "mono_frobenius_power mono_intersect poly_twisted_component "
                  "segre_component_2x3 veronese_component"),
    ("frobenius", "FinGenReport FrobeniusComponent component degree_growth fingen_probe "
                  "qgor_expected_bound"),
) for name in names.split()}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
