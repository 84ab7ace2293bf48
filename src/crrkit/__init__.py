"""Residue number system toolkit.

Pairwise-coprime moduli bases, residue vectors with exact ring operations,
four reconstruction routes back to integers, and exact floor division of
bounded operands through scaled reciprocal series.  The division names are
imported from ``crrkit.division`` on first use.
"""

from .errors import (
    AttemptsExhaustedError,
    BaseMismatchError,
    CrrError,
    GroupBoundError,
    ParseError,
    PrimeLimitError,
)
from .moduli import (
    PRIME_INDEX_CEILING,
    ModuliBase,
    nth_prime,
    pairwise_coprime,
    prime_base,
)
from .reconstruct import (
    CrtCoefficients,
    GarnerConverter,
    LinearFormSample,
    chain_weights,
    classical_coefficients,
    coprime_form_stats,
    default_n2_bound,
    garner_converter,
    probabilistic_reconstruct,
    reconstruct,
    sequential_coefficients,
)
from .vectors import (
    CrrVector,
    encode,
    format_base_line,
    parse,
    parse_base_line,
    serialize,
)

__version__ = "0.1.0"

# The division half shares only moduli and vectors with the conversions, so
# it is compiled on first use of one of its names.  ``reconstruct`` stays
# eager: it names both a module and a public function, and a lazy binding
# would lose to an earlier ``import crrkit.reconstruct``, which sets the
# package attribute to the module.
_DIVISION_NAMES = frozenset(
    {
        "MAX_DIVISION_BITS",
        "DivideResult",
        "DivisionPlan",
        "GroupBoundReport",
        "Scaler",
        "adaptive_group_size",
        "build_plan",
        "build_scaler",
        "divide",
        "group_bound_report",
        "group_size",
        "series_numerators",
        "strict_moduli_count",
    }
)


def __getattr__(name):
    if name not in _DIVISION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import division

    # bound as plain attributes, so later lookups skip this hook and a
    # patched name stays patched
    for lazy in _DIVISION_NAMES:
        globals().setdefault(lazy, getattr(division, lazy))
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})

__all__ = [
    "AttemptsExhaustedError",
    "BaseMismatchError",
    "CrrError",
    "CrrVector",
    "CrtCoefficients",
    "DivideResult",
    "DivisionPlan",
    "GarnerConverter",
    "GroupBoundError",
    "GroupBoundReport",
    "LinearFormSample",
    "MAX_DIVISION_BITS",
    "ModuliBase",
    "PRIME_INDEX_CEILING",
    "ParseError",
    "PrimeLimitError",
    "Scaler",
    "adaptive_group_size",
    "build_plan",
    "build_scaler",
    "chain_weights",
    "classical_coefficients",
    "coprime_form_stats",
    "default_n2_bound",
    "divide",
    "encode",
    "format_base_line",
    "garner_converter",
    "group_bound_report",
    "group_size",
    "nth_prime",
    "pairwise_coprime",
    "parse",
    "parse_base_line",
    "prime_base",
    "probabilistic_reconstruct",
    "reconstruct",
    "sequential_coefficients",
    "serialize",
    "series_numerators",
    "strict_moduli_count",
]
