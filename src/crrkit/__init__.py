"""Residue number system toolkit.

Pairwise-coprime moduli bases, residue vectors with exact ring operations,
four reconstruction routes back to integers, and exact floor division of
bounded operands through scaled reciprocal series.  The division names are
imported from ``crrkit.division`` on first use.
"""

from . import errors, moduli, reconstruct, vectors

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
        "divide",
        "group_bound_report",
        "group_size",
        "strict_moduli_count",
    }
)

# Each eager module's __all__ declares its public names.  reconstruct's is
# read before its star import rebinds ``reconstruct`` to the function.
__all__ = sorted(
    {
        *errors.__all__,
        *moduli.__all__,
        *reconstruct.__all__,
        *vectors.__all__,
        *_DIVISION_NAMES,
    }
)

from .errors import *
from .moduli import *
from .reconstruct import *
from .vectors import *

__version__ = "0.1.0"


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
