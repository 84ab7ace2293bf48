"""Exact integer division driven by residue-base plans.

The pipeline for n-bit operands:

1. normalize the divisor with a scaler, a power of two times a prefix of the
   moduli base, so the scaled divisor sits in [1/2, 1);
2. slice n+1 disjoint groups of consecutive extension moduli whose products
   clear the precision floor 2**(n+3);
3. take one truncated numerator per group and sum the product series
   1 + t1/A1 + (t1 t2)/(A1 A2) + ..., an exact rational that underapproximates
   the scaled reciprocal within 2**-n;
4. multiply through and floor: the candidate quotient is exact or one short,
   settled by a single comparison against the dividend.

All rationals are kept exact; every one-sided bound is asserted, not assumed.
The fixed "strict" layout uses floor(n**2 / log2 n) + 3n moduli in groups of
floor(n / log2 n); its group bound is only guaranteed from n = 64 up, so an
"adaptive" mode grows the group size until the floor is cleared, for small n.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import GroupBoundError
from .moduli import ModuliBase, nth_prime, prime_base
# unused here, but the benchmark's span patches name crrkit.division.encode
from .vectors import encode


def _require_bit_size(n: int):
    if n < 4:
        raise ValueError("bit size must be at least 4")


def _floor_div_log2(value: int, n: int) -> int:
    """Floor of value / log2(n), exact: the largest k with n**k <= 2**value."""
    estimate = max(0, int(value / math.log2(n)))
    while n ** (estimate + 1) <= 1 << value:
        estimate += 1
    while estimate > 0 and n**estimate > 1 << value:
        estimate -= 1
    return estimate


def group_size(n: int) -> int:
    """Fixed-layout group size for bit size n: floor(n / log2 n)."""
    _require_bit_size(n)
    return _floor_div_log2(n, n)


def strict_moduli_count(n: int) -> int:
    """Fixed-layout total moduli count: floor(n**2 / log2 n) + 3n."""
    _require_bit_size(n)
    return _floor_div_log2(n * n, n) + 3 * n


def adaptive_group_size(n: int) -> int:
    """Smallest group size whose products clear the 2**(n+3) floor."""
    _require_bit_size(n)
    floor = 1 << (n + 3)
    product, size = 1, 0
    while product <= floor:
        size += 1
        product *= nth_prime(n + 2 + size)
    return size


@dataclass(frozen=True)
class GroupBoundReport:
    """Whether the first extension modulus alone certifies the group floor."""

    n: int
    group_size: int
    next_modulus: int
    holds: bool


def group_bound_report(n: int) -> GroupBoundReport:
    """Exact check of next_modulus**group_size > 2**(n+3) for bit size n."""
    _require_bit_size(n)
    size = group_size(n)
    next_modulus = nth_prime(n + 3)
    return GroupBoundReport(n, size, next_modulus, next_modulus**size > 1 << (n + 3))


@dataclass(frozen=True)
class Scaler:
    """Divisor normalizer: value = 2**pow2 * (product of first prefix_len moduli)."""

    prefix_len: int
    pow2: int
    value: int


def build_scaler(y: int, base: ModuliBase) -> Scaler:
    """Smallest scaler of the layout above with y/value in [1/2, 1).

    y == 2 is the one special case: its scaler is 2 itself (ratio exactly 1),
    which still divides exactly since the series degenerates to 1.
    """
    if y < 2:
        raise ValueError("scaler requires y >= 2")
    if y == 2:
        return Scaler(0, 1, 2)
    moduli = base.moduli
    j, prefix = 0, 1
    while j < len(moduli) and prefix * moduli[j] <= y:
        prefix *= moduli[j]
        j += 1
    if j == len(moduli):
        raise ValueError("moduli base too short to bracket the divisor")
    k = 1
    while (prefix << k) <= y:
        k += 1
    value = prefix << k
    if not y < value <= 2 * y:
        raise RuntimeError("scaler window violated")
    return Scaler(j, k, value)


def build_groups(n: int, base: ModuliBase, size: int) -> tuple[int, ...]:
    """Products of n+1 disjoint runs of ``size`` consecutive extension moduli.

    The runs start right after the first n moduli.  Every product must exceed
    2**(n+3); the first one that does not raises :class:`GroupBoundError`.
    """
    _require_bit_size(n)
    if size < 1:
        raise ValueError("group size must be positive")
    needed = n + (n + 1) * size
    if len(base.moduli) < needed:
        raise ValueError(f"base has {len(base.moduli)} moduli, needs {needed}")
    floor = 1 << (n + 3)
    groups = []
    for i in range(n + 1):
        start = n + i * size
        product = math.prod(base.moduli[start : start + size])
        if product <= floor:
            raise GroupBoundError(i + 1, product, floor)
        groups.append(product)
    return tuple(groups)


def series_numerators(y: int, scale: int, groups) -> tuple[int, ...]:
    """Truncations floor((scale - y) * A / scale), one per group.

    Each ratio t/A must sit within 2**-(n+3) below (scale - y)/scale, where
    n + 1 is the group count; that follows from the group floor and is
    checked here exactly rather than assumed.
    """
    if not 0 < y <= scale:
        raise ValueError("need 0 < y <= scale")
    bits = len(groups) + 2
    shortfall = scale - y
    numerators = []
    for index, product in enumerate(groups, start=1):
        t = shortfall * product // scale
        gap = shortfall * product - scale * t
        if gap < 0 or gap << bits > scale * product:
            raise GroupBoundError(index, product, 1 << bits)
        numerators.append(t)
    return tuple(numerators)


def _series_from(numerators, groups) -> tuple[int, int]:
    # Horner form from the last group inward: 1 + (t/A) * (num/den) is
    # (A*den + t*num) / (A*den), so every step is small-by-big and the final
    # denominator is exactly prod(groups).
    numerator = denominator = 1
    for t, a in zip(reversed(numerators), reversed(groups)):
        numerator, denominator = a * denominator + t * numerator, a * denominator
    return numerator, denominator


def reciprocal_series(numerators, groups) -> tuple[int, int]:
    """1 + sum of running products (t_1..t_i)/(A_1..A_i) as an exact rational.

    Returned unreduced over the denominator prod(A_1..A_len).
    """
    numerators = tuple(numerators)
    groups = tuple(groups)
    if len(numerators) != len(groups):
        raise ValueError("numerators and groups must have equal length")
    if any(a < 1 for a in groups):
        raise ValueError("groups must be positive")
    if any(t < 0 for t in numerators):
        raise ValueError("numerators must be non-negative")
    return _series_from(numerators, groups)


@dataclass(frozen=True, repr=False)
class DivisionPlan:
    """Everything the division of n-bit operands by one divisor needs."""

    bit_size: int
    base: ModuliBase
    group_size: int
    scaler: Scaler
    groups: tuple[int, ...]
    numerators: tuple[int, ...]
    series: tuple[int, int]  # unreduced (numerator, denominator = prod(groups))

    @property
    def moduli_count(self) -> int:
        return len(self.base.moduli)

    def __repr__(self):
        return (
            f"DivisionPlan(bit_size={self.bit_size}, moduli={self.moduli_count}, "
            f"group_size={self.group_size}, scaler={self.scaler})"
        )


@dataclass(frozen=True)
class DivideResult:
    quotient: int
    correction_applied: bool
    plan: DivisionPlan | None


@lru_cache(maxsize=16)
def _static_parts(n: int, mode: str):
    if mode == "strict":
        size = group_size(n)
        total = strict_moduli_count(n)
    elif mode == "adaptive":
        size = adaptive_group_size(n)
        total = n + (n + 1) * size
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if n + (n + 1) * size > total:
        raise RuntimeError("moduli budget cannot hold the groups")
    base = prime_base(total)
    groups = build_groups(n, base, size)
    return base, size, groups


def _check_series_bound(y: int, scale: int, series: tuple[int, int], bits: int):
    numerator, denominator = series
    gap = scale * denominator - y * numerator
    if gap < 0 or gap << bits > y * denominator:
        raise RuntimeError("reciprocal series missed its tolerance")


def build_plan(y: int, n: int, mode: str = "adaptive") -> DivisionPlan:
    """Assemble scaler, groups, numerators, and the reciprocal series for y.

    The assembled series is checked exactly to underapproximate scale/y
    within 2**-n before the plan is returned.
    """
    _require_bit_size(n)
    if not 2 <= y < 1 << n:
        raise ValueError("divisor out of range for the bit size")
    base, size, groups = _static_parts(n, mode)
    scaler = build_scaler(y, base)
    numerators = series_numerators(y, scaler.value, groups)
    series = _series_from(numerators, groups)
    _check_series_bound(y, scaler.value, series, n)
    return DivisionPlan(n, base, size, scaler, groups, numerators, series)


def divide(x: int, y: int, n: int, mode: str = "adaptive") -> DivideResult:
    """Exact floor quotient of x by y, both below 2**n.

    x == 0 and y == 1 return immediately without a plan.  Otherwise the plan's
    series gives a candidate floor(x * series / scale) that is the quotient or
    one short; the exact comparison against x settles which, and anything else
    is an internal error.
    """
    _require_bit_size(n)
    if y == 0:
        raise ZeroDivisionError("division by zero")
    if not 0 <= x < 1 << n:
        raise ValueError("dividend out of range for the bit size")
    if not 1 <= y < 1 << n:
        raise ValueError("divisor out of range for the bit size")
    if x == 0:
        return DivideResult(0, False, None)
    if y == 1:
        return DivideResult(x, False, None)
    plan = build_plan(y, n, mode)
    numerator, denominator = plan.series
    scale = plan.scaler.value
    candidate = x * numerator // (denominator * scale)
    if candidate * y <= x < (candidate + 1) * y:
        quotient, corrected = candidate, False
    elif (candidate + 1) * y <= x < (candidate + 2) * y:
        quotient, corrected = candidate + 1, True
    else:
        raise RuntimeError("candidate quotient off by more than one")
    return DivideResult(quotient, corrected, plan)
