"""Exact integer division driven by residue-base plans.

The pipeline for n-bit operands:

1. normalize the divisor with a scaler, a power of two times a prefix of the
   moduli base, so the scaled divisor sits in [1/2, 1);
2. slice n+1 disjoint groups of consecutive extension moduli whose products
   clear the precision floor 2**(n+3);
3. take one truncated numerator per group and sum the product series
   1 + t1/A1 + (t1 t2)/(A1 A2) + ... by binary splitting, an exact rational
   that underapproximates the scaled reciprocal within 2**-n;
4. multiply through and floor: the candidate quotient is exact or one short,
   settled by a single comparison against the dividend.

All rationals are kept exact; every one-sided bound is asserted, not assumed.
The fixed "strict" layout uses floor(n**2 / log2 n) + 3n moduli in groups of
floor(n / log2 n); its group bound is only guaranteed from n = 64 up, so an
"adaptive" mode grows the group size until the floor is cleared, for small n.
Either way n is at most MAX_DIVISION_BITS, checked before any prime is sieved.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import GroupBoundError
from .moduli import ModuliBase, _require_int, nth_prime, prime_base, require_prime_index
# unused here, but the benchmark's span patches name crrkit.division.encode
from .vectors import encode


def _require_bit_size(n: int) -> int:
    """n as a plain int of at least 4; TypeError naming it unless it is an int."""
    n = _require_int(n, "bit size")
    if n < 4:
        raise ValueError("bit size must be at least 4")
    return n


# Largest operand bit size that divide and build_plan accept.  A plan's cost
# grows a little faster than n**3: the series reaches about n**2 bits, and
# the strict layout sieves about n**2 / log2(n) primes.  One cold
# `crrkit div --n N` took 1.2 s (adaptive) and 2.0 s (strict) at N = 1000,
# 8.3 s and 11.6 s at N = 2000, on a 2-vCPU VM under Python 3.11.7.
MAX_DIVISION_BITS = 2048


def _require_plan_key(n: int, mode: str) -> int:
    """Check n and mode, the plan cache's key, before any plan or fast path."""
    n = _require_bit_size(n)
    if n > MAX_DIVISION_BITS:
        raise ValueError(f"bit size {n} above division bound {MAX_DIVISION_BITS}")
    # compared by ==, so an unhashable mode is named too, not hashed
    if mode not in ("strict", "adaptive"):
        raise ValueError(f"unknown mode {mode!r}")
    return n


# relative width of the band around a tie in which the float quotient of
# _floor_div_log2 is not trusted; its rounding error is below 2**-50
_TIE_MARGIN = 2.0**-40


def _floor_div_log2(value: int, n: int) -> int:
    """Floor of value / log2(n), exact: the largest k with n**k <= 2**value.

    For n = 2**e this is value // e.  Otherwise log2(n) is irrational, so
    k * log2(n) never equals value and the float quotient settles k, unless
    it lies within a rounding margin of an integer; only then are the exact
    powers compared.
    """
    e = n.bit_length() - 1
    if n == 1 << e:
        return value // e
    quotient = value / math.log2(n)
    k = math.floor(quotient)
    margin = quotient * _TIE_MARGIN
    if margin < quotient - k < 1 - margin:
        return k
    while n ** (k + 1) <= 1 << value:
        k += 1
    while k > 0 and n**k > 1 << value:
        k -= 1
    return k


def group_size(n: int) -> int:
    """Fixed-layout group size for bit size n: floor(n / log2 n)."""
    n = _require_bit_size(n)
    return _floor_div_log2(n, n)


def strict_moduli_count(n: int) -> int:
    """Fixed-layout total moduli count: floor(n**2 / log2 n) + 3n.

    A count plainly past the prime index ceiling raises PrimeLimitError from
    a float estimate, before the exact count compares powers of n**2 bits.
    """
    n = _require_bit_size(n)
    # prime_base needs index count + 2, and the count is at least this
    # estimate less 1 for the floor, less a margin of 1 for float rounding
    require_prime_index(math.floor(n * n / math.log2(n)) + 3 * n)
    return _floor_div_log2(n * n, n) + 3 * n


def adaptive_group_size(n: int) -> int:
    """Smallest group size whose products clear the 2**(n+3) floor."""
    n = _require_bit_size(n)
    floor = 1 << (n + 3)
    product, size = 1, 0
    while product <= floor:
        size += 1
        product *= nth_prime(n + 2 + size)
    return size


class GroupBoundReport(NamedTuple):
    """Whether the first extension modulus alone certifies the group floor."""

    n: int
    group_size: int
    next_modulus: int
    holds: bool


def group_bound_report(n: int) -> GroupBoundReport:
    """Exact check of next_modulus**group_size > 2**(n+3) for bit size n."""
    n = _require_bit_size(n)
    size = group_size(n)
    next_modulus = nth_prime(n + 3)
    return GroupBoundReport(n, size, next_modulus, next_modulus**size > 1 << (n + 3))


class Scaler(NamedTuple):
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
    n = _require_bit_size(n)
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
        t, gap = divmod(shortfall * product, scale)
        if gap < 0 or gap << bits > scale * product:
            raise GroupBoundError(index, product, 1 << bits)
        numerators.append(t)
    return tuple(numerators)


def _series_from(numerators, groups) -> tuple[int, int]:
    # Bottom-up binary splitting (Haible & Papanikolaou 1998): a run of
    # groups i..j is (P, Q, S) with P = t_i..t_j, Q = A_i..A_j and S/Q the
    # run's partial sum t_i/A_i + (t_i t_{i+1})/(A_i A_{i+1}) + ...  Two
    # neighbouring runs join as (P1 P2, Q1 Q2, S1 Q2 + P1 S2), so the
    # operands of each product stay balanced and fast multiplication pays
    # off, where n + 1 small-by-big Horner steps on a numerator of about
    # n**2 bits are quadratic.  An odd last run is carried up unchanged.
    # The last join skips P, which nothing reads and is as wide as Q.
    # The result is (Q + S) / Q with Q = prod(groups); no groups give 1/1.
    runs = [(t, a, t) for t, a in zip(numerators, groups)]
    if not runs:
        return 1, 1
    while len(runs) > 2:
        joined = [
            (p1 * p2, q1 * q2, s1 * q2 + p1 * s2)
            for (p1, q1, s1), (p2, q2, s2) in zip(runs[::2], runs[1::2])
        ]
        if len(runs) % 2:
            joined.append(runs[-1])
        runs = joined
    p, q, s = runs[0]
    if len(runs) == 2:
        _, q2, s2 = runs[1]
        q, s = q * q2, s * q2 + p * s2
    return q + s, q


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


class DivisionPlan(NamedTuple):
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


class DivideResult(NamedTuple):
    """The floor quotient, whether the one-off correction fired, and the plan."""

    quotient: int
    correction_applied: bool
    plan: DivisionPlan | None


@lru_cache(maxsize=16)
def _static_parts(n: int, mode: str):
    if mode == "strict":
        size = group_size(n)
        total = strict_moduli_count(n)
    else:  # _require_plan_key has checked the mode
        size = adaptive_group_size(n)
        total = n + (n + 1) * size
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
    y = _require_int(y, "divisor")
    n = _require_plan_key(n, mode)
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
    x = _require_int(x, "dividend")
    y = _require_int(y, "divisor")
    n = _require_plan_key(n, mode)
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
