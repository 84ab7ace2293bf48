"""Exact integer division driven by residue-base plans.

The pipeline for n-bit operands:

1. normalize the divisor with a scaler, a power of two times a prefix of the
   moduli base, so the scaled divisor sits in [1/2, 1);
2. slice n+1 disjoint groups of consecutive extension moduli whose products
   clear the precision floor 2**(n+3);
3. take one truncated numerator per group and sum the product series
   1 + t1/A1 + (t1 t2)/(A1 A2) + ... by binary splitting, top down: the
   n + 1 groups halve into index ranges whose partial sums join in
   ceil(log2(n + 1)) levels, and no join on the right spine forms the
   numerator product that nothing reads.  The sum is an exact rational
   that underapproximates the scaled reciprocal within 2**-n;
4. multiply through and floor: the candidate quotient is exact or one short,
   settled by the one remainder x - candidate * y.

All rationals are kept exact; every one-sided bound is asserted, not assumed.
The fixed "strict" layout uses floor(n**2 / log2 n) + 3n moduli in groups of
floor(n / log2 n); its group bound is only guaranteed from n = 64 up, so an
"adaptive" mode grows the group size until the floor is cleared, for small n.
Either way n is at most MAX_DIVISION_BITS, checked before any prime is sieved.
"""

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import GroupBoundError, excerpt_int
from .moduli import ModuliBase, _require_int, nth_prime, prime_base, require_prime_index
# unused here, but the benchmark's span patches name crrkit.division.encode
from .vectors import encode


def _require_bit_size(n: int) -> int:
    """n as a plain int of at least 4; TypeError naming it unless it is an int."""
    n = _require_int(n, "bit size")
    if n < 4:
        raise ValueError("bit size must be at least 4")
    return n


def _require_layout_bits(n: int) -> int:
    """n as a bit size whose layouts stay within the prime index ceiling.

    Both layouts take their first extension modulus, the one after the n
    scaler moduli, from the (n + 3)-th prime, so past the ceiling no layout
    of bit size n exists.  Checked before a float, a power or a shift is made
    of n, which for an n of hundreds of digits would overflow or not finish.
    """
    n = _require_bit_size(n)
    require_prime_index(n + 3)
    return n


# Largest operand bit size that divide and build_plan accept.  A plan's cost
# grows a little faster than n**3: its series is a fraction of about n**2
# bits, and the strict layout sieves about n**2 / log2(n) primes.
MAX_DIVISION_BITS = 2048


def _require_plan_key(n: int, mode: str) -> int:
    """Check n and mode, the plan cache's key, before any plan or fast path."""
    n = _require_bit_size(n)
    if n > MAX_DIVISION_BITS:
        raise ValueError(
            f"bit size {excerpt_int(n)} above division bound {MAX_DIVISION_BITS}"
        )
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
    n = _require_layout_bits(n)
    return _floor_div_log2(n, n)


def strict_moduli_count(n: int) -> int:
    """Fixed-layout total moduli count: floor(n**2 / log2 n) + 3n.

    A count plainly past the prime index ceiling raises PrimeLimitError from
    a float estimate, before the exact count compares powers of n**2 bits.
    """
    n = _require_layout_bits(n)
    # prime_base needs index count + 2, and the count is at least this
    # estimate less 1 for the floor, less a margin of 1 for float rounding
    require_prime_index(math.floor(n * n / math.log2(n)) + 3 * n)
    return _floor_div_log2(n * n, n) + 3 * n


def adaptive_group_size(n: int) -> int:
    """Smallest group size whose products clear the 2**(n+3) floor."""
    n = _require_layout_bits(n)
    floor = 1 << (n + 3)
    product, size = 1, 0
    while product <= floor:
        size += 1
        product *= nth_prime(n + 2 + size)
    return size


class GroupBoundReport(NamedTuple):
    """Whether the first extension modulus alone certifies the group floor.

    :func:`group_bound_report` returns one.  A caller may build one, but no
    function takes one back.
    """

    n: int
    group_size: int
    next_modulus: int
    holds: bool


def group_bound_report(n: int) -> GroupBoundReport:
    """Exact check of next_modulus**group_size > 2**(n+3) for bit size n."""
    n = _require_layout_bits(n)
    size = group_size(n)
    next_modulus = nth_prime(n + 3)
    return GroupBoundReport(n, size, next_modulus, next_modulus**size > 1 << (n + 3))


class Scaler(NamedTuple):
    """Divisor normalizer: value = 2**pow2 * (product of first prefix_len moduli).

    :func:`build_scaler` returns one.  A caller may build one, but no
    function takes one back.
    """

    prefix_len: int
    pow2: int
    value: int


def build_scaler(y: int, base: ModuliBase) -> Scaler:
    """Smallest scaler of the layout above with y/value in [1/2, 1)."""
    if y < 2:
        raise ValueError("scaler requires y >= 2")
    moduli = base.moduli
    j, prefix = 0, 1
    while j < len(moduli) and prefix * moduli[j] <= y:
        prefix *= moduli[j]
        j += 1
    if j == len(moduli):
        raise ValueError("moduli base too short to bracket the divisor")
    # the least k with prefix * 2**k > y: 2**k > y // prefix >= 1
    k = (y // prefix).bit_length()
    value = prefix << k
    if not y < value <= 2 * y:
        raise RuntimeError("scaler window violated")
    return Scaler(j, k, value)


def series_numerators(y: int, scale: int, groups) -> tuple[int, ...]:
    """Truncations floor((scale - y) * A / scale), one per group.

    Each ratio t/A must sit within 2**-(n+3) below (scale - y)/scale, where
    n + 1 is the group count.  Its gap is below scale / (scale * A) = 1/A, so
    every product above 2**(n+3) is enough; that is checked first, for all of
    them, before any numerator is formed.
    """
    if not 0 < y <= scale:
        raise ValueError("need 0 < y <= scale")
    floor = 1 << (len(groups) + 2)
    for index, product in enumerate(groups, start=1):
        if product <= floor:
            raise GroupBoundError(index, product, floor)
    shortfall = scale - y
    return tuple([shortfall * product // scale for product in groups])


def _split(numerators, groups, i: int, j: int, need_p: bool):
    """(P, Q, S) of the groups i..j-1: see _series_from.  P may be None
    unless need_p, which only a left half's caller sets.

    A module-level function, not a closure: a closure that calls itself is
    a reference cycle, which would keep each call's numerators alive until
    the cyclic collector runs.
    """
    if j - i == 1:
        t = numerators[i]
        return t, groups[i], t
    if j - i == 2:  # a leaf's S is its t, so P1 S2 is P
        t, a = numerators[i], groups[i + 1]
        p = t * numerators[i + 1]
        return p, groups[i] * a, t * a + p
    m = (i + j) // 2
    p1, q1, s1 = _split(numerators, groups, i, m, True)
    p2, q2, s2 = _split(numerators, groups, m, j, need_p)
    return p1 * p2 if need_p else None, q1 * q2, s1 * q2 + p1 * s2


def _series_from(numerators, groups) -> tuple[int, int]:
    # Binary splitting (Haible & Papanikolaou 1998), top down over index
    # ranges: the groups i..j-1 are (P, Q, S) with P the product of their
    # numerators t, Q that of their products A, and S/Q their partial sum
    # t_i/A_i + (t_i t_{i+1})/(A_i A_{i+1}) + ...  Two halves join as
    # (P1 P2, Q1 Q2, S1 Q2 + P1 S2), so the operands of each product stay
    # balanced and fast multiplication pays off, where n + 1 small-by-big
    # Horner steps on a numerator of about n**2 bits are quadratic.  Only a
    # left half's P is read, so the root and every join on the right spine
    # skip P1 P2, the widest product of their level.  The joins nest
    # ceil(log2 g) deep for g groups, the series' log-depth join, and cost
    # at most 4(g - 1) - floor(log2 g) products.  The result is (Q + S) / Q
    # with Q = prod(groups); no groups give 1/1.
    if not groups:
        return 1, 1
    _, q, s = _split(numerators, groups, 0, len(groups), False)
    return q + s, q


class DivisionPlan(NamedTuple):
    """Everything the division of n-bit operands by one divisor needs.

    :func:`build_plan` returns one, with its series checked.  A caller may
    build one, but no function takes one back.
    """

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
    """The floor quotient, whether the one-off correction fired, and the plan.

    :func:`divide` returns one.  A caller may build one, but no function
    takes one back.
    """

    quotient: int
    correction_applied: bool
    plan: DivisionPlan | None


# One entry: each layout pins its whole prime base (12.5 MiB traced at
# n = 2048 adaptive), and a process divides at one (n, mode) at a time.
@lru_cache(maxsize=1)
def _static_parts(n: int, mode: str):
    """The plan's layout for n and mode: (base, group size, group products).

    The n + 1 groups are disjoint runs of consecutive moduli right after the
    first n.  Strict's count always holds them, and adaptive's is exactly
    their need.  A product not above 2**(n+3) raises GroupBoundError.
    """
    if mode == "strict":
        size = group_size(n)
        total = strict_moduli_count(n)
    else:  # _require_plan_key has checked the mode
        size = adaptive_group_size(n)
        total = n + (n + 1) * size
    base = prime_base(total)
    floor = 1 << (n + 3)
    groups = []
    for i in range(n + 1):
        start = n + i * size
        product = math.prod(base.moduli[start : start + size])
        if product <= floor:
            raise GroupBoundError(i + 1, product, floor)
        groups.append(product)
    return base, size, tuple(groups)


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
    one short; the remainder x - candidate * y settles which, and anything
    else is an internal error.
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
    rest = x - candidate * y
    if not 0 <= rest < 2 * y:
        raise RuntimeError("candidate quotient off by more than one")
    corrected = rest >= y
    return DivideResult(candidate + corrected, corrected, plan)
