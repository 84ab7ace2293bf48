"""Division pipeline: scaler, groups, series, and exact quotients."""

import gc
import math
import operator
import random
import re
import sys
import tracemalloc
import types
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, takewhile

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crrkit import (
    MAX_DIVISION_BITS,
    GroupBoundError,
    PrimeLimitError,
    Scaler,
    adaptive_group_size,
    build_plan,
    divide,
    division,
    group_bound_report,
    group_size,
    nth_prime,
    prime_base,
    strict_moduli_count,
)
from crrkit.division import (
    _floor_div_log2,
    _series_from,
    _static_parts,
    build_scaler,
    series_numerators,
)
from _support import (
    UnderApprox,
    bisect_scaler,
    doubling_scaler,
    prefix_products,
    reference_floor_div_log2,
    reference_horner_series,
    suffix_product_series,
)


# --- sizing formulas ---


def test_group_size_values():
    assert group_size(8) == 2
    assert group_size(16) == 4
    assert group_size(64) == 10
    assert group_size(128) == 18


def test_group_size_definition_exact():
    # largest k with n**k <= 2**n, checked straight from the definition
    for n in (4, 5, 8, 63, 64, 65, 100, 255, 256, 511, 512):
        k = group_size(n)
        assert n**k <= 1 << n < n ** (k + 1)


def test_strict_moduli_count_values():
    assert strict_moduli_count(64) == 874
    assert strict_moduli_count(128) == 2724
    assert strict_moduli_count(256) == 8960


def test_strict_moduli_count_definition_exact():
    for n in (4, 8, 16, 63, 64, 100, 128, 511, 512):
        k = strict_moduli_count(n) - 3 * n
        assert n**k <= 1 << (n * n) < n ** (k + 1)


def test_float_settled_sizes_match_exact_powers():
    for n in range(4, 601):
        assert strict_moduli_count(n) - 3 * n == reference_floor_div_log2(n * n, n)
    for n in range(4, 3001):
        assert group_size(n) == reference_floor_div_log2(n, n)


def test_power_of_two_sizes_are_exact_ties():
    # n = 2**e makes k * log2(n) == value reachable; k = value // e
    for e in range(2, 13):
        n = 1 << e
        for value in (n, n * n):
            assert _floor_div_log2(value, n) == reference_floor_div_log2(value, n)


def test_near_tie_falls_back_to_exact_powers(monkeypatch):
    # a margin of one half puts every quotient near a tie, so every call
    # takes the exact comparison from the float's floor
    monkeypatch.setattr(sys.modules["crrkit.division"], "_TIE_MARGIN", 0.5)
    for n in (*range(4, 130), 255, 257, 1000):
        for value in (n, n * n, 5 * n + 1):
            assert _floor_div_log2(value, n) == reference_floor_div_log2(value, n)


@pytest.mark.parametrize("shift", (0.01, -0.01))
def test_exact_fallback_corrects_a_wrong_float_floor(monkeypatch, shift):
    # a margin of 1 sends every quotient to the exact powers, and a log2
    # shifted by 0.01 starts them from a floor too low (+) or too high (-),
    # so one loop or the other must move k to the largest n**k <= 2**value
    shifted = types.SimpleNamespace(**vars(math))
    shifted.log2 = lambda x: math.log2(x) + shift
    monkeypatch.setattr(division, "math", shifted)
    monkeypatch.setattr(division, "_TIE_MARGIN", 1.0)
    moved = 0
    for n in range(4, 301):
        k = group_size(n)
        assert n**k <= 1 << n < n ** (k + 1)
        k = strict_moduli_count(n) - 3 * n
        assert n**k <= 1 << (n * n) < n ** (k + 1)
        moved += math.floor(n * n / shifted.log2(n)) != k
    assert moved > 200


def test_strict_count_past_prime_ceiling_fails_before_exact_power():
    # n = 12000 needs about 1.07e7 moduli; the exact count would compare
    # powers of 1.44e8 bits
    tracemalloc.start()
    try:
        with pytest.raises(PrimeLimitError, match="above ceiling"):
            strict_moduli_count(12000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_strict_count_beats_quadratic_layout():
    for n in (64, 128, 256):
        assert strict_moduli_count(n) < 2 * n * n + 5 * n


def test_bit_size_floor():
    for fn in (group_size, strict_moduli_count, adaptive_group_size):
        with pytest.raises(ValueError):
            fn(3)


# --- group bound report ---


def test_group_bound_report_examples():
    rep = group_bound_report(64)
    assert (rep.group_size, rep.next_modulus, rep.holds) == (10, 331, True)
    assert rep.next_modulus**rep.group_size > 1 << 67

    rep = group_bound_report(8)
    assert (rep.group_size, rep.next_modulus, rep.holds) == (2, 31, False)
    assert rep.next_modulus**rep.group_size == 961 < 2048


def test_group_bound_report_large_n():
    assert group_bound_report(128).holds
    assert group_bound_report(512).holds


# --- scaler ---


def test_build_scaler_examples():
    base = prime_base(8)
    assert build_scaler(100, base) == Scaler(2, 2, 140)
    assert Fraction(1, 2) <= Fraction(100, 140) < 1
    assert build_scaler(3, base) == Scaler(0, 2, 4)
    assert build_scaler(2, base) == Scaler(0, 2, 4)
    assert build_scaler(5, base) == Scaler(1, 1, 10)


def test_build_scaler_window_property():
    base = prime_base(32)
    prefix = prefix_products(base.moduli)
    rng = random.Random(50)
    for _ in range(300):
        y = rng.randint(2, (1 << 32) - 1)
        scaler = build_scaler(y, base)
        assert y < scaler.value <= 2 * y
        assert scaler.value == (1 << scaler.pow2) * prefix[scaler.prefix_len]
        assert scaler.pow2 >= 1


def test_build_scaler_matches_bisect_oracle():
    rng = random.Random(56)
    for n in (16, 64, 128):
        base = build_plan(3, n).base
        prefix = prefix_products(base.moduli)
        ys = set()
        for bits in range(2, n + 1):
            low = 1 << (bits - 1)
            ys.update((low, rng.randrange(low, 2 * low), 2 * low - 1))
        # a divisor equal to a prefix product, or next to one, is a window edge
        ys.update(p + d for p in prefix if p < 1 << n for d in (-1, 0, 1))
        for y in sorted(y for y in ys if 2 <= y < 1 << n):
            assert build_scaler(y, base) == bisect_scaler(y, prefix)


@lru_cache(maxsize=1)
def layout_base(n: int, mode: str):
    """The prime base of ``mode``'s layout at bit size n, as divide sieves it."""
    if mode == "strict":
        return prime_base(strict_moduli_count(n))
    return prime_base(n + (n + 1) * adaptive_group_size(n))


def test_build_scaler_matches_the_doubling_oracle_on_every_small_divisor():
    for n in range(4, 17):
        for mode in ("strict", "adaptive"):
            base = layout_base(n, mode)
            for y in range(2, 1 << n):
                assert build_scaler(y, base) == doubling_scaler(y, base)


@pytest.mark.parametrize("mode", ("strict", "adaptive"))
@pytest.mark.parametrize("n", (64, 128, 2048))
@settings(deadline=None)
@given(data=st.data())
def test_build_scaler_matches_the_doubling_oracle_at_large_n(n, mode, data):
    base = layout_base(n, mode)
    if data.draw(st.booleans(), label="near a window edge"):
        # a prefix product times a power of two, or next to one
        below = (1 << n).__gt__
        edges = list(takewhile(below, accumulate(base.moduli, operator.mul)))
        y = data.draw(st.sampled_from(edges)) << data.draw(st.integers(0, 8))
        y += data.draw(st.sampled_from((-1, 0, 1)))
        assume(2 <= y < 1 << n)
    else:
        bits = data.draw(st.integers(2, n), label="bits")
        y = data.draw(st.integers(1 << (bits - 1), (1 << bits) - 1), label="y")
    assert build_scaler(y, base) == doubling_scaler(y, base)


def test_build_scaler_rejects():
    base = prime_base(4)
    with pytest.raises(ValueError):
        build_scaler(1, base)
    with pytest.raises(ValueError):
        build_scaler(base.product * 2, base)  # base too short to bracket


# --- groups ---


def test_build_groups_strict_64():
    base, size, groups = _static_parts(64, "strict")
    assert len(base.moduli) == 874 and size == 10
    assert len(groups) == 65
    first = math.prod(nth_prime(i) for i in range(67, 77))
    assert groups[0] == first
    assert all(g > 1 << 67 for g in groups)
    assert groups[0] == min(groups)


def test_build_groups_strict_8_fails():
    assert strict_moduli_count(8) == 45 and group_size(8) == 2
    with pytest.raises(GroupBoundError) as info:
        _static_parts(8, "strict")
    assert info.value.index == 1
    assert info.value.product == 31 * 37


def test_adaptive_group_size_examples():
    assert adaptive_group_size(8) == 3
    assert 31 * 37 * 41 == 47027 > 1 << 11
    assert adaptive_group_size(64) <= group_size(64)


def test_build_groups_adaptive_8():
    base, size, groups = _static_parts(8, "adaptive")
    assert size == adaptive_group_size(8)
    assert len(groups) == 9
    assert groups[0] == 47027
    assert len(base.moduli) == 35


def test_strict_count_holds_the_groups():
    for n in range(4, MAX_DIVISION_BITS + 1):
        assert strict_moduli_count(n) >= n + (n + 1) * group_size(n)


@pytest.mark.parametrize("n", [4, 5, 8, 63, 64, 65, 128])
def test_adaptive_count_is_the_groups_need(n):
    base, size, groups = _static_parts(n, "adaptive")
    assert len(base.moduli) == n + (n + 1) * size
    assert len(groups) == n + 1


# --- series numerators ---


def test_series_numerators_frozen_example():
    t = series_numerators(100, 140, (47027,))
    assert t == (13436,)
    gap = Fraction(40, 140) - Fraction(13436, 47027)
    assert gap == Fraction(2, 329189)
    assert gap < Fraction(1, 1 << 11)


def test_series_numerators_zero_shortfall():
    assert series_numerators(140, 140, (47027, 50000, 60000)) == (0, 0, 0)


def test_series_numerators_underapprox_property():
    rng = random.Random(51)
    for _ in range(200):
        n = rng.choice((6, 8, 10))
        scale = rng.randint(4, 1 << n)
        y = rng.randint(scale // 2 + 1, scale)
        groups = tuple(
            rng.randint((1 << (n + 3)) + 1, 1 << (n + 5)) for _ in range(n + 1)
        )
        target = Fraction(scale - y, scale)
        for t, a in zip(series_numerators(y, scale, groups), groups):
            assert UnderApprox(Fraction(t, a), target, n + 3).holds


def test_series_numerators_needs_y_within_the_scale():
    groups = (1 << 40,) * 3
    for y in (0, 5):
        with pytest.raises(ValueError, match=r"^need 0 < y <= scale$"):
            series_numerators(y, 4, groups)


def test_series_numerators_rejects_small_groups():
    with pytest.raises(GroupBoundError):
        series_numerators(3, 4, (5, 5, 5, 5, 5))


def test_series_numerators_needs_every_product_above_the_floor():
    # three groups: a product must exceed 2**5, as a plan's layout requires,
    # even where its numerator's own gap would be small enough
    floor = 1 << 5
    with pytest.raises(GroupBoundError) as info:
        series_numerators(3, 4, (floor + 1, floor, floor + 1))
    assert (info.value.index, info.value.product, info.value.bound) == (2, floor, floor)
    assert series_numerators(3, 4, (floor + 1,) * 3) == ((floor + 1) // 4,) * 3


def test_series_numerators_refuses_before_forming_any_product(monkeypatch):
    monkeypatch.setattr(_CountingInt, "products", 0)
    groups = tuple(map(_CountingInt, (1 << 40, 1 << 40, 5)))
    with pytest.raises(GroupBoundError) as info:
        series_numerators(3, 4, groups)
    assert info.value.index == 3
    assert _CountingInt.products == 0


# --- reciprocal series ---


def test_reciprocal_series_all_zero():
    num, den = _series_from((0, 0, 0), (100, 200, 300))
    assert num == den == 100 * 200 * 300


def test_reciprocal_series_half_closed_form():
    n = 8
    groups = (1 << (n + 4),) * (n + 1)
    numerators = (1 << (n + 3),) * (n + 1)
    num, den = _series_from(numerators, groups)
    assert den == math.prod(groups)
    assert Fraction(num, den) == 2 - Fraction(1, 1 << (n + 1))
    assert Fraction(2, 1) - Fraction(num, den) == Fraction(1, 1 << (n + 1))


def test_reciprocal_series_randomized_bound():
    rng = random.Random(52)
    for _ in range(100):
        n = rng.choice((8, 12, 16))
        den = rng.randint(1 << 12, 1 << 24)
        num = rng.randint((den + 1) // 2, den - 1)
        groups = tuple(
            rng.randint((1 << (n + 3)) + 1, 1 << (n + 6)) for _ in range(n + 1)
        )
        ts = tuple((den - num) * a // den for a in groups)
        s_num, s_den = _series_from(ts, groups)
        gap = Fraction(den, num) - Fraction(s_num, s_den)
        assert 0 <= gap <= Fraction(1, 1 << n)


@given(
    st.lists(
        st.tuples(
            st.just(0) | st.integers(min_value=1, max_value=1 << 64),
            st.integers(min_value=1, max_value=1 << 64),
        ),
        max_size=40,
    )
)
@example([])
@example([(5, 7)])
@example([(5, 7), (3, 11)])
@example([(5, 7), (0, 11), (3, 13)])
@example([(3, 5), (1, 7), (2, 11), (5, 13), (1, 17)])
# odd and even group counts around powers of two, where the halves of a
# split differ by one or not at all
@example([(k + 1, 2 * k + 3) for k in range(4)])
@example([(k + 1, 2 * k + 3) for k in range(6)])
@example([(k + 1, 2 * k + 3) for k in range(7)])
@example([(k + 1, 2 * k + 3) for k in range(8)])
@example([(k + 1, 2 * k + 3) for k in range(9)])
@example([(k + 1, 2 * k + 3) for k in range(12)])
@example([(k + 1, 2 * k + 3) for k in range(16)])
@example([(k + 1, 2 * k + 3) for k in range(17)])
@example([(k + 1, 2 * k + 3) for k in range(33)])
# the group counts of adaptive plans at n = 63, 64, 126, 127, 128 and 129
@example([(k + 1, 2 * k + 3) for k in range(64)])
@example([(k + 1, 2 * k + 3) for k in range(65)])
@example([(k + 1, 2 * k + 3) for k in range(127)])
@example([(k + 1, 2 * k + 3) for k in range(128)])
@example([(k + 1, 2 * k + 3) for k in range(129)])
@example([(k + 1, 2 * k + 3) for k in range(130)])
def test_reciprocal_series_matches_suffix_product_oracle(terms):
    numerators = tuple(t for t, _ in terms)
    groups = tuple(a for _, a in terms)
    series = _series_from(numerators, groups)
    assert series == suffix_product_series(numerators, groups)
    assert series == reference_horner_series(numerators, groups)


@pytest.mark.parametrize(
    "n, mode",
    [(n, "adaptive") for n in (4, 5, 8, 127, 128, 129, 256)] + [(64, "strict")],
)
def test_plan_series_matches_horner(n, mode):
    rng = random.Random(n)
    for y in (2, 3, (1 << n) - 1, rng.randrange(2, 1 << n)):
        plan = build_plan(y, n, mode)
        assert plan.series == reference_horner_series(plan.numerators, plan.groups)


class _CountingInt(int):
    """An int whose products and sums stay counting ints; counts products."""

    products = 0

    def __mul__(self, other):
        _CountingInt.products += 1
        return _CountingInt(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return _CountingInt(int(self) + int(other))


@pytest.mark.parametrize("g", [0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 65, 129, 130])
def test_reciprocal_series_product_count_law(g, monkeypatch):
    # the root and the joins on the right spine skip P: at most
    # 4(g - 1) - floor(log2 g) products, where skipping it on the last join
    # only takes 4(g - 1) - 1
    monkeypatch.setattr(_CountingInt, "products", 0)
    numerators = tuple(_CountingInt(k + 1) for k in range(g))
    groups = tuple(_CountingInt(2 * k + 3) for k in range(g))
    series = _series_from(numerators, groups)
    bound = 4 * (g - 1) - (g.bit_length() - 1) if g else 0
    assert _CountingInt.products <= bound
    assert series == reference_horner_series(numerators, groups)


def test_underapprox_type():
    assert UnderApprox(Fraction(1, 4), Fraction(1, 4), 8).holds
    assert UnderApprox(Fraction(257, 1024), Fraction(1, 4), 8).holds is False  # above
    assert UnderApprox(Fraction(63, 256), Fraction(1, 4), 8).holds
    assert UnderApprox(Fraction(1, 8), Fraction(1, 4), 8).holds is False  # too far


# --- divide ---


def test_divide_frozen_examples():
    result = divide(100, 7, 8, "adaptive")
    assert result.quotient == 14
    assert result.plan.moduli_count == 35
    assert result.plan.group_size == 3
    assert divide(5, 2, 4, "adaptive").quotient == 2


def test_divide_fast_paths():
    result = divide(0, 123, 8, "adaptive")
    assert result.quotient == 0 and result.plan is None
    result = divide(200, 1, 8, "adaptive")
    assert result.quotient == 200 and result.plan is None


def test_divide_by_two_goes_through_the_general_scaler():
    # 2 takes the scaler 4 = 2**2 * 1 of the window, like any other divisor
    for x in (1, 2, 3, 100, 201, 255):
        result = divide(x, 2, 8, "adaptive")
        assert result.quotient == x // 2
        assert result.plan.scaler == Scaler(0, 2, 4)


def test_divide_correction_branch_fires_on_exact_multiples():
    result = divide(100, 10, 8, "adaptive")
    assert result.quotient == 10 and result.correction_applied
    for n in (16, 32, 64):
        y = 3 * n + 1
        x = y * ((1 << (n - 1)) // y)
        result = divide(x, y, n, "adaptive")
        assert result.quotient == x // y
        assert result.correction_applied


def test_divide_small_exhaustive():
    for x in range(64):
        for y in range(1, 64):
            result = divide(x, y, 8, "adaptive")
            assert result.quotient == x // y


def test_divide_matches_oracle_n16():
    rng = random.Random(53)
    for _ in range(500):
        x = rng.randrange(1 << 16)
        y = rng.randint(1, (1 << 16) - 1)
        assert divide(x, y, 16, "adaptive").quotient == x // y


def test_divide_strict_modes_16_and_64():
    rng = random.Random(54)
    for _ in range(50):
        x = rng.randrange(1 << 16)
        y = rng.randint(1, (1 << 16) - 1)
        assert divide(x, y, 16, "strict").quotient == x // y
    for _ in range(50):
        x = rng.randrange(1 << 64)
        y = rng.randint(1, (1 << 64) - 1)
        result = divide(x, y, 64, "strict")
        assert result.quotient == x // y
        if result.plan is not None:
            assert result.plan.moduli_count == 874


def test_divide_strict_8_raises_group_bound():
    with pytest.raises(GroupBoundError):
        divide(100, 7, 8, "strict")


def test_divide_rejects_bad_arguments():
    with pytest.raises(ZeroDivisionError):
        divide(10, 0, 8)
    with pytest.raises(ValueError):
        divide(256, 3, 8)
    with pytest.raises(ValueError):
        divide(10, 256, 8)
    with pytest.raises(ValueError):
        divide(-1, 3, 8)
    with pytest.raises(ValueError):
        divide(1, 1, 3)
    with pytest.raises(ValueError):
        divide(10, 3, 8, "turbo")


@pytest.mark.parametrize(
    "x, y, n, named",
    [
        (5.5, 2, 8, "dividend 5.5"),
        (True, 3, 8, "dividend True"),
        (float(2**60), 3, 64, "dividend 1.152921504606847e+18"),
        (5, 2.0, 8, "divisor 2.0"),
        (5, False, 8, "divisor False"),
        (5, 2, 8.0, "bit size 8.0"),
        (5, 2, "8", "bit size '8'"),
    ],
)
def test_divide_and_build_plan_reject_non_int_operands(x, y, n, named):
    match = f"^{re.escape(named)} is not an int$"
    with pytest.raises(TypeError, match=match):
        divide(x, y, n)
    if not named.startswith("dividend"):
        with pytest.raises(TypeError, match=match):
            build_plan(y, n)


def test_build_plan_refuses_a_divisor_out_of_range_for_the_bit_size():
    for y in (-3, 0, 1, 256):
        with pytest.raises(ValueError, match="^divisor out of range for the bit size$"):
            build_plan(y, 8)


def test_divide_takes_an_int_subclass_as_its_plain_int():
    class Wrong(int):
        def __mul__(self, other):
            return 0

    result = divide(Wrong(100), Wrong(7), Wrong(8))
    assert result.quotient == 14 and type(result.quotient) is int
    assert build_plan(Wrong(7), Wrong(8)) == build_plan(7, 8)


@pytest.mark.parametrize(
    "fn", [group_size, strict_moduli_count, adaptive_group_size, group_bound_report]
)
def test_layout_functions_check_the_bit_size_type(fn):
    for n, named in ((64.0, "64.0"), (True, "True"), ("64", "'64'")):
        with pytest.raises(TypeError, match=f"^bit size {named} is not an int$"):
            fn(n)

    class Wrong(int):
        def __mul__(self, other):
            return 0

        def bit_length(self):
            return 0

    assert fn(Wrong(64)) == fn(64)
    if fn is group_bound_report:
        assert type(fn(Wrong(64)).n) is int


def test_bit_size_bound_is_checked_before_static_parts(monkeypatch):
    def no_static_parts(n, mode):
        raise LookupError(f"static parts for n = {n}")

    monkeypatch.setattr(division, "_static_parts", no_static_parts)
    with pytest.raises(LookupError):
        build_plan(3, MAX_DIVISION_BITS)
    for mode in ("adaptive", "strict"):
        with pytest.raises(ValueError, match="above division bound"):
            build_plan(3, MAX_DIVISION_BITS + 1, mode)
        with pytest.raises(ValueError, match="above division bound"):
            divide(1, 3, MAX_DIVISION_BITS + 1, mode)
    # the fast paths need no plan, but obey the same bound
    with pytest.raises(ValueError, match="above division bound"):
        divide(0, 3, MAX_DIVISION_BITS + 1)


@pytest.mark.parametrize(
    "n", [10**400, 2**2000, 10**5000], ids=["10e400", "2e2000", "10e5000"]
)
@pytest.mark.parametrize(
    "fn, error, bound",
    [
        (prime_base, PrimeLimitError, "above ceiling 10000000"),
        (nth_prime, PrimeLimitError, "above ceiling 10000000"),
        (group_size, PrimeLimitError, "above ceiling 10000000"),
        (strict_moduli_count, PrimeLimitError, "above ceiling 10000000"),
        (adaptive_group_size, PrimeLimitError, "above ceiling 10000000"),
        (group_bound_report, PrimeLimitError, "above ceiling 10000000"),
        (lambda n: divide(1, 3, n), ValueError, "above division bound 2048"),
        (lambda n: build_plan(3, n), ValueError, "above division bound 2048"),
    ],
    ids=[
        "prime_base", "nth_prime", "group_size", "strict_moduli_count",
        "adaptive_group_size", "group_bound_report", "divide", "build_plan",
    ],
)
def test_huge_ints_get_crrkit_errors_of_bounded_length(fn, error, bound, n):
    # past about 10**308 a float of n overflows, and past 4300 digits str(n)
    # refuses; each function names its own bound before either is tried
    with pytest.raises(error) as info:
        fn(n)
    message = str(info.value)
    assert message.endswith(bound) and len(message) < 100, message


def test_unknown_mode_is_rejected_before_the_fast_paths(monkeypatch):
    def no_static_parts(n, mode):
        raise LookupError(f"static parts for mode {mode!r}")

    monkeypatch.setattr(division, "_static_parts", no_static_parts)
    # x == 0 and y == 1 need no plan, but still name a bad mode
    for x, y in ((0, 3), (7, 1), (7, 3)):
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            divide(x, y, 8, "bogus")
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        build_plan(3, 8, "bogus")
    # an unhashable mode is named too, not handed to the plan cache
    with pytest.raises(ValueError, match=re.escape("unknown mode ['adaptive']")):
        divide(7, 3, 8, ["adaptive"])
    with pytest.raises(ValueError, match=re.escape("unknown mode ['adaptive']")):
        build_plan(3, 8, ["adaptive"])


def test_plan_series_denominator_is_group_product():
    plan = build_plan(7, 8, "adaptive")
    assert plan.series[1] == math.prod(plan.groups)
    assert 8 + 9 * plan.group_size <= plan.moduli_count


def test_plan_reciprocal_gap_bound():
    rng = random.Random(55)
    for _ in range(50):
        y = rng.randint(2, (1 << 16) - 1)
        plan = build_plan(y, 16, "adaptive")
        num, den = plan.series
        gap = Fraction(plan.scaler.value, y) - Fraction(num, den)
        assert 0 <= gap <= Fraction(1, 1 << 16)


def test_the_layout_cache_keeps_only_the_last_layout():
    # each layout pins its whole prime base: 30,663 primes at n = 512 strict
    plan = divide((1 << 511) + 5, 3**200, 512, "strict").plan
    first = weakref.ref(plan.base)
    del plan
    assert divide(1000, 7, 64, "strict").quotient == 142
    gc.collect()
    assert first() is None
