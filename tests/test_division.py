"""Division pipeline: scaler, groups, series, and exact quotients."""

import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crrkit import (
    MAX_DIVISION_BITS,
    GroupBoundError,
    PrimeLimitError,
    Scaler,
    adaptive_group_size,
    build_groups,
    build_plan,
    build_scaler,
    divide,
    division,
    group_bound_report,
    group_size,
    nth_prime,
    prime_base,
    reciprocal_series,
    series_numerators,
    strict_moduli_count,
)
from crrkit.division import _floor_div_log2
from _support import (
    UnderApprox,
    bisect_scaler,
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
    assert build_scaler(2, base) == Scaler(0, 1, 2)
    assert build_scaler(5, base) == Scaler(1, 1, 10)


def test_build_scaler_window_property():
    base = prime_base(32)
    prefix = prefix_products(base.moduli)
    rng = random.Random(50)
    for _ in range(300):
        y = rng.randint(3, (1 << 32) - 1)
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


def test_build_scaler_rejects():
    base = prime_base(4)
    with pytest.raises(ValueError):
        build_scaler(1, base)
    with pytest.raises(ValueError):
        build_scaler(base.product * 2, base)  # base too short to bracket


# --- groups ---


def test_build_groups_strict_64():
    base = prime_base(874)
    groups = build_groups(64, base, 10)
    assert len(groups) == 65
    first = math.prod(nth_prime(i) for i in range(67, 77))
    assert groups[0] == first
    assert all(g > 1 << 67 for g in groups)
    assert groups[0] == min(groups)


def test_build_groups_strict_8_fails():
    base = prime_base(45)
    with pytest.raises(GroupBoundError) as info:
        build_groups(8, base, 2)
    assert info.value.index == 1
    assert info.value.product == 31 * 37


def test_adaptive_group_size_examples():
    assert adaptive_group_size(8) == 3
    assert 31 * 37 * 41 == 47027 > 1 << 11
    assert adaptive_group_size(64) <= group_size(64)


def test_build_groups_adaptive_8():
    size = adaptive_group_size(8)
    base = prime_base(8 + 9 * size)
    groups = build_groups(8, base, size)
    assert len(groups) == 9
    assert groups[0] == 47027
    assert len(base.moduli) == 35


def test_build_groups_needs_enough_moduli():
    with pytest.raises(ValueError):
        build_groups(8, prime_base(10), 3)


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


def test_series_numerators_rejects_small_groups():
    with pytest.raises(GroupBoundError):
        series_numerators(3, 4, (5, 5, 5, 5, 5))


# --- reciprocal series ---


def test_reciprocal_series_all_zero():
    num, den = reciprocal_series((0, 0, 0), (100, 200, 300))
    assert num == den == 100 * 200 * 300


def test_reciprocal_series_half_closed_form():
    n = 8
    groups = (1 << (n + 4),) * (n + 1)
    numerators = (1 << (n + 3),) * (n + 1)
    num, den = reciprocal_series(numerators, groups)
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
        s_num, s_den = reciprocal_series(ts, groups)
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
# odd and even group counts around powers of two, where the last join pairs
# two runs after a carry or none
@example([(k + 1, 2 * k + 3) for k in range(4)])
@example([(k + 1, 2 * k + 3) for k in range(6)])
@example([(k + 1, 2 * k + 3) for k in range(7)])
@example([(k + 1, 2 * k + 3) for k in range(8)])
@example([(k + 1, 2 * k + 3) for k in range(9)])
@example([(k + 1, 2 * k + 3) for k in range(12)])
@example([(k + 1, 2 * k + 3) for k in range(16)])
@example([(k + 1, 2 * k + 3) for k in range(17)])
@example([(k + 1, 2 * k + 3) for k in range(33)])
def test_reciprocal_series_matches_suffix_product_oracle(terms):
    numerators = tuple(t for t, _ in terms)
    groups = tuple(a for _, a in terms)
    series = reciprocal_series(numerators, groups)
    assert series == suffix_product_series(numerators, groups)
    assert series == reference_horner_series(numerators, groups)


@pytest.mark.parametrize(
    "n, mode",
    [(n, "adaptive") for n in (4, 5, 8, 127, 128, 129)] + [(64, "strict")],
)
def test_plan_series_matches_horner(n, mode):
    rng = random.Random(n)
    for y in (2, 3, (1 << n) - 1, rng.randrange(2, 1 << n)):
        plan = build_plan(y, n, mode)
        assert plan.series == reference_horner_series(plan.numerators, plan.groups)


def test_reciprocal_series_rejects_mismatch():
    with pytest.raises(ValueError):
        reciprocal_series((1, 2), (10,))


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


def test_divide_by_two_uses_degenerate_scaler():
    for x in (0, 1, 2, 3, 100, 255):
        result = divide(x, 2, 8, "adaptive")
        assert result.quotient == x // 2
        if x > 0:
            assert result.plan.scaler == Scaler(0, 1, 2)
            assert result.correction_applied is False
            assert set(result.plan.numerators) == {0}


def test_divide_by_two_general_scaler_also_works():
    # same quotients through the non-degenerate scaler 4 = 2**2 * 1
    size = adaptive_group_size(8)
    base = prime_base(8 + 9 * size)
    groups = build_groups(8, base, size)
    numerators = series_numerators(2, 4, groups)
    num, den = reciprocal_series(numerators, groups)
    for x in (1, 2, 3, 100, 201, 255):
        candidate = x * num // (den * 4)
        q = candidate if candidate * 2 <= x < (candidate + 1) * 2 else candidate + 1
        assert q == x // 2


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
