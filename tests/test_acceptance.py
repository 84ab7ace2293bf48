"""Acceptance battery: one test and one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

from crrkit import (
    build_plan,
    classical_coefficients,
    default_n2_bound,
    prime_base,
    sequential_coefficients,
    strict_moduli_count,
)
from crrkit import cli
from crrkit.division import MAX_DIVISION_BITS

from _support import BASES_SEED, UnderApprox, chain_weights, random_coprime_base


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:02d}: {label}")
        raise
    print(f"PASS criterion {number:02d}: {label}")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_round_trips_all_four_routes():
    with criterion(1, "10^4 round trips over 64 prime moduli, four routes"):
        cli.check_roundtrip(prime_base(64), random.Random(BASES_SEED), 10_000)


def test_criterion_02_extended_gcd_call_counts():
    with criterion(2, "egcd call counts r, r-1, r(r-1)/2 at r in {2,8,32,64}"):
        for r in (2, 8, 32, 64):
            cli.check_egcd_counts(r)


def test_criterion_03_sequential_matches_classical():
    with criterion(3, "sequential weights equal classical on 100 random bases"):
        rng = random.Random(BASES_SEED + 3)
        for _ in range(100):
            base = random_coprime_base(rng)
            sequential = sequential_coefficients(base)
            assert sequential.weights == classical_coefficients(base).weights


def test_criterion_04_telescoping_identity():
    with criterion(4, "unreduced chain weights telescope to exactly 1"):
        rng = random.Random(BASES_SEED + 4)
        for _ in range(100):
            base = random_coprime_base(rng)
            assert base._tree.combine(chain_weights(base)) == 1


def test_criterion_05_coprime_rate_and_attempts():
    with criterion(5, "coprime rate near 6/pi^2 and mean attempts below 2"):
        base = prime_base(16)
        assert default_n2_bound(base) == 1 << 16
        rng = random.Random(BASES_SEED + 5)
        assert cli.check_coprime_rate(base, rng, 10_000, 0.55, 0.70) < 2.0


def test_criterion_06_reciprocal_series_exact_rationals():
    with criterion(6, "1000 reciprocal series verified with exact rationals"):
        rng = random.Random(BASES_SEED + 6)
        sizes = (8, 16, 32)
        for index in range(1000):
            n = sizes[index % len(sizes)]
            y = rng.randint(2, (1 << n) - 1)
            plan = build_plan(y, n, "adaptive")
            scale = plan.scaler.value
            numerator, denominator = plan.series
            gap = Fraction(scale, y) - Fraction(numerator, denominator)
            assert 0 <= gap <= Fraction(1, 1 << n)
            target = Fraction(scale - y, scale)
            for t, a in zip(plan.numerators, plan.groups):
                assert UnderApprox(Fraction(t, a), target, n + 3).holds


def test_criterion_07_group_bound_range():
    label = f"group floor holds for all n in [64, {MAX_DIVISION_BITS}], fails at n=8"
    with criterion(7, label):
        # and fails at n = 8: 31**2 = 961 < 2**11
        cli.check_group_bound(64, MAX_DIVISION_BITS)


def test_criterion_08_division_exactness_and_branches():
    with criterion(8, "division exact: n=8 exhaustive plus 10^4 random per size"):
        every_pair = ((x, y) for x in range(256) for y in range(1, 256))
        corrections = cli.check_division(8, "adaptive", None, 0, *every_pair)
        rng = random.Random(BASES_SEED + 8)
        for n, mode in ((16, "adaptive"), (32, "adaptive"), (64, "strict")):
            corrections += cli.check_division(n, mode, rng, 10_000)
        assert corrections[False] > 0 and corrections[True] > 0


def test_criterion_09_strict_layout_economy():
    with criterion(9, "strict 64-bit layout uses 874 moduli in groups of 10"):
        plan = build_plan(12345, 64, "strict")
        assert plan.moduli_count == strict_moduli_count(64) == 874
        assert plan.group_size == 10
        assert len(plan.groups) == 65
        assert min(plan.groups) > 1 << 67
        assert 64 + 65 * plan.group_size <= plan.moduli_count
        assert plan.moduli_count < 2 * 64 * 64 + 5 * 64


def test_criterion_10_cli_selftest_and_determinism(tmp_path):
    with criterion(10, "CLI selftest passes; all subcommands deterministic"):
        code, out, err = run_cli("selftest")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "selftest pass"

        crr_path = tmp_path / "v.crr"
        invocations = (
            ("gen-base", "--count", "8"),
            ("encode", "--value", "104", "--count", "5", "--out", str(crr_path)),
            ("decode", "--in", str(crr_path), "--method", "sequential", "--stats"),
            ("decode", "--in", str(crr_path), "--method", "prob", "--stats"),
            ("div", "--x", "100", "--y", "7", "--n", "8", "--verify"),
            ("div", "--x", str(10**17), "--y", "12345", "--n", "64",
             "--mode", "strict", "--verify"),
            ("prob-stats", "--r", "6", "--trials", "50"),
            ("check-bound", "--n-min", "8", "--n-max", "16"),
            ("selftest", "--seed", "9"),
        )
        for argv in invocations:
            first = run_cli(*argv)
            second = run_cli(*argv)
            assert first[0] == 0
            assert first == second
