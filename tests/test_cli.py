"""Command line behaviour: outputs, exit codes, determinism."""

import contextlib
import io
import itertools
import os
import random
import sys
import time
import tracemalloc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crrkit import (
    MAX_DIVISION_BITS,
    CrrError,
    cli,
    coprime_form_stats,
    division,
    encode,
    format_base_line,
    moduli,
    parse_base_line,
    prime_base,
    probabilistic_reconstruct,
    sequential_coefficients,
)
from crrkit.cli import main
from _support import (
    ROUTES,
    base_cost,
    largest_affordable_prime_base,
    reference_main,
    run_python,
    wide_mersenne_base,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(text):
    return text.splitlines()


# --- gen-base ---


def test_gen_base_stdout(capsys):
    code, out, err = run(capsys, "gen-base", "--count", "4")
    assert code == 0
    assert out == "base 4 5 7 11 13\n"
    assert err == ""


def test_gen_base_to_file(capsys, tmp_path):
    path = tmp_path / "base.txt"
    code, out, _ = run(capsys, "gen-base", "--count", "3", "--out", str(path))
    assert code == 0
    assert out == f"out {path}\n"
    assert path.read_text() == "base 3 5 7 11\n"


@pytest.mark.parametrize("chunks", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_gen_base_writes_the_formatted_line_across_chunks(capsys, tmp_path, chunks):
    whole, extra = chunks
    count = whole * moduli._CHUNK_PRIMES + extra
    line = format_base_line(moduli.prime_base(count)) + "\n"
    assert run(capsys, "gen-base", "--count", str(count)) == (0, line, "")
    path = tmp_path / "base.txt"
    path.write_text("x" * (len(line) + 100))  # overwritten, then cut to length
    code, out, _ = run(capsys, "gen-base", "--count", str(count), "--out", str(path))
    assert (code, out) == (0, f"out {path}\n")
    assert path.read_text() == line


def test_gen_base_peak_memory_is_bounded_by_the_chunk(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(moduli, "_CHUNK_PRIMES", 256)
    count, path = 100 * 256, tmp_path / "base.txt"
    moduli.nth_prime(count + 2)  # the sieve cache is not part of the peak
    cli.build_parser()
    tracemalloc.start()
    try:
        code = main(["gen-base", "--count", str(count), "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    line = path.read_text()
    assert line == format_base_line(moduli.prime_base(count)) + "\n"
    # a chunk's 256 strs and their join, and the file's write buffer; the
    # line alone is 168 kB, and one chunk of all 25,600 primes peaks at 1.9 MB
    assert peak < 64 * 1024 < len(line) // 2


def test_gen_base_zero_count_is_usage_error(capsys):
    code, _, err = run(capsys, "gen-base", "--count", "0")
    assert code == 2
    assert "error" in err


# --- encode ---


def test_encode_stdout_stream(capsys):
    code, out, err = run(capsys, "encode", "--value", "23", "--count", "3")
    assert code == 0
    assert out == "CRR1\nbase 3 5 7 11\nres 3 2 1\n"
    assert err == "reduced 0\n"


def test_encode_to_file(capsys, tmp_path):
    path = tmp_path / "x.crr"
    code, out, _ = run(
        capsys, "encode", "--value", "23", "--count", "3", "--out", str(path)
    )
    assert code == 0
    assert lines_of(out) == ["reduced 0", f"out {path}"]
    assert path.read_text() == "CRR1\nbase 3 5 7 11\nres 3 2 1\n"


def test_encode_overwrites_a_longer_file_in_place(capsys, tmp_path):
    path = tmp_path / "x.crr"
    path.write_text("stale line\n" * 50)
    inode = path.stat().st_ino
    code, _, _ = run(
        capsys, "encode", "--value", "23", "--count", "3", "--out", str(path)
    )
    assert code == 0
    assert path.read_bytes() == b"CRR1\nbase 3 5 7 11\nres 3 2 1\n"
    assert path.stat().st_ino == inode


def test_encode_to_a_device_is_not_cut(capsys):
    code, out, _ = run(
        capsys, "encode", "--value", "23", "--count", "3", "--out", os.devnull
    )
    assert code == 0
    assert lines_of(out) == ["reduced 0", f"out {os.devnull}"]


def test_encode_reduced_flag_for_out_of_range_value(capsys):
    code, out, err = run(capsys, "encode", "--value", "-5", "--count", "3")
    assert code == 0
    assert err == "reduced 1\n"
    assert lines_of(out)[2] == "res 0 2 6"  # -5 mod 385 == 380


def test_encode_with_base_file(capsys, tmp_path):
    base_path = tmp_path / "base.txt"
    assert run(capsys, "gen-base", "--count", "5", "--out", str(base_path))[0] == 0
    out_path = tmp_path / "x.crr"
    code, _, _ = run(
        capsys,
        "encode",
        "--value",
        "104",
        "--base-file",
        str(base_path),
        "--out",
        str(out_path),
    )
    assert code == 0
    assert out_path.read_text().startswith("CRR1\nbase 5 5 7 11 13 17\n")
    # a CRR file is not a base file: its first line is not a base line
    argv = ("encode", "--value", "3", "--base-file", str(out_path))
    assert run(capsys, *argv) == (
        2, "", "parse error: line 1: expected a single base line\n"
    )


# --- decode ---


@pytest.fixture
def encoded_23(tmp_path, capsys):
    path = tmp_path / "v.crr"
    main(["encode", "--value", "23", "--count", "10", "--out", str(path)])
    capsys.readouterr()
    return str(path)


def test_decode_all_methods_agree(capsys, encoded_23):
    for method in ("classical", "sequential", "garner", "prob"):
        code, out, _ = run(capsys, "decode", "--in", encoded_23, "--method", method)
        assert code == 0
        assert out == "23\n"


def test_decode_stats_call_counts(capsys, encoded_23):
    code, out, _ = run(
        capsys, "decode", "--in", encoded_23, "--method", "sequential", "--stats"
    )
    assert code == 0
    assert lines_of(out) == ["23", "method sequential", "egcd_calls 9"]

    code, out, _ = run(
        capsys, "decode", "--in", encoded_23, "--method", "garner", "--stats"
    )
    assert lines_of(out) == ["23", "method garner", "egcd_calls 45"]

    code, out, _ = run(
        capsys, "decode", "--in", encoded_23, "--method", "classical", "--stats"
    )
    assert lines_of(out) == ["23", "method classical", "egcd_calls 10"]


def test_decode_prob_stats_block(capsys, encoded_23):
    code, out, _ = run(
        capsys, "decode", "--in", encoded_23, "--method", "prob", "--stats"
    )
    assert code == 0
    rows = lines_of(out)
    assert rows[0] == "23"
    assert rows[1] == "method prob"
    assert rows[2] == "seed 0"
    assert rows[3] == "n2_bound 65536"
    assert rows[4].startswith("attempts ")
    assert rows[5] == rows[4].replace("attempts", "egcd_calls")


def test_decode_prob_deterministic_per_seed(capsys, encoded_23):
    first = run(capsys, "decode", "--in", encoded_23, "--method", "prob", "--stats")
    second = run(capsys, "decode", "--in", encoded_23, "--method", "prob", "--stats")
    assert first == second


def test_decode_prob_exhaustion_is_failure_exit(capsys, encoded_23):
    # seed 5 needs 5 attempts on this vector, so 3 are exhausted
    argv = ("decode", "--in", encoded_23, "--method", "prob", "--seed", "5")
    code, out, _ = run(capsys, *argv, "--stats")
    assert code == 0
    assert "attempts 5" in lines_of(out)
    code, out, err = run(capsys, *argv, "--max-attempts", "3")
    assert code == 3
    assert out == ""
    assert "error" in err


def test_decode_prob_n2_bound_one_is_usage_error(capsys, encoded_23):
    argv = ("decode", "--in", encoded_23, "--method", "prob", "--n2-bound", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: n2_bound must be at least 2")


def test_decode_seeds_a_generator_only_for_prob(capsys, monkeypatch, encoded_23):
    made = []

    class Counted(random.Random):
        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(cli.random, "Random", Counted)
    for method in cli.METHODS:
        made.clear()
        argv = ("decode", "--in", encoded_23, "--method", method, "--seed", "7")
        assert run(capsys, *argv) == (0, "23\n", "")
        assert made == ([(7,)] if method == "prob" else []), method


def test_check_roundtrip_builds_each_deterministic_route_once(monkeypatch):
    expected = {
        "classical_coefficients": 1,
        "sequential_coefficients": 1,
        "garner_converter": 1,
        "reconstruct": 40,
        "probabilistic_reconstruct": 20,
    }
    calls = Counter()
    for name in expected:

        def counted(*args, _name=name, _route=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _route(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
    cli.check_roundtrip(prime_base(8), random.Random(0), 20)
    assert calls == expected


def test_check_roundtrip_draws_a_value_then_its_forms():
    # the order of the draws from rng fixes what every selftest seed checks
    base, seed = prime_base(8), 11
    checked = random.Random(seed)
    cli.check_roundtrip(base, checked, 30)
    rng = random.Random(seed)
    for _ in range(30):
        probabilistic_reconstruct(encode(rng.randrange(base.product), base), rng)
    assert checked.getstate() == rng.getstate()


@pytest.mark.parametrize("method", cli.METHODS)
def test_check_egcd_counts_checks_the_decode_records(monkeypatch, method):
    decoder = cli._decoder

    def miscounting(name, *args):
        decode = decoder(name, *args)

        def miscounted(vector):
            decoded = decode(vector)
            return decoded._replace(egcd_calls=decoded.egcd_calls + (name == method))

        return miscounted

    cli.check_egcd_counts(8)
    monkeypatch.setattr(cli, "_decoder", miscounting)
    with pytest.raises(CrrError, match=f"^{method} decode count$"):
        cli.check_egcd_counts(8)


def test_round_trip_beyond_int_str_digit_limit(capsys, tmp_path):
    # prime_base(1500) has a 5404-digit product, above the default limit
    # of 4300 digits for int <-> str conversion
    base_path, value_path = tmp_path / "base.txt", tmp_path / "v.crr"
    assert run(capsys, "gen-base", "--count", "1500", "--out", str(base_path))[0] == 0
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        value = str(parse_base_line(base_path.read_text()).product - 1)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(value) > limit
    argv = ("encode", "--value", value, "--base-file", str(base_path))
    assert run(capsys, *argv, "--out", str(value_path))[0] == 0
    for method in ("classical", "prob"):
        code, out, err = run(capsys, "decode", "--in", str(value_path), "--method", method)
        assert (code, out, err) == (0, value + "\n", "")
    # one modulus above the limit, and a residue of limit + 1 digits below it
    base_path.write_text(f"base 1 1{'0' * limit}1\n")
    value = value[: limit + 1]
    argv = ("encode", "--value", value, "--base-file", str(base_path))
    assert run(capsys, *argv, "--out", str(value_path))[0] == 0
    code, out, err = run(capsys, "decode", "--in", str(value_path))
    assert (code, out, err) == (0, value + "\n", "")
    assert sys.get_int_max_str_digits() == limit


class Reached(Exception):
    """Raised by a stand-in for the first costly call, past every check."""


@pytest.mark.parametrize(
    "method, first_costly_call",
    # a module-level pow shadows the builtin for the sequential chain's
    # inversions, the first costly call of its route
    [
        ("garner", "_radix_inverses"),
        ("sequential", "pow"),
        ("prob", "_first_coprime_draw"),
    ],
)
def test_decode_above_the_budget_fails_before_any_inversion_pair_or_draw(
    capsys, monkeypatch, tmp_path, method, first_costly_call
):
    def reached(*args, **kwargs):
        raise Reached(method)

    # the route holds the rule, so the stand-in is its first costly call
    monkeypatch.setattr(ROUTES, first_costly_call, reached, raising=False)
    top = largest_affordable_prime_base(method)
    paths = {r: tmp_path / f"{r}.crr" for r in (top, top + 1)}
    for r, path in paths.items():
        argv = ("encode", "--value", "5", "--count", str(r), "--out", str(path))
        assert run(capsys, *argv)[0] == 0
    argv = ("decode", "--in", str(paths[top + 1]), "--method", method, "--stats")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    cost = base_cost(method, prime_base(top + 1))
    assert err == (
        f"error: {method} on {top + 1} moduli costs {cost} units, "
        f"above the budget of {ROUTES.COST_BUDGET}\n"
    )
    with pytest.raises(Reached):
        main(["decode", "--in", str(paths[top]), "--method", method])


@pytest.fixture(scope="module")
def wide_crr(tmp_path_factory):
    """A CRR file of 5 over :func:`wide_mersenne_base`: 331 kB, 128 moduli."""
    path = tmp_path_factory.mktemp("wide") / "wide.crr"
    base = wide_mersenne_base()
    path.write_text(f"CRR1\n{format_base_line(base)}\nres{' 5' * 128}\n")
    return path


@pytest.mark.parametrize("method", ["garner", "sequential", "prob"])
def test_decode_refuses_a_few_wide_moduli_by_their_bits(capsys, wide_crr, method):
    # 16 to 64 times under the old count caps; 6.9-8.0 s a route before
    code, out, err = run(capsys, "decode", "--in", str(wide_crr), "--method", method)
    cost = base_cost(method, wide_mersenne_base())
    assert (code, out) == (2, "")
    assert err == (
        f"error: {method} on 128 moduli costs {cost} units, "
        f"above the budget of {ROUTES.COST_BUDGET}\n"
    )


def test_decode_prob_charges_the_n2_bound(capsys, monkeypatch, tmp_path):
    # on 8192 primes, whose default bound is admitted, a 4,299-digit bound
    # took 1.60 s against the budget's 1.3 s
    def reached(*args, **kwargs):
        raise Reached("prob")

    monkeypatch.setattr(ROUTES, "_first_coprime_draw", reached)
    path = tmp_path / "v.crr"
    argv = ("encode", "--value", "5", "--count", "8192", "--out", str(path))
    assert run(capsys, *argv)[0] == 0
    argv = ("decode", "--in", str(path), "--method", "prob")
    # 1953 words of moduli and 223 of the bound; then 29 and 30 words, the
    # widest bound admitted and the narrowest refused
    for bound, cost in (("1" + "0" * 4298, 2498560), (str(1 << 64 * 30), 2097216)):
        code, out, err = run(capsys, *argv, "--n2-bound", bound)
        assert (code, out) == (2, "")
        assert err == (
            f"error: prob on 8192 moduli costs {cost} units, "
            f"above the budget of {ROUTES.COST_BUDGET}\n"
        )
    for bound in (str(1 << 64 * 29), None):
        with pytest.raises(Reached):
            main([*argv, "--n2-bound", bound] if bound else argv)


def test_decode_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "decode", "--in", str(tmp_path / "nope.crr"))
    assert code == 2
    assert "error" in err


def test_decode_corrupt_file_is_parse_error(capsys, tmp_path):
    path = tmp_path / "bad.crr"
    path.write_text("CRR1\nbase 2 5 7\nres 2 9 1\n")
    code, _, err = run(capsys, "decode", "--in", str(path))
    assert code == 2
    assert err.startswith("parse error:")
    assert "line 3" in err


def test_decode_refuses_over_long_residue_by_its_text(capsys, tmp_path):
    digits = "1" + "0" * 200_000
    path = tmp_path / "long.crr"
    path.write_text(f"CRR1\nbase 1 5\nres {digits}\n")
    code, out, err = run(capsys, "decode", "--in", str(path))
    assert code == 2
    assert out == ""
    # refused by its length as text: no conversion of its 200,001 digits,
    # and the message quotes its first 20
    assert err == (
        f"parse error: line 3, token 2: residue {digits[:20]}... (200001 chars) "
        "not below modulus 5\n"
    )


def test_decode_rejects_unknown_method(capsys, encoded_23):
    code, _, _ = run(capsys, "decode", "--in", encoded_23, "--method", "magic")
    assert code == 2


def test_seed_rejects_too_large(capsys):
    code, _, err = run(capsys, "selftest", "--seed", str(1 << 64))
    assert code == 2
    assert "seed" in err


# --- div ---


def test_div_report(capsys):
    code, out, _ = run(capsys, "div", "--x", "100", "--y", "7", "--n", "8")
    assert code == 0
    rows = lines_of(out)
    assert rows[0] == "q 14"
    assert rows[1] == "correction 0"
    assert rows[2] == "n 8"
    assert "N 35" in rows
    assert "r_used 3" in rows
    assert "D 10" in rows
    assert "min_group_bits 16" in rows


def test_div_without_plan(capsys):
    code, out, _ = run(capsys, "div", "--x", "0", "--y", "9", "--n", "8")
    assert code == 0
    assert lines_of(out) == ["q 0", "correction 0", "n 8", "plan none"]


def test_div_strict_64(capsys):
    code, out, _ = run(
        capsys,
        "div",
        "--x", str(10**18), "--y", str(3**20), "--n", "64",
        "--mode", "strict", "--verify",
    )
    assert code == 0
    rows = lines_of(out)
    assert rows[0] == f"q {10**18 // 3**20}"
    assert "N 874" in rows
    assert "r_used 10" in rows
    assert rows[-1] == "verify ok"


def test_div_verify_reports_a_wrong_quotient(capsys, monkeypatch):
    argv = ("div", "--x", "100", "--y", "7", "--n", "8", "--verify")
    code, good, _ = run(capsys, *argv)
    assert code == 0 and lines_of(good)[-1] == "verify ok"
    division = sys.modules["crrkit.division"]
    divide = division.divide

    def off_by_one(*args):
        result = divide(*args)
        return result._replace(quotient=result.quotient + 1)

    monkeypatch.setattr(division, "divide", off_by_one)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (3, "verify mismatch\n")
    assert lines_of(out) == ["q 15", *lines_of(good)[1:-1]]


def test_div_correction_row(capsys):
    code, out, _ = run(capsys, "div", "--x", "100", "--y", "10", "--n", "8")
    assert code == 0
    assert lines_of(out)[:2] == ["q 10", "correction 1"]


def test_div_pretty_alignment(capsys):
    code, out, _ = run(
        capsys, "div", "--x", "100", "--y", "7", "--n", "8", "--pretty"
    )
    assert code == 0
    rows = lines_of(out)
    assert rows[0].startswith("q ")
    key_column = {row.split()[0] for row in rows}
    assert {"q", "correction", "min_group_bits"} <= key_column
    # aligned: the value column starts at one fixed offset
    offsets = {row.index(row.split()[1], len(row.split()[0])) for row in rows}
    assert len(offsets) == 1


def test_div_by_zero_is_usage_error(capsys):
    code, _, err = run(capsys, "div", "--x", "5", "--y", "0", "--n", "8")
    assert code == 2
    assert "error" in err


def test_div_strict_small_n_is_failure_exit(capsys):
    code, _, err = run(
        capsys, "div", "--x", "100", "--y", "7", "--n", "8", "--mode", "strict"
    )
    assert code == 3
    assert "group 1" in err


def test_div_out_of_range_operand(capsys):
    code, _, _ = run(capsys, "div", "--x", "256", "--y", "7", "--n", "8")
    assert code == 2


def test_div_above_bit_size_bound_fails_before_any_sieve(capsys, monkeypatch):
    # n = 15000 would need about 1.3e7 moduli; the bound on n stops it first
    def no_sieve(index):
        raise AssertionError("a prime was looked up")

    monkeypatch.setattr(division, "nth_prime", no_sieve)
    monkeypatch.setattr(division, "prime_base", no_sieve)
    monkeypatch.setattr(moduli, "_extend_primes", no_sieve)
    start = time.perf_counter()
    for mode in ("adaptive", "strict"):
        argv = ("div", "--x", "1", "--y", "3", "--n", "15000", "--mode", mode)
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: bit size 15000 above division bound {MAX_DIVISION_BITS}\n"
        )
    argv = ("div", "--x", "1", "--y", "3", "--n", str(MAX_DIVISION_BITS + 1))
    assert run(capsys, *argv)[:2] == (2, "")
    assert time.perf_counter() - start < 10


def test_internal_error_is_failure_exit_without_traceback(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("candidate quotient off by more than one")

    monkeypatch.setattr(division, "divide", broken)
    code, out, err = run(capsys, "div", "--x", "100", "--y", "7", "--n", "8")
    assert code == 3
    assert out == ""
    assert err == "internal error: candidate quotient off by more than one\n"


# --- prob-stats ---


def test_prob_stats_output(capsys):
    code, out, _ = run(
        capsys, "prob-stats", "--r", "8", "--trials", "400", "--seed", "7"
    )
    assert code == 0
    rows = lines_of(out)
    assert rows[0] == "r 8"
    assert rows[1] == "trials 400"
    assert rows[2] == "seed 7"
    assert rows[3] == "n2_bound 65536"
    fraction = float(rows[4].split()[1])
    assert 0.45 <= fraction <= 0.75
    mean = float(rows[5].split()[1])
    assert 1.0 <= mean < 2.5
    assert rows[6] == "exhausted 0"
    assert rows[7] == "reference 0.607927"


def _library_prob_stats_rows(r, trials, seed, max_attempts=64):
    """The figure rows prob-stats prints, from the library on one generator."""
    hits, attempts, exhausted = coprime_form_stats(
        prime_base(r), random.Random(seed), trials, max_attempts=max_attempts
    )
    return [
        f"coprime_fraction {hits / trials:.6f}",
        f"mean_attempts {attempts / trials:.6f}",
        f"exhausted {exhausted}",
    ]


def test_prob_stats_deterministic(capsys):
    argv = ["prob-stats", "--r", "6", "--trials", "120", "--seed", "11"]
    first = run(capsys, *argv)
    assert first == run(capsys, *argv)
    # pinned: a change to how the trials draw from the seed changes these figures
    assert first == (
        0,
        "r 6\ntrials 120\nseed 11\nn2_bound 65536\n"
        "coprime_fraction 0.625000\nmean_attempts 1.625000\nexhausted 0\n"
        "reference 0.607927\n",
        "",
    )
    assert lines_of(first[1])[4:7] == _library_prob_stats_rows(6, 120, 11)


def test_prob_stats_reports_exhausted_trials(capsys):
    # two attempts per trial leave 50 of the 300 trials without a coprime pair
    argv = ("prob-stats", "--r", "64", "--trials", "300", "--seed", "3")
    code, out, err = run(capsys, *argv, "--max-attempts", "2")
    assert (code, err) == (0, "")
    rows = lines_of(out)
    assert rows[5:7] == ["mean_attempts 1.373333", "exhausted 50"]
    assert rows[4:7] == _library_prob_stats_rows(64, 300, 3, max_attempts=2)


def test_prob_stats_rejects_bad_r(capsys):
    code, _, _ = run(capsys, "prob-stats", "--r", "0", "--trials", "10")
    assert code == 2


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--n2-bound", "0"),
        ("--max-attempts", "0"),
        ("--jobs", "2"),
        ("--max-attempts", "1" * 5000),
    ],
    ids=["--n2-bound", "--max-attempts", "--jobs", "--max-attempts-5000-digits"],
)
def test_prob_stats_rejects_zero_bound_or_attempts(capsys, flag, value):
    code, out, err = run(capsys, "prob-stats", "--r", "6", "--trials", "10", flag, value)
    assert code == 2
    assert out == ""
    assert "error" in err and flag in err


def test_prob_stats_n2_bound_one_rejected_before_any_trial(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a trial was started")

    # crrkit.reconstruct names the function, so reach the module by its key
    module = sys.modules["crrkit.reconstruct"]
    monkeypatch.setattr(module, "_first_coprime_draw", no_work)
    argv = ("prob-stats", "--r", "6", "--trials", "50", "--n2-bound", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: n2_bound must be at least 2")


@pytest.mark.parametrize(
    "r, bound",
    [
        pytest.param(1, None, id="1"),
        pytest.param(8192, None, id="8192"),
        pytest.param(31000, None, id="31000"),
        pytest.param(50000, None, id="50000"),
        pytest.param(1, "9" * 4299, id="1-4299-digits"),
        pytest.param(8, str(2**64), id="8-65-bits"),
        pytest.param(64, "9" * 1201, id="64-1201-digits"),
        pytest.param(2000, "9" * 4299, id="2000-4299-digits"),
    ],
)
def test_prob_stats_above_the_budget_fails_before_any_sieve_or_draw(
    capsys, monkeypatch, r, bound
):
    def reached(count):
        raise Reached(count)

    monkeypatch.setattr(cli, "prime_base", reached)
    bits = int(bound or 0).bit_length()
    each = ROUTES._cost("prob-stats", r, bits // 64, 0)
    allowed = ROUTES.COST_BUDGET // each
    # the charge the one rule replaced, per trial over r moduli, for the
    # coefficients' whole 64-bit words w: the rule admits exactly its runs
    w = bits // 64
    assert allowed == 2**19 // (16 + r + r * w // 8 + (r + 4 * w) ** 2 // 2048)
    flags = ("prob-stats", "--r", str(r)) + (("--n2-bound", bound) if bound else ())
    if allowed:  # 50000 moduli alone are over the budget
        with pytest.raises(Reached):
            main([*flags, "--trials", str(allowed)])
    for trials in (allowed + 1, 10**30):
        code, out, err = run(capsys, *flags, "--trials", str(trials))
        assert (code, out) == (2, "")
        assert err == (
            f"error: prob-stats on {r} moduli costs {trials * each} units, "
            f"above the budget of {ROUTES.COST_BUDGET}\n"
        )


def test_over_long_count_names_the_fault_and_cuts_the_token(capsys):
    for token, fault in (
        ("7" * 5000, "too large:"),
        ("-" + "7" * 5000, "must be a positive integer, not"),
    ):
        code, out, err = run(capsys, "gen-base", "--count", token)
        assert (code, out) == (2, "")
        assert err.endswith(
            f"error: argument --count: {fault} {token[:20]!r}... ({len(token)} chars)\n"
        )
        assert len(err) < 200


_VALID_CRR = "CRR1\nbase 2 5 7\nres 1 2\n"

# "{}" stands for the long token, in the argv or in the text of the file that
# "FILE" names; each case is run with the token made of each of its characters
_LONG_TOKEN_CASES = [
    ("gen-base --count {}", None, "x9"),
    ("encode --value {} --count 3", None, "x"),
    ("encode --value 5 --count {}", None, "x9"),
    ("encode --value 5 --base-file FILE", "base {} 5 7\n", "x9"),
    ("encode --value 5 --base-file FILE", "base 2 5 {}\n", "x"),
    ("decode --in FILE", "CRR1\nbase 2 5 7\nres 1 {}\n", "x9"),
    ("decode --in FILE --method prob --seed {}", _VALID_CRR, "x9"),
    ("decode --in FILE --method prob --n2-bound {}", _VALID_CRR, "x"),
    ("decode --in FILE --method prob --max-attempts {}", _VALID_CRR, "x"),
    ("div --x {} --y 3 --n 8", None, "x9"),
    ("div --x 5 --y {} --n 8", None, "x9"),
    ("div --x 5 --y 3 --n {}", None, "x9"),
    ("prob-stats --r {} --trials 5", None, "x9"),
    ("prob-stats --r 5 --trials {}", None, "x9"),
    ("prob-stats --r 5 --trials 5 --seed {}", None, "x9"),
    ("prob-stats --r 5 --trials 5 --n2-bound {}", None, "x"),
    ("prob-stats --r 5 --trials 5 --max-attempts {}", None, "x"),
    ("check-bound --n-min {} --n-max 10", None, "x9"),
    ("check-bound --n-min 8 --n-max {}", None, "x9"),
    ("check-bound --n-min 8 --n-max 10 --assert-ge {}", None, "x9"),
    ("selftest --seed {}", None, "x9"),
]


@pytest.mark.parametrize("length", [5_000, 100_000])
@pytest.mark.parametrize(
    "argv, file_text, fill",
    [
        pytest.param(argv, text, fill, id=f"{argv} [{(text or '').strip()}] {fill}")
        for argv, text, fills in _LONG_TOKEN_CASES
        for fill in fills
    ],
)
def test_over_long_token_gets_a_short_message(
    capsys, tmp_path, argv, file_text, fill, length
):
    token = fill * length
    path = tmp_path / "input.txt"
    if file_text is not None:
        path.write_text(file_text.format(token))
    args = [arg.format(token).replace("FILE", str(path)) for arg in argv.split()]
    code, out, err = run(capsys, *args)
    assert (code, out) == (2, "")
    # an argparse error comes after the subcommand's usage, a text that does
    # not depend on the token (decode's alone is 224 characters)
    *usage, message = err.splitlines()
    assert all(line.startswith(("usage: crrkit ", "     ")) for line in usage)
    assert 0 < len(message) < 300


def test_long_bound_inside_the_digit_limit_gets_a_short_message(capsys, tmp_path):
    # 4,000 digits pass argparse (the limit is 4,300), so the decode runs and
    # its one attempt fails; the error quotes the bound cut to 20 digits
    path = tmp_path / "v.crr"
    encoded = run(capsys, "encode", "--value", "23", "--count", "3", "--out", str(path))
    assert encoded[0] == 0
    nines = "9" * 4000
    argv = ("decode", "--in", str(path), "--method", "prob", "--seed", "0")
    code, out, err = run(capsys, *argv, "--n2-bound", nines, "--max-attempts", "1")
    assert (code, out) == (3, "")
    assert err == (
        "error: no coprime linear forms after 1 attempts "
        f"(coefficient bound {'9' * 20}... (4000 chars))\n"
    )
    assert len(err) < 300


# --- check-bound ---


def test_check_bound_above_the_division_bound_fails_before_any_row(
    capsys, monkeypatch
):
    def no_work(n):
        raise AssertionError("a row was built")

    monkeypatch.setattr(division, "group_bound_report", no_work)
    above = MAX_DIVISION_BITS + 1
    # the last pair's rows would also need primes past PRIME_INDEX_CEILING
    for n_min, n_max in ((4, above), (above, above), (9999997, 9999998)):
        argv = ("check-bound", "--n-min", str(n_min), "--n-max", str(n_max))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == (
            f"error: n-max {n_max} above division bound "
            f"{MAX_DIVISION_BITS}: div refuses the layouts of the rows past it\n"
        )
    monkeypatch.undo()
    top = str(MAX_DIVISION_BITS)
    code, out, _ = run(capsys, "check-bound", "--n-min", top, "--n-max", top)
    assert code == 0
    assert out.startswith(f"n {MAX_DIVISION_BITS} r ")


def test_check_bound_rows(capsys):
    code, out, _ = run(capsys, "check-bound", "--n-min", "8", "--n-max", "8")
    assert code == 0
    assert out == "n 8 r 2 m_next 31 holds 0\n"

    code, out, _ = run(capsys, "check-bound", "--n-min", "64", "--n-max", "64")
    assert out == "n 64 r 10 m_next 331 holds 1\n"


def test_check_bound_assert_ge_passes(capsys):
    code, _, err = run(
        capsys,
        "check-bound", "--n-min", "60", "--n-max", "80", "--assert-ge", "64",
    )
    assert code == 0
    assert err == ""


def test_check_bound_assert_ge_fails(capsys):
    code, _, err = run(
        capsys,
        "check-bound", "--n-min", "8", "--n-max", "10", "--assert-ge", "8",
    )
    assert code == 3
    assert "bound fails at n 8" in err


def test_check_bound_pretty_table(capsys):
    code, out, _ = run(
        capsys, "check-bound", "--n-min", "8", "--n-max", "9", "--pretty"
    )
    assert code == 0
    rows = lines_of(out)
    assert "holds" in rows[0]
    assert rows[1].endswith("no")


def test_check_bound_rejects_bad_range(capsys):
    code, _, _ = run(capsys, "check-bound", "--n-min", "10", "--n-max", "9")
    assert code == 2


# --- selftest ---


# each selftest stage, in order, and the function in crrkit.cli that it calls
SELFTEST_STAGES = (
    ("moduli", "_self_moduli"),
    ("roundtrip", "check_roundtrip"),
    ("egcd_counts", "check_egcd_counts"),
    ("telescoping", "_self_telescoping"),
    ("serialization", "_self_serialization"),
    ("division", "_self_division"),
    ("division_strict", "_self_division_strict"),
    ("group_bound", "check_group_bound"),
    ("linear_forms", "check_coprime_rate"),
)


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    assert err == ""
    rows = lines_of(out)
    assert rows[0] == "seed 0"
    for name, _ in SELFTEST_STAGES:
        assert f"selftest {name} ok" in rows
    assert rows[-1] == "selftest pass"


@pytest.mark.parametrize(
    "index, error",
    zip(
        range(len(SELFTEST_STAGES)),
        itertools.cycle((CrrError, RuntimeError, ValueError)),
    ),
)
def test_selftest_stops_at_the_first_failing_stage(capsys, monkeypatch, index, error):
    def failing(*args):
        raise error("planted")

    stage, check = SELFTEST_STAGES[index]
    monkeypatch.setattr(cli, check, failing)
    code, out, err = run(capsys, "selftest", "--seed", "7")
    assert (code, err) == (3, f"selftest {stage} FAIL: planted\n")
    passed = [f"selftest {name} ok" for name, _ in SELFTEST_STAGES[:index]]
    assert lines_of(out) == ["seed 7", *passed]


def test_selftest_deterministic(capsys):
    first = run(capsys, "selftest", "--seed", "5")
    second = run(capsys, "selftest", "--seed", "5")
    assert first == second


def test_selftest_telescoping_stage_catches_one_wrong_weight():
    coefficients = sequential_coefficients(prime_base(12))
    cli._self_telescoping(coefficients)
    weights = list(coefficients.weights)
    weights[5] = (weights[5] + 1) % coefficients.base.moduli[5]
    with pytest.raises(CrrError, match="^telescoping identity$"):
        cli._self_telescoping(coefficients._replace(weights=tuple(weights)))


# --- parser level ---


def test_missing_subcommand_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_reused_parser_matches_a_fresh_one(capsys, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    base, vector, bad = (tmp_path / name for name in ("b.txt", "v.crr", "bad.crr"))
    bad.write_text("CRR1\nbase 2 5 7\nres 2 9\n")
    prob = ("decode", "--in", str(vector), "--method", "prob", "--stats")
    calls = [
        ("gen-base", "--count", "4"),
        ("gen-base", "--count", "5", "--out", str(base)),
        ("encode", "--value", "23", "--base-file", str(base), "--out", str(vector)),
        ("encode", "--value", "-5", "--count", "3"),
        ("decode", "--in", str(vector), "--method", "garner", "--stats"),
        (*prob, "--seed", "random"),
        ("div", "--x", "100", "--y", "7", "--n", "8", "--verify"),
        ("prob-stats", "--r", "6", "--trials", "20"),
        ("check-bound", "--n-min", "8", "--n-max", "10", "--pretty"),
        ("selftest", "--seed", "3"),
        ("gen-base", "--count", "4", "stray"),  # left over: the top parser
        (),  # missing subcommand
        ("encode", "--value", "1"),  # neither --count nor --base-file
        ("decode", "--in", str(bad)),  # parse error
        (*prob, "--seed", "random"),
    ]

    def run_all():
        # the same "random" seeds in both runs, drawn at parse time
        draws = itertools.count(1 << 40)
        monkeypatch.setattr(
            random.SystemRandom, "getrandbits", lambda self, bits: next(draws)
        )
        return [run(capsys, *argv) for argv in calls]

    reused = run_all()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert reused == run_all()
    assert [code for code, _, _ in reused[-4:-1]] == [2, 2, 2]
    assert reused[-4][2].startswith("usage: crrkit")
    assert reused[-2][2].startswith("parse error: line 3, token 3:")
    code, out, err = reused[-5]
    assert (code, out) == (2, "")
    assert err.startswith("usage: crrkit [-h]")
    assert err.endswith("crrkit: error: unrecognized arguments: stray\n")
    seeds = [lines_of(reused[i][1])[2] for i in (5, -1)]
    assert seeds == [f"seed {1 << 40}", f"seed {(1 << 40) + 1}"]
    monkeypatch.undo()  # the cached parser again, with real entropy
    echoed = {lines_of(run(capsys, *prob, "--seed", "random")[1])[2] for _ in "ab"}
    assert len(echoed) == 2


def test_python_dash_m_runs_the_cli():
    expected = (0, "base 4 5 7 11 13\n", "")
    assert run_python("-m", "crrkit", "gen-base", "--count", "4") == expected


def test_import_builds_no_parser_and_loads_no_openssl():
    # hashlib loads OpenSSL (about 4 MiB resident), which no command needs,
    # prob-stats included.  dataclasses would pull in inspect, ast, dis and
    # tokenize at every start.
    code = (
        "import sys, crrkit.cli as cli; "
        "print(cli.build_parser.cache_info().currsize, "
        "*(name in sys.modules for name in ('hashlib', 'dataclasses', 'inspect'))); "
        "code = cli.main(['prob-stats', '--r', '6', '--trials', '20']); "
        "print(code, 'hashlib' in sys.modules)"
    )
    exit_code, out, err = run_python("-c", code)
    rows = lines_of(out)
    assert (exit_code, err, rows[0], rows[1], rows[-1]) == (
        0, "", "0 False False False", "r 6", "0 False"
    )


def test_encode_and_decode_never_import_division(tmp_path):
    # only div, check-bound and selftest divide; the others skip its compile
    base, vector = str(tmp_path / "b.txt"), str(tmp_path / "v.crr")
    code = (
        "import sys\n"
        "from crrkit.cli import main\n"
        f"main(['gen-base', '--count', '12', '--out', {base!r}])\n"
        f"main(['encode', '--value', '23', '--base-file', {base!r}, '--out', {vector!r}])\n"
        "for method in ('classical', 'sequential', 'garner', 'prob'):\n"
        f"    main(['decode', '--in', {vector!r}, '--method', method, '--stats'])\n"
        "print('crrkit.division' in sys.modules)\n"
    )
    status, out, err = run_python("-c", code)
    assert (status, err) == (0, "")
    rows = lines_of(out)
    assert rows[:3] == [f"out {base}", "reduced 0", f"out {vector}"]
    assert [row for row in rows if row.startswith("method ")] == [
        "method classical", "method sequential", "method garner", "method prob"
    ]
    assert rows.count("23") == 4
    assert rows[-1] == "False"


# --- bounded fuzz: every call exits 0, 2 or 3, with a message unless 0 ---

_SMALL = st.one_of(
    st.integers(1, 40).map(str), st.sampled_from(["0", "-1", "", "x", "1.5", "007"])
)
_TOKEN = st.one_of(_SMALL, st.sampled_from([str(2**64), str(10**30)]))


@st.composite
def _base_line(draw) -> str:
    """A base line: primes, moduli that share a factor, or any tokens."""
    tokens = draw(
        st.one_of(
            st.integers(1, 6).map(lambda r: [*map(str, moduli.prime_base(r).moduli)]),
            st.sampled_from([["7", "6", "10"], ["5", "7", "9", "6"], ["4", "4"]]),
            st.lists(_TOKEN, max_size=4),
        )
    )
    count = draw(st.one_of(st.just(str(len(tokens))), _TOKEN))
    return " ".join(("base", count, *tokens))


@st.composite
def _crr1(draw) -> str:
    """CRR1 text: a prime base with residues in range, or any base and tokens."""
    if not draw(st.booleans()):
        r = draw(st.integers(1, 6))
        base_line = format_base_line(moduli.prime_base(r))
        residues = draw(st.lists(st.integers(0, 4).map(str), min_size=r, max_size=r))
    else:
        base_line = draw(_base_line())
        residues = draw(st.lists(_TOKEN, max_size=7))
    magic = draw(st.sampled_from(["CRR1", "CRR1", "CRR2"]))
    return f"{magic}\n{base_line}\n{' '.join(('res', *residues))}\n"


def _file(lines) -> st.SearchStrategy[bytes]:
    """A file's bytes: lines, lines cut or carrying CR, raw text or non-UTF-8.

    The lines come whole in three branches of seven, so that many calls get
    past parsing.
    """
    return st.one_of(
        lines.map(str.encode),
        lines.map(str.encode),
        lines.map(str.encode),
        st.tuples(lines, st.integers(0, 40)).map(lambda t: t[0][: t[1]].encode()),
        lines.map(lambda text: text.replace("\n", "\r\n").encode()),
        st.text(alphabet="CRbaseres 0123456789-\n\r", max_size=30).map(str.encode),
        st.just(b"\xff\xfe base"),
    )


def _flag(name, values) -> st.SearchStrategy[tuple]:
    """The flag with one drawn value, or nothing."""
    return st.one_of(st.just(()), values.map(lambda value: (name, value)))


def _argv(*parts) -> st.SearchStrategy[tuple]:
    """One argv from fixed words, drawn words and drawn runs of words."""
    return st.tuples(*map(_words, parts)).map(
        lambda runs: tuple(itertools.chain.from_iterable(runs))
    )


def _words(part) -> st.SearchStrategy[tuple]:
    if isinstance(part, str):
        return st.just((part,))
    return part.map(lambda drawn: drawn if isinstance(drawn, tuple) else (drawn,))


_SWITCH = st.sampled_from([(), ("--stats",), ("--pretty",), ("--verify",)])
_SEED = st.sampled_from(["0", "7", "random", "-1", "x", str(2**64)])
_PATH = st.sampled_from(["@base", "@crr", "@out", "@missing", "@dir"])
_OUT = _flag("--out", _PATH)
_METHOD = st.sampled_from(["classical", "sequential", "garner", "garner", "prob", "x"])

# "@name" stands for a path in the test's directory; the files behind "@base"
# and "@crr" hold the example's bytes.  Sizes stay small: every count and bit
# size is at most 40 or far out of range, and --trials is at most 40 or past
# the prob-stats budget.
_TRIALS = st.one_of(_TOKEN, st.just(str(ROUTES.COST_BUDGET + 1)))
_ARGV = st.one_of(
    _argv("gen-base", "--count", _TOKEN, _OUT),
    _argv("encode", "--value", _TOKEN, "--count", _TOKEN, _OUT),
    _argv(
        "encode", "--value", _TOKEN,
        "--base-file", st.sampled_from(["@base", "@dir"]),
        _OUT,
    ),
    _argv("decode", "--in", "@crr", _flag("--method", _METHOD), _SWITCH),
    _argv(
        "decode", "--in", st.sampled_from(["@crr", "@missing", "@dir"]),
        _flag("--method", _METHOD),
        _flag("--seed", _SEED),
        _flag("--n2-bound", _TOKEN),
        _flag("--max-attempts", _TOKEN),
        _SWITCH,
    ),
    _argv(
        "div", "--x", _TOKEN, "--y", _TOKEN, "--n", _TOKEN,
        _flag("--mode", st.sampled_from(["strict", "adaptive", "x"])),
        _SWITCH,
    ),
    _argv(
        "prob-stats", "--r", _TOKEN, "--trials", _TRIALS,
        _flag("--seed", _SEED),
        _flag("--n2-bound", _TOKEN),
        _flag("--max-attempts", _TOKEN),
    ),
    _argv(
        "check-bound", "--n-min", _TOKEN, "--n-max", _TOKEN,
        _flag("--assert-ge", _TOKEN),
        _SWITCH,
    ),
    _argv("selftest", "--seed", st.sampled_from(["-1", "x", str(2**64)])),
    st.lists(_TOKEN, max_size=3).map(tuple),
)


GARNER_STATS = ("decode", "--in", "@crr", "--method", "garner", "--stats")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None)
@given(_ARGV, _file(_base_line()), _file(_crr1()))
@example(GARNER_STATS, b"", b"CRR1\nbase 1 5\nres 3\n")  # r = 1
@example(GARNER_STATS, b"", b"CRR1\nbase 3 7 6 10\nres 1 1 1\n")
@example(("encode", "--value", "9", "--base-file", "@base"), b"base 4 5 7 9 6\n", b"")
@example(("selftest", "--seed", "3"), b"", b"")
def test_cli_fuzz_exits_with_a_code_and_a_message(
    fuzz_dir, argv, base_bytes, crr_bytes
):
    code, _, err = _fuzz_call(main, fuzz_dir, argv, base_bytes, crr_bytes)
    assert code in (0, 2, 3)
    if code:
        assert err.strip()


def _fuzz_call(entry, fuzz_dir, argv, base_bytes, crr_bytes):
    """(exit code, stdout, stderr) of ``entry`` on argv, with "@name" paths.

    The files behind "@base" and "@crr" are written first, and "random"
    seeds draw 2**40, 2**40 + 1, ..., so every call on the same example
    sees the same files and seeds.
    """
    (fuzz_dir / "base.txt").write_bytes(base_bytes)
    (fuzz_dir / "v.crr").write_bytes(crr_bytes)
    paths = {
        "@base": fuzz_dir / "base.txt",
        "@crr": fuzz_dir / "v.crr",
        "@out": fuzz_dir / "out.txt",
        "@missing": fuzz_dir / "missing" / "out.txt",
        "@dir": fuzz_dir,
    }
    argv = [str(paths.get(arg, arg)) for arg in argv]
    draws = itertools.count(1 << 40)
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(
            random.SystemRandom, "getrandbits", lambda self, bits: next(draws)
        ),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


# the fuzz grammar, with a word appended, or its command replaced by an
# unknown or empty word: what the top parser handles on its own
_ORACLE_ARGV = st.one_of(
    _ARGV,
    st.tuples(_ARGV, st.sampled_from(["stray", "--", "-h"])).map(
        lambda t: (*t[0], t[1])
    ),
    st.tuples(st.sampled_from(["", "frobnicate", "encod", "--", "-h"]), _ARGV).map(
        lambda t: (t[0], *t[1][1:])
    ),
)


@settings(max_examples=150, deadline=None)
@given(_ORACLE_ARGV, _file(_base_line()), _file(_crr1()))
@example(("gen-base", "--count", "3", "stray"), b"", b"")
@example(("encode", "--value", "1", "--count", "3", "--"), b"", b"")
@example(("decode", "--in", "@crr", "--seed", "random", "stray"), b"", b"")
@example(("decode", "--in", "@crr", "-h"), b"", b"")
@example(("--help",), b"", b"")
@example((), b"", b"")
def test_one_parse_dispatch_matches_the_top_parser(
    fuzz_dir, argv, base_bytes, crr_bytes
):
    assert _fuzz_call(main, fuzz_dir, argv, base_bytes, crr_bytes) == _fuzz_call(
        reference_main, fuzz_dir, argv, base_bytes, crr_bytes
    )
