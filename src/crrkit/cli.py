"""Command line for the residue arithmetic toolkit.

Output is line-oriented ``key value`` pairs (tables only under --pretty).
Exit codes: 0 success, 2 usage or parse failure, 3 algorithmic or internal
failure.
All randomized subcommands take --seed (default 0, echoed; "random" opts
into entropy) and produce byte-identical output for identical arguments.
"""

import argparse
import contextlib
import functools
import itertools
import math
import os
import random
import re
import stat
import sys
from collections import Counter
from typing import NamedTuple

from .errors import CrrError, ParseError, PrimeLimitError, excerpt
from .moduli import pairwise_coprime, prime_base, prime_base_chunks
from .reconstruct import (
    check_form_bounds,
    classical_coefficients,
    coprime_form_stats,
    garner_converter,
    probabilistic_reconstruct,
    reconstruct,
    require_affordable,
    sequential_coefficients,
)
from .vectors import base_line_pieces, encode, parse, parse_base_line, serialize

USAGE_EXIT = 2
FAILURE_EXIT = 3

REFERENCE_COPRIME_RATE = 6 / math.pi**2

METHODS = ("classical", "sequential", "garner", "prob")


def _seed_arg(text: str) -> int:
    if text == "random":
        return random.SystemRandom().getrandbits(64)
    try:
        seed = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer or 'random'")
    if not 0 <= seed < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return seed


def _positive_int(text: str) -> int:
    shown = excerpt(text)
    try:
        value = int(text, 10)
    except ValueError:
        # int() refuses decimals over sys.get_int_max_str_digits() digits;
        # such a number is past every budget, so it is not converted
        if re.fullmatch(r"\s*\+?\d(?:_?\d)*\s*", text):
            raise argparse.ArgumentTypeError(f"too large: {shown}")
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {shown}")
    return value


@contextlib.contextmanager
def _int_digits(digits: int):
    """Let int <-> str conversions of up to ``digits`` digits through.

    Python refuses decimal conversions above ``sys.get_int_max_str_digits()``
    digits (4300 by default).  The limit is raised only as far as one input
    needs, and restored on the way out.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old = get_limit() if get_limit else 0
    if old == 0 or digits <= old:  # 0: no limit
        yield
        return
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _int_arg(text: str) -> int:
    """An int within Python's int <-> str digit limit: the bit-size flags."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {excerpt(text)}")


def _long_int_arg(text: str) -> int:
    """An int of any length: --value, --x and --y."""
    with _int_digits(len(text)):
        return _int_arg(text)


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def _write_file(path: str, pieces):
    # Overwrite in place, then cut to length, rather than truncate on open:
    # ext4 flushes a file to disk when it is closed after a truncation to
    # zero, so every rewrite of an existing --out file waited on the disk.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(pieces)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            handle.truncate()


def _add_random_args(p, forms=True):
    """--seed, then the linear forms' --n2-bound and --max-attempts."""
    p.add_argument("--seed", type=_seed_arg, default=0)
    if forms:
        p.add_argument("--n2-bound", type=_positive_int, dest="n2_bound")
        p.add_argument(
            "--max-attempts", type=_positive_int, dest="max_attempts", default=64
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process.

    Reuse is safe: parsing keeps no state in the parser (``--seed random``
    draws inside its type function, and argparse looks up sys.stdout and
    sys.stderr when it prints).  Every caller shares the one parser, so none
    may change it; ``main`` does not.  ``main`` reads each command's own
    parser from the ``commands`` map kept on it.
    """
    parser = argparse.ArgumentParser(
        prog="crrkit", description="residue number system arithmetic toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # name -> that command's parser

    p = sub.add_parser("gen-base", help="print a prime moduli base line")
    p.add_argument(
        "--count", type=_positive_int, required=True, help="number of moduli"
    )
    p.add_argument("--out", help="write the base line to a file instead")
    p.set_defaults(handler=_cmd_gen_base)

    p = sub.add_parser("encode", help="encode an integer as a CRR file")
    p.add_argument("--value", type=_long_int_arg, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--base-file", help="file holding one base line")
    source.add_argument(
        "--count", type=_positive_int, help="use the generated prime base"
    )
    p.add_argument("--out", help="write the CRR file here instead of stdout")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode", help="decode a CRR file back to its integer")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--method", choices=METHODS, default="classical")
    _add_random_args(p)
    p.add_argument("--stats", action="store_true", help="also print call counts")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("div", help="exact floor division through a residue plan")
    p.add_argument("--x", type=_long_int_arg, required=True)
    p.add_argument("--y", type=_long_int_arg, required=True)
    p.add_argument("--n", type=_int_arg, required=True, help="operand bit size")
    p.add_argument("--mode", choices=("strict", "adaptive"), default="adaptive")
    p.add_argument("--verify", action="store_true", help="cross-check the quotient")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_div)

    p = sub.add_parser("prob-stats", help="coprime statistics of random linear forms")
    p.add_argument("--r", type=_positive_int, required=True, help="number of moduli")
    p.add_argument("--trials", type=_positive_int, required=True)
    _add_random_args(p)
    p.set_defaults(handler=_cmd_prob_stats)

    p = sub.add_parser("check-bound", help="group floor reports over a range of n")
    p.add_argument("--n-min", type=_int_arg, required=True)
    p.add_argument("--n-max", type=_int_arg, required=True)
    p.add_argument(
        "--assert-ge",
        type=_int_arg,
        dest="assert_ge",
        help="fail if any row with n >= this bound does not hold",
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_check_bound)

    p = sub.add_parser("selftest", help="deterministic end-to-end battery")
    _add_random_args(p, forms=False)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _cmd_gen_base(args) -> int:
    # the line of format_base_line(prime_base(count)), written a chunk of
    # primes at a time: no base, and no str per prime, for the whole count
    chunks = prime_base_chunks(args.count)
    pieces = itertools.chain(base_line_pieces(args.count, chunks), ["\n"])
    if args.out:
        _write_file(args.out, pieces)
        print(f"out {args.out}")
    else:
        sys.stdout.writelines(pieces)
    return 0


def _cmd_encode(args) -> int:
    # a base line holds every modulus in decimal, so its length bounds the
    # digits of each modulus and of each residue below it
    line = _read_file(args.base_file) if args.base_file else ""
    with _int_digits(len(line)):
        base = parse_base_line(line) if args.base_file else prime_base(args.count)
        text = serialize(encode(args.value, base))
    reduced = not 0 <= args.value < base.product
    if args.out:
        _write_file(args.out, [text])
        print(f"reduced {int(reduced)}")
        print(f"out {args.out}")
    else:
        sys.stdout.write(text)
        print(f"reduced {int(reduced)}", file=sys.stderr)
    return 0


class _Decoded(NamedTuple):
    """One decode; ``attempts`` and ``n2_bound`` are prob's, 0 for the others."""

    value: int
    egcd_calls: int
    attempts: int = 0
    n2_bound: int = 0


def _decoder(method: str, base, rng=0, n2_bound=None, max_attempts=64):
    """Build ``method``'s weights or converter for ``base`` once: the function
    vector -> ``_Decoded``.  Each route refuses a base past its own cap.

    ``rng`` is prob's generator, or a seed that only prob makes one of.  Routes
    are looked up in this module when called, where span patches replace them.
    """
    if method == "garner":
        garner = garner_converter(base)
        return lambda vector: _Decoded(garner.decode(vector), garner.egcd_calls)
    if method == "prob":
        rng = random.Random(rng) if isinstance(rng, int) else rng

        def decode(vector):
            value, draw = probabilistic_reconstruct(vector, rng, n2_bound, max_attempts)
            return _Decoded(value, draw.attempts, draw.attempts, draw.n2_bound)

        return decode
    route = classical_coefficients if method == "classical" else sequential_coefficients
    weights = route(base)
    return lambda vector: _Decoded(reconstruct(vector, weights), weights.egcd_calls)


def _cmd_decode(args) -> int:
    # the file holds every modulus in decimal, so its length bounds the
    # digits of each token and of the base product, hence of the value
    text = _read_file(args.in_path)
    with _int_digits(len(text)):
        vector = parse(text)
    decoded = _decoder(
        args.method, vector.base, args.seed, args.n2_bound, args.max_attempts
    )(vector)
    with _int_digits(len(text)):
        print(decoded.value)
    if args.stats:
        print(f"method {args.method}")
        if decoded.attempts:  # a route that draws: its seed, bound and draws
            print(f"seed {args.seed}")
            print(f"n2_bound {decoded.n2_bound}")
            print(f"attempts {decoded.attempts}")
        print(f"egcd_calls {decoded.egcd_calls}")
    return 0


def _div_report(result: "DivideResult", n: int) -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = [
        ("q", result.quotient),
        ("correction", int(result.correction_applied)),
        ("n", n),
    ]
    plan = result.plan
    if plan is None:
        rows.append(("plan", "none"))
        return rows
    rows.extend(
        (
            ("N", plan.moduli_count),
            ("r_used", plan.group_size),
            ("j", plan.scaler.prefix_len),
            ("k", plan.scaler.pow2),
            ("D", plan.scaler.value),
            ("min_group_bits", min(plan.groups).bit_length()),
        )
    )
    return rows


def _cmd_div(args) -> int:
    # imported here, as in every command that divides: encode and decode
    # never compile the division module
    from .division import divide

    result = divide(args.x, args.y, args.n, args.mode)
    rows = _div_report(result, args.n)
    if args.pretty:
        width = max(len(key) for key, _ in rows)
        for key, value in rows:
            print(f"{key:<{width}}  {value}")
    else:
        for key, value in rows:
            print(f"{key} {value}")
    if args.verify:
        if result.quotient != args.x // args.y:
            print("verify mismatch", file=sys.stderr)
            return FAILURE_EXIT
        print("verify ok")
    return 0


def _cmd_prob_stats(args) -> int:
    bound_bits = (args.n2_bound or 0).bit_length()
    require_affordable("prob-stats", args.r, bound_bits, runs=args.trials)
    base = prime_base(args.r)
    bound = check_form_bounds(base, args.n2_bound, args.max_attempts)
    trials = args.trials
    first_hits, attempts, exhausted = coprime_form_stats(
        base, random.Random(args.seed), trials, bound, args.max_attempts
    )
    print(f"r {args.r}")
    print(f"trials {trials}")
    print(f"seed {args.seed}")
    print(f"n2_bound {bound}")
    print(f"coprime_fraction {first_hits / trials:.6f}")
    print(f"mean_attempts {attempts / trials:.6f}")
    print(f"exhausted {exhausted}")
    print(f"reference {REFERENCE_COPRIME_RATE:.6f}")
    return 0


def _cmd_check_bound(args) -> int:
    from .division import MAX_DIVISION_BITS, group_bound_report

    if args.n_min < 4 or args.n_max < args.n_min:
        raise ValueError("need 4 <= n-min <= n-max")
    if args.n_max > MAX_DIVISION_BITS:
        # the cost of the rows grows about quadratically with n-max
        shown = excerpt(str(args.n_max), str)
        raise ValueError(
            f"n-max {shown} above division bound {MAX_DIVISION_BITS}: "
            "div refuses the layouts of the rows past it"
        )
    reports = [group_bound_report(n) for n in range(args.n_min, args.n_max + 1)]
    if args.pretty:
        print(f"{'n':>5} {'r':>4} {'m_next':>8} {'holds':>6}")
        for report in reports:
            holds = "yes" if report.holds else "no"
            print(
                f"{report.n:>5} {report.group_size:>4} "
                f"{report.next_modulus:>8} {holds:>6}"
            )
    else:
        for report in reports:
            print(
                f"n {report.n} r {report.group_size} "
                f"m_next {report.next_modulus} holds {int(report.holds)}"
            )
    if args.assert_ge is not None:
        failing = [r for r in reports if r.n >= args.assert_ge and not r.holds]
        if failing:
            print(f"bound fails at n {failing[0].n}", file=sys.stderr)
            return FAILURE_EXIT
    return 0


# --- checks shared by ``selftest`` and the acceptance battery; each raises
# CrrError on the first violation and draws from rng in a fixed order ---


def _ensure(condition: bool, message: str):
    if not condition:
        raise CrrError(message)


def check_roundtrip(base, rng, trials: int):
    """Random values below the product decode back through all four routes."""
    decoders = [(method, _decoder(method, base, rng)) for method in METHODS]
    for _ in range(trials):
        x = rng.randrange(base.product)
        vector = encode(x, base)
        for method, decode in decoders:
            _ensure(decode(vector).value == x, method)


def check_egcd_counts(r: int):
    """The call-count laws on the first r primes, also as --stats reports them."""
    base = prime_base(r)
    _ensure(classical_coefficients(base).egcd_calls == r, "classical count")
    _ensure(sequential_coefficients(base).egcd_calls == r - 1, "sequential count")
    _ensure(garner_converter(base).egcd_calls == r * (r - 1) // 2, "garner count")
    # the calls that build each route's weights or converter, then prob's one
    # per attempt: the egcd_calls that decode --stats prints
    vector = encode(base.product - 1, base)
    for method, law in zip(METHODS, (r, r - 1, r * (r - 1) // 2, 0)):
        decoded = _decoder(method, base)(vector)
        _ensure(decoded.egcd_calls == law + decoded.attempts, f"{method} decode count")


def check_division(n: int, mode: str, rng, trials: int, *pairs) -> Counter:
    """Exact quotients for pairs, then ``trials`` random ones; counts corrections."""
    from .division import divide

    draws = (
        (rng.randrange(1 << n), rng.randint(1, (1 << n) - 1)) for _ in range(trials)
    )
    corrections = Counter()
    for x, y in itertools.chain(pairs, draws):
        result = divide(x, y, n, mode)
        _ensure(result.quotient == x // y, f"{x} // {y} at n={n} ({mode})")
        corrections[result.correction_applied] += 1
    return corrections


def check_group_bound(lo: int, hi: int):
    """The group floor holds for every n in [lo, hi] and fails at n = 8."""
    from .division import group_bound_report

    for n in range(lo, hi + 1):
        _ensure(group_bound_report(n).holds, f"bound at n={n}")
    report = group_bound_report(8)
    _ensure(not report.holds, "n=8 must fail")
    _ensure(report.next_modulus**report.group_size == 961, "n=8 floor witness")


def check_coprime_rate(base, rng, trials: int, low: float, high: float) -> float:
    """First-draw coprime rate in [low, high]; returns the mean attempts."""
    hits, attempts_total, exhausted = coprime_form_stats(base, rng, trials)
    _ensure(not exhausted, "form draw exhausted")
    _ensure(low <= hits / trials <= high, "coprime rate out of range")
    return attempts_total / trials


def _cmd_selftest(args) -> int:
    print(f"seed {args.seed}")
    rng = random.Random(args.seed)
    for name, check in (
        ("moduli", _self_moduli),
        ("roundtrip", lambda: check_roundtrip(prime_base(8), rng, 100)),
        ("egcd_counts", lambda: check_egcd_counts(10)),
        ("telescoping", lambda: _self_telescoping(sequential_coefficients(prime_base(12)))),
        ("serialization", lambda: _self_serialization(rng)),
        ("division", lambda: _self_division(rng)),
        ("division_strict", lambda: _self_division_strict(rng)),
        ("group_bound", lambda: check_group_bound(64, 80)),
        ("linear_forms", lambda: check_coprime_rate(prime_base(8), rng, 200, 0.4, 0.8)),
    ):
        try:
            check()
        except Exception as exc:  # report the failing stage, then bail
            print(f"selftest {name} FAIL: {exc}", file=sys.stderr)
            return FAILURE_EXIT
        print(f"selftest {name} ok")
    print("selftest pass")
    return 0


def _self_moduli():
    base = prime_base(8)
    _ensure(base.moduli == (5, 7, 11, 13, 17, 19, 23, 29), "unexpected prime base")
    _ensure(pairwise_coprime(base), "prime base not coprime")


def _self_telescoping(coefficients):
    base, weights, _ = coefficients
    _ensure(base._tree.combine(weights) % base.product == 1, "telescoping identity")


def _self_serialization(rng):
    base = prime_base(6)
    for _ in range(50):
        vector = encode(rng.randrange(base.product), base)
        _ensure(parse(serialize(vector)) == vector, "round trip")


def _self_division(rng):
    check_division(8, "adaptive", rng, 0, (100, 7))
    check_division(16, "adaptive", rng, 500)


def _self_division_strict(rng):
    from .division import build_plan

    x = rng.randrange(1 << 64)
    y = rng.randint(2, (1 << 64) - 1)
    check_division(64, "strict", rng, 0, (x, y))
    _ensure(build_plan(y, 64, "strict").moduli_count == 874, "strict moduli count")


def _parse_args(argv: list) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, parsing argv once.

    The top parser would hand every word after the command to that command's
    parser, so a known command goes straight to its own parser.  Anything
    else, and a command that leaves words over, goes through the top parser,
    which prints its own usage and errors.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0])
        )
        if not extra:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    return _run(args)


def _run(args) -> int:
    """Run the parsed command; map its errors to a message and exit code."""
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (PrimeLimitError, ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except CrrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
