"""Command line for the residue arithmetic toolkit.

Output is line-oriented ``key value`` pairs (tables only under --pretty).
Exit codes: 0 success, 2 usage or parse failure, 3 algorithmic failure.
All randomized subcommands take --seed (default 0, echoed; "random" opts
into entropy) and produce byte-identical output for identical arguments.
"""

import argparse
import hashlib
import math
import multiprocessing
import random
import secrets
import sys
from dataclasses import dataclass

from .division import DivideResult, divide, group_bound_report
from .errors import AttemptsExhaustedError, CrrError, GroupBoundError, ParseError
from .moduli import format_base_line, pairwise_coprime, parse_base_line, prime_base
from .reconstruct import (
    chain_weights,
    classical_coefficients,
    coprime_form_attempts,
    default_n2_bound,
    garner_converter,
    probabilistic_reconstruct,
    reconstruct,
    sequential_coefficients,
)
from .vectors import encode, parse, serialize

USAGE_EXIT = 2
FAILURE_EXIT = 3

REFERENCE_COPRIME_RATE = 6 / math.pi**2


@dataclass(frozen=True)
class RunConfig:
    """Normalized arguments of one CLI run."""

    command: str
    seed: int = 0
    trials: int = 1
    n: int | None = None
    count: int | None = None
    method: str | None = None
    mode: str | None = None
    in_path: str | None = None
    out_path: str | None = None
    jobs: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")


def _config(args) -> RunConfig:
    return RunConfig(
        command=args.command,
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 1),
        n=getattr(args, "n", None),
        count=getattr(args, "count", None),
        method=getattr(args, "method", None),
        mode=getattr(args, "mode", None),
        in_path=getattr(args, "in_path", None),
        out_path=getattr(args, "out", None),
        jobs=getattr(args, "jobs", 1),
    )


def _seed_arg(text: str) -> int:
    if text == "random":
        return secrets.randbits(64)
    try:
        return int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer or 'random'")


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as handle:
        return handle.read()


def _write_file(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _ensure(condition: bool, message: str):
    if not condition:
        raise CrrError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crrkit", description="residue number system arithmetic toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-base", help="print a prime moduli base line")
    p.add_argument("--count", type=int, required=True, help="number of moduli")
    p.add_argument("--out", help="write the base line to a file instead")
    p.set_defaults(handler=_cmd_gen_base)

    p = sub.add_parser("encode", help="encode an integer as a CRR file")
    p.add_argument("--value", type=int, required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--base-file", help="file holding one base line")
    source.add_argument("--count", type=int, help="use the generated prime base")
    p.add_argument("--out", help="write the CRR file here instead of stdout")
    p.set_defaults(handler=_cmd_encode)

    p = sub.add_parser("decode", help="decode a CRR file back to its integer")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument(
        "--method",
        choices=("classical", "sequential", "garner", "prob"),
        default="classical",
    )
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--n2-bound", type=int, dest="n2_bound")
    p.add_argument("--max-attempts", type=int, dest="max_attempts", default=64)
    p.add_argument("--stats", action="store_true", help="also print call counts")
    p.set_defaults(handler=_cmd_decode)

    p = sub.add_parser("div", help="exact floor division through a residue plan")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="operand bit size")
    p.add_argument("--mode", choices=("strict", "adaptive"), default="adaptive")
    p.add_argument("--verify", action="store_true", help="cross-check the quotient")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_div)

    p = sub.add_parser("prob-stats", help="coprime statistics of random linear forms")
    p.add_argument("--r", type=int, required=True, help="number of moduli")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--n2-bound", type=int, dest="n2_bound")
    p.add_argument("--max-attempts", type=int, dest="max_attempts", default=64)
    p.add_argument("--jobs", type=int, default=1, help="parallel trial workers")
    p.set_defaults(handler=_cmd_prob_stats)

    p = sub.add_parser("check-bound", help="group floor reports over a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument(
        "--assert-ge",
        type=int,
        dest="assert_ge",
        help="fail if any row with n >= this bound does not hold",
    )
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(handler=_cmd_check_bound)

    p = sub.add_parser("selftest", help="deterministic end-to-end battery")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return parser


def _cmd_gen_base(args) -> int:
    cfg = _config(args)
    line = format_base_line(prime_base(cfg.count))
    if cfg.out_path:
        _write_file(cfg.out_path, line + "\n")
        print(f"out {cfg.out_path}")
    else:
        print(line)
    return 0


def _cmd_encode(args) -> int:
    cfg = _config(args)
    if args.base_file:
        base = parse_base_line(_read_file(args.base_file))
    else:
        base = prime_base(cfg.count)
    reduced = not 0 <= args.value < base.product
    text = serialize(encode(args.value, base))
    if cfg.out_path:
        _write_file(cfg.out_path, text)
        print(f"reduced {int(reduced)}")
        print(f"out {cfg.out_path}")
    else:
        sys.stdout.write(text)
        print(f"reduced {int(reduced)}", file=sys.stderr)
    return 0


def _cmd_decode(args) -> int:
    cfg = _config(args)
    vector = parse(_read_file(cfg.in_path))
    stats = [f"method {cfg.method}"]
    if cfg.method == "classical":
        coefficients = classical_coefficients(vector.base)
        value = reconstruct(vector, coefficients)
        stats.append(f"egcd_calls {coefficients.egcd_calls}")
    elif cfg.method == "sequential":
        coefficients, _ = sequential_coefficients(vector.base)
        value = reconstruct(vector, coefficients)
        stats.append(f"egcd_calls {coefficients.egcd_calls}")
    elif cfg.method == "garner":
        converter = garner_converter(vector.base)
        value = converter.decode(vector)
        stats.append(f"egcd_calls {converter.egcd_calls}")
    else:
        rng = random.Random(cfg.seed)
        value, sample = probabilistic_reconstruct(
            vector, rng, n2_bound=args.n2_bound, max_attempts=args.max_attempts
        )
        stats.extend(
            (
                f"seed {cfg.seed}",
                f"n2_bound {sample.n2_bound}",
                f"attempts {sample.attempts}",
                f"egcd_calls {sample.attempts}",
            )
        )
    print(value)
    if args.stats:
        for line in stats:
            print(line)
    return 0


def _div_report(result: DivideResult, n: int) -> list[tuple[str, object]]:
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
    cfg = _config(args)
    result = divide(args.x, args.y, cfg.n, cfg.mode)
    rows = _div_report(result, cfg.n)
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


def _trial_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _stats_trial(task):
    base, n2_bound, max_attempts, trial_seed = task
    rng = random.Random(trial_seed)
    return coprime_form_attempts(base, rng, n2_bound, max_attempts)


def _cmd_prob_stats(args) -> int:
    cfg = _config(args)
    if args.r < 1:
        raise ValueError("r must be positive")
    base = prime_base(args.r)
    bound = args.n2_bound or default_n2_bound(base)
    if bound < 1:
        raise ValueError("n2-bound must be positive")
    tasks = [
        (base, bound, args.max_attempts, _trial_seed(cfg.seed, i))
        for i in range(cfg.trials)
    ]
    if cfg.jobs > 1:
        with multiprocessing.Pool(cfg.jobs) as pool:
            results = pool.map(
                _stats_trial, tasks, chunksize=max(1, cfg.trials // (cfg.jobs * 4))
            )
    else:
        results = [_stats_trial(task) for task in tasks]
    first_hits = sum(1 for first, _, _ in results if first)
    mean_attempts = sum(attempts for _, attempts, _ in results) / cfg.trials
    print(f"r {args.r}")
    print(f"trials {cfg.trials}")
    print(f"seed {cfg.seed}")
    print(f"n2_bound {bound}")
    print(f"coprime_fraction {first_hits / cfg.trials:.6f}")
    print(f"mean_attempts {mean_attempts:.6f}")
    print(f"reference {REFERENCE_COPRIME_RATE:.6f}")
    return 0


def _cmd_check_bound(args) -> int:
    if args.n_min < 4 or args.n_max < args.n_min:
        raise ValueError("need 4 <= n-min <= n-max")
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


def _cmd_selftest(args) -> int:
    cfg = _config(args)
    print(f"seed {cfg.seed}")
    rng = random.Random(cfg.seed)
    for name, check in (
        ("moduli", _self_moduli),
        ("roundtrip", _self_roundtrip),
        ("egcd_counts", _self_egcd_counts),
        ("telescoping", _self_telescoping),
        ("serialization", _self_serialization),
        ("division", _self_division),
        ("division_strict", _self_division_strict),
        ("group_bound", _self_group_bound),
        ("linear_forms", _self_linear_forms),
    ):
        try:
            check(rng)
        except Exception as exc:  # report the failing stage, then bail
            print(f"selftest {name} FAIL: {exc}", file=sys.stderr)
            return FAILURE_EXIT
        print(f"selftest {name} ok")
    print("selftest pass")
    return 0


def _self_moduli(rng):
    base = prime_base(8)
    _ensure(base.moduli == (5, 7, 11, 13, 17, 19, 23, 29), "unexpected prime base")
    _ensure(pairwise_coprime(base), "prime base not coprime")
    _ensure(base.prefix_products[0] == 1, "prefix products must start at 1")
    _ensure(base.prefix_products[-1] == base.product, "prefix mismatch")


def _self_roundtrip(rng):
    base = prime_base(8)
    classical = classical_coefficients(base)
    sequential, _ = sequential_coefficients(base)
    garner = garner_converter(base)
    for _ in range(100):
        x = rng.randrange(base.product)
        vector = encode(x, base)
        _ensure(reconstruct(vector, classical) == x, "classical")
        _ensure(reconstruct(vector, sequential) == x, "sequential")
        _ensure(garner.decode(vector) == x, "garner")
        got, _ = probabilistic_reconstruct(vector, rng)
        _ensure(got == x, "probabilistic")


def _self_egcd_counts(rng):
    base = prime_base(10)
    _ensure(classical_coefficients(base).egcd_calls == 10, "classical count")
    sequential, _ = sequential_coefficients(base)
    _ensure(sequential.egcd_calls == 9, "sequential count")
    _ensure(garner_converter(base).egcd_calls == 45, "garner count")


def _self_telescoping(rng):
    base = prime_base(12)
    _, chain = sequential_coefficients(base)
    weights = chain_weights(chain)
    total = sum(w * (base.product // m) for w, m in zip(weights, base.moduli))
    _ensure(total == 1, "telescoping identity")


def _self_serialization(rng):
    base = prime_base(6)
    for _ in range(50):
        vector = encode(rng.randrange(base.product), base)
        _ensure(parse(serialize(vector)) == vector, "round trip")


def _self_division(rng):
    _ensure(divide(100, 7, 8, "adaptive").quotient == 14, "100 // 7")
    for _ in range(500):
        x = rng.randrange(1 << 16)
        y = rng.randint(1, (1 << 16) - 1)
        _ensure(divide(x, y, 16, "adaptive").quotient == x // y, "16-bit")


def _self_division_strict(rng):
    x = rng.randrange(1 << 64)
    y = rng.randint(2, (1 << 64) - 1)
    result = divide(x, y, 64, "strict")
    _ensure(result.quotient == x // y, "64-bit strict")
    _ensure(result.plan.moduli_count == 874, "strict moduli count")


def _self_group_bound(rng):
    for n in range(64, 81):
        _ensure(group_bound_report(n).holds, f"bound at n={n}")
    _ensure(not group_bound_report(8).holds, "n=8 must fail")


def _self_linear_forms(rng):
    base = prime_base(8)
    hits = 0
    for _ in range(200):
        first, _, succeeded = coprime_form_attempts(base, rng)
        _ensure(succeeded, "form draw exhausted")
        hits += first
    _ensure(0.40 <= hits / 200 <= 0.80, "coprime rate out of range")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (GroupBoundError, AttemptsExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
