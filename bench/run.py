"""crrkit benchmark: seeded closed-loop workloads against the public API and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread, one process: each op starts when the previous one has
returned.  Every op's output is checked; a wrong answer or an exception counts
as failed and makes the command exit 1.  The last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of fresh child processes), ops per second, latency percentiles of the
timed calls and the peak RSS of this process.  ``--trace 1`` reports the
per-layer metrics instead: it runs the workload untraced for a third of the
time, then with spans recorded around crrkit's public functions (see
spans.py) for the rest, and derives per-op self times, exact counts over the
first ops and the tracing overhead from that.

The sources are imported from ``src/`` next to this directory and nowhere
else; without them the command exits 2 and prints no result.
"""

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 9
MAX_ATTEMPTS = 64  # the CLI's default --max-attempts
REFERENCE_COPRIME_RATE = 6 / math.pi**2
Z_99 = 2.5758293035489


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, failed set-up)."""


class CheckFailed(Exception):
    """An op returned a wrong answer."""


def check(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_crrkit():
    """Import crrkit from this checkout's ``src/``, refusing any other copy."""
    package = ROOT / "src" / "crrkit"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no crrkit sources at {package}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    crrkit = importlib.import_module("crrkit")
    if Path(crrkit.__file__).resolve().parent != package.resolve():
        raise BenchError(f"crrkit imported from {crrkit.__file__}, not {package}")
    return crrkit


# --- workloads -------------------------------------------------------------
#
# Each workload does its set-up in __init__ (timed as setup_s) and exposes
# op(rng, index) -> (seconds spent in crrkit calls, record).  Inputs come from
# rng and the op index only, so a seed fixes the op sequence; counts(records)
# turns the records of the first min_ops ops into exact per-layer counts.


class DecodeWarm:
    """Encode two values, a*b + a in residues, reconstruct with warm weights."""

    min_ops = 50
    reference = ("mul", "mods")

    def __init__(self, crrkit, rng, workdir, r=1024):
        self.k = crrkit
        self.base = crrkit.prime_base(r)
        self.coefficients = crrkit.classical_coefficients(self.base)

    def op(self, rng, index):
        k, base, product = self.k, self.base, self.base.product
        x, y = rng.randrange(product), rng.randrange(product)
        start = time.perf_counter()
        a = k.encode(x, base)
        b = k.encode(y, base)
        got = k.reconstruct(a * b + a, self.coefficients)
        elapsed = time.perf_counter() - start
        check(got == (x * y + x) % product, "reconstruct(a*b + a) is wrong")
        return elapsed, None

    def counts(self, records):
        return {}


class CliRoundTrip:
    """``crrkit encode`` then ``crrkit decode --method ROUTE`` via cli.main.

    The pool's start indices are stratified over [2, max_start], one per
    equal-width stratum, so every seed sees the same spread of modulus sizes;
    ops cycle through a seeded order of the pool, which is larger than the
    32-entry base-keyed cache, so no per-base work is cached between ops.
    """

    route = None  # set by the per-route subclasses below

    def __init__(self, crrkit, rng, workdir, r=192, pool=48, max_start=5000):
        self.cli = importlib.import_module("crrkit.cli")
        self.r = r
        self.value_path = str(Path(workdir) / "value.crr")
        width = (max_start - 2 + 1) / pool
        self.bases = []
        for i in range(pool):
            first = 2 + int(i * width) + rng.randrange(max(1, int(width)))
            base = crrkit.ModuliBase.from_moduli(
                [crrkit.nth_prime(j) for j in range(first, first + r)])
            path = Path(workdir) / f"base-{i:02d}.txt"
            path.write_text(crrkit.format_base_line(base) + "\n", encoding="utf-8")
            self.bases.append((str(path), base.product, crrkit.default_n2_bound(base)))
        rng.shuffle(self.bases)

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.cli.main(argv)
            elapsed = time.perf_counter() - start
        check(code == 0, f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return elapsed, out.getvalue().splitlines()

    def op(self, rng, index):
        base_path, product, n2_bound = self.bases[index % len(self.bases)]
        value = rng.randrange(product)
        seed = rng.getrandbits(32)
        encode = ["encode", "--base-file", base_path, "--value", str(value),
                  "--out", self.value_path]
        decode = ["decode", "--in", self.value_path, "--method", self.route,
                  "--stats", "--seed", str(seed)]
        t_encode, lines = self._main(encode)
        check(lines == ["reduced 0", f"out {self.value_path}"], f"encode printed {lines}")
        t_decode, lines = self._main(decode)
        check(lines[0] == str(value), "decoded value is wrong")
        stats = dict(line.split(" ", 1) for line in lines[1:])
        check(stats.get("method") == self.route, "decode reported another method")
        calls = int(stats["egcd_calls"])
        r = self.r
        if self.route == "prob":
            # The CLI prints egcd_calls and attempts from the same field, so
            # their equality cannot fail; the checks that can are the seed,
            # the default coefficient bound of the parsed base and the
            # attempt limit.
            attempts = int(stats["attempts"])
            check(stats.get("seed") == str(seed), "decode echoed another seed")
            check(stats.get("n2_bound") == str(n2_bound), "decode used another n2_bound")
            check(1 <= attempts <= MAX_ATTEMPTS and calls == attempts,
                  f"{attempts} attempts, {calls} egcd calls")
        else:
            law = {"classical": r, "sequential": r - 1, "garner": r * (r - 1) // 2}
            check(calls == law[self.route], f"egcd calls {calls} break the route's law")
            attempts = 0
        return t_encode + t_decode, (calls, attempts)

    def counts(self, records):
        calls = sum(c for c, _ in records)
        print(f"counts {self.route}: {calls} egcd calls in {len(records)} ops")
        metrics = {f"reconstruct.egcd_calls.{self.route}": calls / len(records)}
        if self.route == "prob":
            # Each op ends with exactly one useful draw.
            # first_draw_ratio is 1 / attempts_mean; it is kept for the
            # interval against 6/pi^2 printed with it.
            useful, draws = len(records), sum(a for _, a in records)
            metrics["reconstruct.prob.attempts_mean"] = draws / useful
            metrics["reconstruct.prob.first_draw_ratio"] = useful / draws
            low, high = wilson_interval(useful, draws)
            inside = low <= REFERENCE_COPRIME_RATE <= high
            print(f"first_draw_ratio {useful}/{draws} 99% interval "
                  f"[{low:.4f}, {high:.4f}] 6/pi^2 {'inside' if inside else 'OUTSIDE'}")
            if not inside:
                print("flag: 6/pi^2 outside the first-draw 99% interval",
                      file=sys.stderr)
        return metrics


class Divide:
    """Adaptive-mode divide(x, y, n): x uniform below 2**n, y of random length."""

    min_ops = 200
    reference = ("wide",)

    def __init__(self, crrkit, rng, workdir, n=128):
        self.k, self.n = crrkit, n
        # The static plan parts (group size, extension base, group products)
        # are cached per bit size; the first division builds them.
        check(crrkit.divide(2, 3, n).quotient == 0, "set-up division is wrong")

    def op(self, rng, index):
        n = self.n
        x = rng.getrandbits(n)
        length = rng.randint(2, n)
        y = rng.randrange(1 << (length - 1), 1 << length)
        start = time.perf_counter()
        result = self.k.divide(x, y, n)
        elapsed = time.perf_counter() - start
        check(result.quotient == x // y, "divide returned a wrong quotient")
        plan = result.plan
        if plan is None:
            return elapsed, None
        return elapsed, (result.correction_applied, plan.series[0].bit_length(),
                         plan.moduli_count, plan.group_size)

    def counts(self, records):
        planned = [r for r in records if r is not None]
        print(f"counts divide: {sum(r[0] for r in planned)} corrections and "
              f"{sum(r[1] for r in planned)} series bits in {len(planned)} planned ops")
        return {
            "division.correction_ratio": sum(r[0] for r in planned) / len(planned),
            "division.series_bits": sum(r[1] for r in planned) / len(planned),
            "division.moduli_count": planned[0][2],
            "division.group_size": planned[0][3],
        }


class CliClassical(CliRoundTrip):
    route, min_ops, reference = "classical", 100, ("loop", "args")


class CliSequential(CliRoundTrip):
    route, min_ops, reference = "sequential", 30, ("mul", "wide")


class CliGarner(CliRoundTrip):
    route, min_ops, reference = "garner", 40, ("loop", "euclid")


class CliProb(CliRoundTrip):
    route, min_ops, reference = "prob", 300, ("args", "mul", "wide")


WORKLOADS = {
    "decode-warm": DecodeWarm,
    "cli-classical": CliClassical,
    "cli-sequential": CliSequential,
    "cli-garner": CliGarner,
    "cli-prob": CliProb,
    "divide": Divide,
}

CLI = ("cli-classical", "cli-sequential", "cli-garner", "cli-prob")

# Which end-to-end metric each per-layer metric should move, on which workloads.
MOVES = {
    "moduli.prime_base.ms": ("setup_s", tuple(WORKLOADS)),
    "moduli.prime_base.op_ms": ("latency_p50_ms, ops_per_s", ("divide",)),
    "moduli.parse_base_line.ms": ("latency_p50_ms", CLI),
    "vectors.encode.ms": ("latency_p50_ms, ops_per_s", ("decode-warm", *CLI, "divide")),
    "vectors.ring.ms": ("latency_p50_ms, ops_per_s", ("decode-warm",)),
    "vectors.parse.ms": ("latency_p50_ms", CLI),
    "vectors.serialize.ms": ("latency_p50_ms", CLI),
    "reconstruct.reconstruct.ms": (
        "latency_p50_ms", ("decode-warm", "cli-classical", "cli-sequential")),
    "reconstruct.classical_coefficients.ms": (
        "latency_p50_ms, latency_p90_ms", ("cli-classical",)),
    "reconstruct.sequential_coefficients.ms": (
        "latency_p50_ms, latency_p90_ms, ops_per_s", ("cli-sequential",)),
    "reconstruct.garner_converter.ms": ("latency_p50_ms, latency_p90_ms", ("cli-garner",)),
    "reconstruct.garner_decode.ms": ("latency_p50_ms, latency_p90_ms", ("cli-garner",)),
    "reconstruct.probabilistic_reconstruct.ms": (
        "latency_p50_ms, latency_p90_ms", ("cli-prob",)),
    "reconstruct.egcd_calls.classical": ("latency_p50_ms", ("cli-classical",)),
    "reconstruct.egcd_calls.sequential": ("latency_p50_ms", ("cli-sequential",)),
    "reconstruct.egcd_calls.garner": ("latency_p50_ms", ("cli-garner",)),
    "reconstruct.egcd_calls.prob": ("latency_p50_ms, latency_p90_ms", ("cli-prob",)),
    "reconstruct.prob.attempts_mean": ("latency_p50_ms, latency_p90_ms", ("cli-prob",)),
    "reconstruct.prob.first_draw_ratio": ("latency_p90_ms", ("cli-prob",)),
    "division.build_scaler.ms": ("latency_p50_ms, ops_per_s", ("divide",)),
    "division.series_numerators.ms": ("latency_p50_ms, ops_per_s", ("divide",)),
    "division.build_plan.self_ms": ("latency_p50_ms, ops_per_s", ("divide",)),
    "division.divide.self_ms": ("latency_p50_ms, ops_per_s", ("divide",)),
    "division.correction_ratio": ("latency_p50_ms", ("divide",)),
    "division.series_bits": ("latency_p50_ms, latency_p90_ms", ("divide",)),
    "division.moduli_count": ("setup_s, latency_p50_ms", ("divide",)),
    "division.group_size": ("setup_s, latency_p50_ms", ("divide",)),
    "cli.encode.self_ms": ("latency_p50_ms", CLI),
    "cli.decode.self_ms": ("latency_p50_ms", CLI),
    "trace.overhead_ratio": ("ops_per_s, traced over untraced", tuple(WORKLOADS)),
}


# --- measurement -----------------------------------------------------------


# On a shared virtual machine (a 2-vCPU Xeon VM at 2.1 GHz, where this was
# measured) the speed one process gets drifted by up to 1.9x over tens of
# seconds, far more than any bound worth gating on, and by different
# factors for different kinds of work: wide big-int products slowed the
# most, big-by-small remainders hardly at all.  So every time the benchmark
# reports is scaled to a reference speed.  After each op it times a fixed
# reference made of the REF_PARTS that do the same kind of work as the
# workload's op (each workload's ``reference``), divides the op's time by
# the median of the nearby reference times and multiplies by the
# reference's nominal duration, REF_PART_S per part.  The parts owe nothing
# to crrkit, so a change to crrkit moves the scaled time as it moves the
# raw one, while a change of machine speed moves op and reference alike and
# cancels.  The reference runs twice and only the second, cache-warm run is
# timed, so the op's memory footprint does not leak into it.  One reference
# for every workload tracked the drift worse on most workloads and made
# decode-warm's spread wider than the raw one (see README.md).  The unscaled
# metrics are printed before the result.
REF_PART_S = 0.0001
REF_WINDOW = 9
# Set-up is import, sieve and base building in every workload: mostly
# interpreter work, which these two parts tracked best.
SETUP_REFERENCE = ("loop", "text")
_ref = random.Random(20261017)
_A, _B = _ref.getrandbits(4096), _ref.getrandbits(4096)
_M, _X = _ref.getrandbits(4000) | 1, _ref.getrandbits(11000)
_D, _G, _H = _ref.getrandbits(2500), _ref.getrandbits(2600), _ref.getrandbits(2600)
_W1, _W2 = _ref.getrandbits(15000), _ref.getrandbits(15000)
_SMALL = tuple(range(10007, 10087, 2))


def _loop():
    total = 0
    for i in range(1100):
        total += i * i % 7
    return total


def _mul():
    value = _A
    for _ in range(2):
        value = value * _B % _M
    return value


def _mods():
    return sum(_X % m for m in _SMALL)


def _text():
    return sum(int(word) for word in " ".join(str(_D + i) for i in range(5)).split(" "))


def _euclid():
    a, b, s, t = _G, _H, 1, 0
    for _ in range(80):
        q = a // b
        a, b, s, t = b, a - q * b, t, s - q * t
    return s


def _wide():
    return _W1 * _W2


def _args():
    parser = argparse.ArgumentParser(prog="reference", add_help=False)
    parser.add_argument("--value", type=int)
    parser.add_argument("--out")
    return parser.parse_args(["--value", "12345", "--out", "x"]).value


# About REF_PART_S each: an interpreter loop, 4096-bit products, remainders
# of an 11000-bit integer by small moduli, int <-> decimal text, Euclid steps
# on 2600-bit integers, one 15000-bit product, and building and running a
# two-option argparse parser.
REF_PARTS = {"loop": _loop, "mul": _mul, "mods": _mods, "text": _text,
             "euclid": _euclid, "wide": _wide, "args": _args}


def reference_seconds(parts) -> float:
    """Seconds for one cache-warm run of the named reference parts."""
    calls = [REF_PARTS[name] for name in parts]
    for call in calls:
        call()
    start = time.perf_counter()
    for call in calls:
        call()
    return time.perf_counter() - start


def scale(timed, refs, parts):
    """Scale each (op index, seconds) by the median of the references around it."""
    nominal = REF_PART_S * len(parts)
    half = REF_WINDOW // 2
    return [t * nominal / statistics.median(refs[max(0, i - half): i + half + 1])
            for i, t in timed]


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def measure(workload, rng, seconds, min_ops=1, tracer=None):
    """Closed loop: ops until ``seconds`` have passed and ``min_ops`` are done.

    Returns raw and reference-scaled latencies of the ops that passed.
    """
    raw, refs, records, failures = [], [], [], 0
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    while attempted < min_ops or time.perf_counter() < deadline:
        attempted += 1
        if tracer is not None:
            tracer.op = attempted
        try:
            latency, record = workload.op(rng, attempted - 1)
        except Exception:  # every failure is counted and shown, never swallowed
            failures += 1
            print(f"op {attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            refs.append(reference_seconds(workload.reference))
        raw.append((attempted - 1, latency))
        records.append(record)
    return {
        "elapsed": time.perf_counter() - start,
        "attempted": attempted,
        "failed": failures,
        "raw": [t for _, t in raw],
        "latencies": scale(raw, refs, workload.reference),
        "records": records,
    }


def probe_setup(name: str, seed: int, probes: int) -> tuple[float, float]:
    """Median unscaled and scaled set-up seconds over ``probes`` fresh children."""
    times = []
    for _ in range(probes):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, cwd=ROOT,
        )
        if child.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{child.stderr}")
        times.append([float(t) for t in child.stdout.split()[-2:]])
    raw, scaled = (statistics.median(column) for column in zip(*times))
    return raw, scaled


def setup(name, seed, workdir, sizes, tracer=None):
    """Import crrkit and build the workload; returns (workload, seconds)."""
    start = time.perf_counter()
    crrkit = load_crrkit()
    with tracer or contextlib.nullcontext():
        workload = WORKLOADS[name](
            crrkit, random.Random(f"setup:{seed}"), workdir, **sizes)
    return workload, time.perf_counter() - start


def timing_metrics(latencies) -> dict:
    """Ops per second of time in crrkit calls and nearest-rank percentiles."""
    ordered = sorted(latencies)
    return {
        "ops_per_s": len(ordered) / sum(ordered),
        "latency_p50_ms": percentile(ordered, 0.50) * 1e3,
        "latency_p90_ms": percentile(ordered, 0.90) * 1e3,
    }


def end_to_end(name, seed, seconds, workload, probes):
    """Timed run with tracing off; the end-to-end metrics.

    The same metrics before scaling are printed on the line before the result.
    """
    run = measure(workload, random.Random(seed), seconds)
    if not run["latencies"]:
        return run, {}
    raw_setup, setup_s = probe_setup(name, seed, probes)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {"setup_s": setup_s, **timing_metrics(run["latencies"]), "peak_rss_mib": rss}
    unscaled = {"setup_s": raw_setup, **timing_metrics(run["raw"]), "peak_rss_mib": rss}
    if len(run["latencies"]) < 100:
        print(f"warning: {len(run['latencies'])} samples; p90 has fewer than 10 "
              f"beyond it", file=sys.stderr)
    print(f"samples {len(run['latencies'])} ops in {run['elapsed']:.3f} s, "
          f"{probes} set-up probes")
    print(f"unscaled {json.dumps(unscaled)}")
    return run, metrics


def per_layer(seed, seconds, workload, tracer):
    """Untraced third, then traced rest; per-layer metrics from the traced part."""
    plain = measure(workload, random.Random(seed), seconds / 3)
    compared = len(plain["latencies"])
    with tracer:
        traced = measure(workload, random.Random(seed), seconds * 2 / 3,
                         min_ops=max(workload.min_ops, compared), tracer=tracer)
    run = {key: plain[key] + traced[key] for key in ("attempted", "failed")}
    ops = len(traced["latencies"])
    if not ops or not plain["latencies"]:
        return run, {}
    metrics = dict.fromkeys(MOVES, 0.0)
    # Span times are scaled like the op times: by the traced part's speed.
    speed = sum(traced["latencies"]) / sum(traced["raw"])
    metrics.update({name: ms * speed for name, ms in tracer.layer_times(ops).items()})
    first = traced["records"][: workload.min_ops]
    metrics.update(workload.counts(first))
    # Throughput ratio on the same first ops: untraced time / traced time.
    metrics["trace.overhead_ratio"] = sum(plain["latencies"]) / sum(
        traced["latencies"][:compared])
    print(f"traced {ops} ops, {len(tracer.spans)} spans; counts over the first "
          f"{len(first)} ops")
    return run, metrics


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 99% confidence."""
    p = successes / trials
    z2 = Z_99 * Z_99
    centre = (p + z2 / (2 * trials)) / (1 + z2 / trials)
    half = Z_99 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / (
        1 + z2 / trials)
    return centre - half, centre + half


def run_workload(name, seed, seconds, trace, sizes=None, probes=None):
    """One benchmark run; returns the result object printed as the last line."""
    spec = load_spec()
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    sizes = sizes or {}
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if trace:
            tracer = Tracer()
            workload, _ = setup(name, seed, workdir, sizes, tracer)
            run, metrics = per_layer(seed, seconds, workload, tracer)
            tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
            for metric, (moves, workloads) in MOVES.items():
                if metric in metrics:
                    print(f"layer {metric} {metrics[metric]:.6g} {declared[metric]} "
                          f"-> {moves} on {', '.join(workloads)}")
        else:
            workload, _ = setup(name, seed, workdir, sizes)
            run, metrics = end_to_end(name, seed, seconds, workload,
                                      probes or SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = run["failed"] == 0
    if correct and set(metrics) != set(declared):
        raise BenchError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
    return {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m: {"value": v, "unit": declared[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up of the workload and print seconds")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            OUT_DIR.mkdir(exist_ok=True)
            workdir = tempfile.mkdtemp(prefix="probe-", dir=OUT_DIR)
            parts = SETUP_REFERENCE
            before = statistics.median(reference_seconds(parts) for _ in range(5))
            try:
                _, seconds = setup(args.workload, args.seed, workdir, {})
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            after = statistics.median(reference_seconds(parts) for _ in range(5))
            nominal = REF_PART_S * len(parts)
            print(repr(seconds), repr(seconds * 2 * nominal / (before + after)))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
