"""Per-layer size sweep, outside every workload.

    python3 bench/sweep.py [--seed N]

Times ``hash(base)``, ``encode``, ``reconstruct`` (classical weights),
``sequential_coefficients``, ``probabilistic_reconstruct`` and ``divide`` at
r in {64, 256, 1024, 4096} moduli and n in {16, 64, 128, 256} bits, and prints
each cell beside the baseline table of ROADMAP.md ("-" where the table has no
value).  Each cell is the median of up to five samples; a sample repeats the
call until it lasts at least 2 ms, so sub-microsecond calls are not lost in
timer overhead.  Samples after the first stop once BUDGET_S seconds have
passed.  The r = 1024 sequential cell takes tens of seconds.

The output records the Python version, ``os.cpu_count()``, the seed and the
git commit of the checkout, and ends with one JSON line holding every cell.
"""

import argparse
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from run import ROOT, load_crrkit

R_SIZES = (64, 256, 1024, 4096)
BUDGET_S = 1.0
N_SIZES = (16, 64, 128, 256)
# divide runs strict at n = 64 and adaptive elsewhere, as in the table.
DIVIDE_MODE = {64: "strict"}

# ROADMAP.md baseline table: (layer, size) -> value measured at that re-anchor.
TABLE = {
    ("hash(base)", 64): "2 us", ("hash(base)", 256): "26 us",
    ("hash(base)", 1024): "0.5-0.7 ms", ("hash(base)", 4096): "11 ms",
    ("encode", 64): "19 us", ("encode", 256): "0.19 ms",
    ("encode", 1024): "3.4 ms", ("encode", 4096): "68 ms",
    ("reconstruct", 64): "20 us", ("reconstruct", 256): "0.15 ms",
    ("reconstruct", 1024): "2.1-2.4 ms", ("reconstruct", 4096): "37 ms",
    ("sequential_coefficients", 64): "0.53 ms",
    ("sequential_coefficients", 256): "78 ms",
    ("sequential_coefficients", 1024): "20.4 s",
    ("probabilistic_reconstruct", 64): "0.56 ms",
    ("probabilistic_reconstruct", 256): "4.3 ms",
    ("probabilistic_reconstruct", 1024): "64 ms",
    ("divide", 64): "1.2 ms", ("divide", 128): "15 ms", ("divide", 256): "286 ms",
}
# Cells the table marks "-": too slow to be worth a sweep.
SKIP = {("sequential_coefficients", 4096), ("probabilistic_reconstruct", 4096)}


def time_call(fn, budget: float, samples: int = 5):
    """Median, min and max seconds per call of ``fn``, and the calls made.

    Samples after the first are taken while they fit in ``budget`` seconds.
    """
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= 0.002:
            break
        number *= 10
    times = [elapsed / number]
    deadline = time.perf_counter() + budget
    while len(times) < samples and time.perf_counter() + elapsed < deadline:
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times), min(times), max(times), len(times) * number


def cells(crrkit, rng, r_sizes, n_sizes):
    """Yield (layer, size, zero-argument call) for every cell of the sweep."""
    for r in r_sizes:
        base = crrkit.prime_base(r)
        vector = crrkit.encode(rng.randrange(base.product), base)
        weights = crrkit.classical_coefficients(base)
        draws = random.Random(rng.getrandbits(64))
        value = rng.randrange(base.product)
        yield "hash(base)", r, lambda base=base: hash(base)
        yield "encode", r, lambda base=base, value=value: crrkit.encode(value, base)
        yield "reconstruct", r, lambda v=vector, w=weights: crrkit.reconstruct(v, w)
        yield "sequential_coefficients", r, (
            lambda base=base: crrkit.sequential_coefficients(base))
        yield "probabilistic_reconstruct", r, (
            lambda v=vector, d=draws: crrkit.probabilistic_reconstruct(v, d))
    for n in n_sizes:
        mode = DIVIDE_MODE.get(n, "adaptive")
        pairs = []
        for _ in range(16):
            length = rng.randint(2, n)
            pairs.append((rng.getrandbits(n), rng.randrange(1 << (length - 1), 1 << length)))
        crrkit.divide(*pairs[0], n, mode)  # builds the cached static plan parts
        order = itertools.count()

        def call(n=n, mode=mode, pairs=pairs, order=order):
            x, y = pairs[next(order) % len(pairs)]
            if crrkit.divide(x, y, n, mode).quotient != x // y:
                raise AssertionError(f"divide({x}, {y}, {n}) is wrong")

        yield "divide", n, call


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def sweep(seed: int, budget: float = BUDGET_S, r_sizes=R_SIZES, n_sizes=N_SIZES):
    crrkit = load_crrkit()
    rng = random.Random(seed)
    records = []
    for layer, size, fn in cells(crrkit, rng, r_sizes, n_sizes):
        if (layer, size) in SKIP:
            continue
        median, low, high, calls = time_call(fn, budget)
        record = {"layer": layer, "size": size, "median_s": median, "min_s": low,
                  "max_s": high, "calls": calls, "table": TABLE.get((layer, size), "-")}
        print(f"{layer:27s} {size:>5} {median * 1e3:12.4f} ms  "
              f"[{low * 1e3:.4f}, {high * 1e3:.4f}]  table {record['table']}", flush=True)
        records.append(record)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    header = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
              "seed": args.seed, "commit": git_commit()}
    print(" ".join(f"{key} {value}" for key, value in header.items()))
    print(f"{'layer':27s} {'size':>5} {'median':>15}  [min, max]  ROADMAP table")
    print(json.dumps(dict(header, cells=sweep(args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
