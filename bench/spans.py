"""Span recording around crrkit's public functions, from outside the package.

A :class:`Tracer` replaces public names where their callers look them up
(``crrkit.cli.sequential_coefficients``, ``crrkit.division.build_plan``,
``GarnerConverter.decode``, ...) with wrappers that record one span per call:
name, start, end, parent span and op id.  Op id 0 is set-up.  Spans stay in
memory until :meth:`Tracer.write` is called at the end of a run.

A span's self time is its duration minus the durations of its direct
children; the run is single-threaded, so children never overlap.
"""

import importlib
import json
import time
from collections import defaultdict

# (module, attribute path, span name).  A callable span name is applied to the
# call's first argument; ``cli.main`` is named after its subcommand.
PATCHES = (
    ("crrkit", "nth_prime", "moduli.nth_prime"),
    ("crrkit", "prime_base", "moduli.prime_base"),
    ("crrkit", "encode", "vectors.encode"),
    ("crrkit", "classical_coefficients", "reconstruct.classical_coefficients"),
    ("crrkit", "reconstruct", "reconstruct.reconstruct"),
    ("crrkit", "divide", "division.divide"),
    ("crrkit.vectors", "CrrVector.__add__", "vectors.ring"),
    ("crrkit.vectors", "CrrVector.__mul__", "vectors.ring"),
    ("crrkit.reconstruct", "GarnerConverter.decode", "reconstruct.garner_decode"),
    ("crrkit.division", "nth_prime", "moduli.nth_prime"),
    ("crrkit.division", "prime_base", "moduli.prime_base"),
    ("crrkit.division", "encode", "vectors.encode"),
    ("crrkit.division", "build_plan", "division.build_plan"),
    ("crrkit.division", "build_scaler", "division.build_scaler"),
    ("crrkit.division", "series_numerators", "division.series_numerators"),
    ("crrkit.cli", "main", lambda argv: f"cli.{argv[0]}"),
    ("crrkit.cli", "parse_base_line", "moduli.parse_base_line"),
    ("crrkit.cli", "prime_base", "moduli.prime_base"),
    ("crrkit.cli", "encode", "vectors.encode"),
    ("crrkit.cli", "serialize", "vectors.serialize"),
    ("crrkit.cli", "parse", "vectors.parse"),
    ("crrkit.cli", "classical_coefficients", "reconstruct.classical_coefficients"),
    ("crrkit.cli", "sequential_coefficients", "reconstruct.sequential_coefficients"),
    ("crrkit.cli", "garner_converter", "reconstruct.garner_converter"),
    ("crrkit.cli", "probabilistic_reconstruct", "reconstruct.probabilistic_reconstruct"),
    ("crrkit.cli", "reconstruct", "reconstruct.reconstruct"),
)

# Per-layer time metrics: metric name -> span name.  Each is the span's self
# time per measured op, in ms; ``.self_ms`` marks spans that have children.
OP_TIMES = {
    "moduli.parse_base_line.ms": "moduli.parse_base_line",
    "vectors.encode.ms": "vectors.encode",
    "vectors.ring.ms": "vectors.ring",
    "vectors.parse.ms": "vectors.parse",
    "vectors.serialize.ms": "vectors.serialize",
    "reconstruct.reconstruct.ms": "reconstruct.reconstruct",
    "reconstruct.classical_coefficients.ms": "reconstruct.classical_coefficients",
    "reconstruct.sequential_coefficients.ms": "reconstruct.sequential_coefficients",
    "reconstruct.garner_converter.ms": "reconstruct.garner_converter",
    "reconstruct.garner_decode.ms": "reconstruct.garner_decode",
    "reconstruct.probabilistic_reconstruct.ms": "reconstruct.probabilistic_reconstruct",
    "division.build_scaler.ms": "division.build_scaler",
    "division.series_numerators.ms": "division.series_numerators",
    "division.build_plan.self_ms": "division.build_plan",
    "division.divide.self_ms": "division.divide",
    "cli.encode.self_ms": "cli.encode",
    "cli.decode.self_ms": "cli.decode",
}


class Tracer:
    """Records spans around patched functions while installed."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, op id]
        self.op = 0
        self._stack = []
        self._restore = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args[0])
            span = [label, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        for module_name, path, name in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def self_ns(self):
        """Total self time per (span name, is-op) pair, in ns."""
        children = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals = defaultdict(int)
        for (name, start, end, _, op), child in zip(self.spans, children):
            totals[name, op > 0] += end - start - child
        return totals

    def layer_times(self, ops: int) -> dict:
        """Per-op self time of each OP_TIMES span, plus prime generation.

        Prime generation (``prime_base`` and ``nth_prime``) is reported twice:
        its total in set-up, and its self time per op during the ops.
        """
        totals = self.self_ns()
        metrics = {
            metric: totals[span, True] / ops / 1e6 for metric, span in OP_TIMES.items()
        }
        primes = ("moduli.prime_base", "moduli.nth_prime")
        metrics["moduli.prime_base.ms"] = sum(totals[span, False] for span in primes) / 1e6
        metrics["moduli.prime_base.op_ms"] = sum(
            totals[span, True] for span in primes) / ops / 1e6
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                record = {"name": name, "start_ns": start, "end_ns": end,
                          "parent": parent, "op": op}
                handle.write(json.dumps(record) + "\n")
