"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import importlib
import itertools
import json
import shutil
import subprocess
import sys

import pytest

import run
import sweep

TINY = {
    "decode-warm": {"r": 16},
    "divide": {"n": 16},
    **{name: {"r": 12, "pool": 4, "max_start": 60} for name in run.CLI},
}
SPEC = run.load_spec()
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] != "ms" and m["name"] != "trace.overhead_ratio"]


def tiny_run(name, trace, seed=3):
    return run.run_workload(name, seed, 0.05, trace, sizes=TINY[name], probes=1)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    result = tiny_run(name, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_every_per_layer_metric_names_what_it_moves():
    assert set(run.MOVES) == {m["name"] for m in SPEC["per_layer"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(run.WORKLOADS)
    for moves, names in run.MOVES.values():
        assert set(names) <= workloads


@pytest.mark.parametrize("name", ("cli-prob", "cli-garner", "divide"))
def test_counts_repeat_exactly_at_a_fixed_seed(name):
    first, second = tiny_run(name, 1, seed=11), tiny_run(name, 1, seed=11)
    assert [first["metrics"][m] for m in COUNTS] == [second["metrics"][m] for m in COUNTS]


def test_route_counts_follow_the_egcd_laws():
    r = TINY["cli-garner"]["r"]
    laws = {"classical": r, "sequential": r - 1, "garner": r * (r - 1) // 2}
    for route, calls in laws.items():
        metrics = tiny_run(f"cli-{route}", 1)["metrics"]
        assert metrics[f"reconstruct.egcd_calls.{route}"]["value"] == calls
        others = set(laws) - {route} | {"prob"}
        assert all(metrics[f"reconstruct.egcd_calls.{o}"]["value"] == 0 for o in others)
    metrics = tiny_run("cli-prob", 1)["metrics"]
    attempts = metrics["reconstruct.prob.attempts_mean"]["value"]
    assert metrics["reconstruct.egcd_calls.prob"]["value"] == attempts >= 1
    assert metrics["reconstruct.prob.first_draw_ratio"]["value"] == 1 / attempts


def corrupt_once(monkeypatch, owner, attr, fault, at=0):
    """Pass the result of call number ``at`` of owner.attr through fault()."""
    real = getattr(owner, attr)
    calls = itertools.count()

    def corrupted(*args):
        value = real(*args)
        return fault(value) if next(calls) == at else value

    monkeypatch.setattr(owner, attr, corrupted)


def test_wrong_reconstruction_is_counted_as_failed(monkeypatch):
    crrkit = run.load_crrkit()
    corrupt_once(monkeypatch, crrkit, "reconstruct", lambda value: value + 1)
    result = tiny_run("decode-warm", 0)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] > 1


def test_wrong_cli_output_is_counted_as_failed(monkeypatch):
    run.load_crrkit()
    cli = importlib.import_module("crrkit.cli")
    corrupt_once(monkeypatch, cli, "reconstruct", lambda value: value + 1)
    result = tiny_run("cli-classical", 1)
    assert result["correct"] is False and result["failed"] == 1


def test_raising_op_is_counted_as_failed(monkeypatch):
    crrkit = run.load_crrkit()

    def boom(result):
        raise RuntimeError("injected")

    corrupt_once(monkeypatch, crrkit, "divide", boom, at=1)  # call 0 is set-up
    result = tiny_run("divide", 0)
    assert result["correct"] is False and result["failed"] == 1


def test_failed_run_exits_nonzero_with_a_result(monkeypatch, capsys):
    crrkit = run.load_crrkit()
    corrupt_once(monkeypatch, crrkit, "reconstruct", lambda value: value + 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "decode-warm", "--seed", "1", "--seconds", "0.05",
                     "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1 and result["correct"] is False and result["failed"] == 1


def command(*args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_prints_the_result_object_last():
    proc = command("--workload", "divide", "--seed", "4", "--seconds", "0.5",
                   "--trace", "0", cwd=run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = command("--workload", "divide", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wilson_interval_brackets_the_proportion():
    low, high = run.wilson_interval(600, 1000)
    assert low < 0.6 < high
    assert high - low == pytest.approx(2 * 2.5758 * (0.6 * 0.4 / 1000) ** 0.5, rel=0.01)


def test_sweep_times_every_layer_at_tiny_sizes(capsys):
    records = sweep.sweep(seed=1, budget=0.01, r_sizes=(8,), n_sizes=(16,))
    assert [(r["layer"], r["size"]) for r in records] == [
        ("hash(base)", 8), ("encode", 8), ("reconstruct", 8),
        ("sequential_coefficients", 8), ("probabilistic_reconstruct", 8),
        ("divide", 16),
    ]
    assert all(r["median_s"] > 0 and r["table"] == "-" for r in records)
