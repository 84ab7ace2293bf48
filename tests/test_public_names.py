"""The package's public names: ``__all__`` lists each exactly once, and each resolves."""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

import pytest

import crrkit
from crrkit import division
from _support import run_python


def test_star_import_resolves_every_public_name():
    # a star import raises AttributeError on an __all__ entry that does not resolve
    exec("from crrkit import *", {})
    assert [n for n, k in Counter(crrkit.__all__).items() if k > 1] == []


def test_package_imports_exactly_the_names_in_all():
    # __all__ is the star-imported modules' own lists plus the lazy names
    tree = ast.parse(Path(crrkit.__file__).read_text())
    starred = [
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        if [alias.name for alias in node.names] == ["*"]
    ]
    # crrkit.reconstruct names the function, so reach each module by its key
    modules = [sys.modules[f"crrkit.{name}"] for name in starred]
    imported = {name for module in modules for name in module.__all__}
    # a name two modules declare is bound to the later one's object
    shadowed = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if getattr(crrkit, name) is not getattr(module, name)
    ]
    assert shadowed == []
    lazy = crrkit._DIVISION_NAMES
    assert imported | lazy == set(crrkit.__all__)
    assert imported & lazy == set()
    stale = [name for name in lazy if getattr(crrkit, name) is not getattr(division, name)]
    assert stale == []


# Each of these runs in a fresh interpreter, where no test has imported
# crrkit.division yet.


def test_conversions_never_import_division():
    code = (
        "import random, sys\n"
        "import crrkit as k\n"
        "base = k.prime_base(12)\n"
        "a, b = k.encode(1234, base), k.encode(-5678, base)\n"
        "x = (1234 * -5678 + 1234 - -5678) % base.product\n"
        "vector = a * b + a - b\n"
        "got = [\n"
        "    k.reconstruct(vector, k.classical_coefficients(base)),\n"
        "    k.reconstruct(vector, k.sequential_coefficients(base)),\n"
        "    k.garner_converter(base).decode(vector),\n"
        "    k.probabilistic_reconstruct(vector, random.Random(1))[0],\n"
        "]\n"
        "print(got == [x] * 4, 'crrkit.division' in sys.modules)\n"
    )
    assert run_python("-c", code) == (0, "True False\n", "")


@pytest.mark.parametrize(
    "code",
    [
        "import crrkit; f = crrkit.divide; import crrkit.division as d; print(f is d.divide)",
        "import crrkit.division as d, crrkit; print(crrkit.divide is d.divide)",
        # the package attribute must stay the function, not its module
        "import crrkit.reconstruct, types; import crrkit; "
        "print(isinstance(crrkit.reconstruct, types.FunctionType))",
        # dir lists the lazy division names too, without importing them
        "import sys, crrkit; "
        "print(set(crrkit.__all__) <= set(dir(crrkit)) and not hasattr(crrkit, 'nope') "
        "and 'crrkit.division' not in sys.modules)",
    ],
    ids=["package-first", "division-first", "reconstruct-first", "dir"],
)
def test_fresh_import_binds_every_public_name(code):
    assert run_python("-c", code) == (0, "True\n", "")


# The package's whole public surface.  A name is here only if the README
# documents it, the paper defines it, or the benchmark reads it from the
# package; helpers for tests and the selftest live in their modules.
PUBLIC_NAMES = [
    "AttemptsExhaustedError",
    "BaseMismatchError",
    "CrrError",
    "CrrVector",
    "CrtCoefficients",
    "DivideResult",
    "DivisionPlan",
    "GarnerConverter",
    "GroupBoundError",
    "GroupBoundReport",
    "LinearFormSample",
    "MAX_DIVISION_BITS",
    "ModuliBase",
    "PRIME_INDEX_CEILING",
    "ParseError",
    "PrimeLimitError",
    "Scaler",
    "adaptive_group_size",
    "build_plan",
    "classical_coefficients",
    "coprime_form_stats",
    "default_n2_bound",
    "divide",
    "encode",
    "format_base_line",
    "garner_converter",
    "group_bound_report",
    "group_size",
    "nth_prime",
    "pairwise_coprime",
    "parse",
    "parse_base_line",
    "prime_base",
    "probabilistic_reconstruct",
    "reconstruct",
    "sequential_coefficients",
    "serialize",
    "strict_moduli_count",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 38
    assert crrkit.__all__ == PUBLIC_NAMES


def _names_read_from_the_package(path: Path) -> set[str]:
    """Every ``crrkit.<name>`` attribute a script reads, dunders aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "crrkit"
        and not node.attr.startswith("__")
    }


@pytest.mark.parametrize("script", ["run.py", "sweep.py"])
def test_every_name_the_benchmark_reads_is_public(script):
    path = Path(__file__).resolve().parents[1] / "bench" / script
    names = _names_read_from_the_package(path)
    assert names  # the scan finds the script's reads
    assert sorted(names - set(crrkit.__all__)) == []
    assert [name for name in names if not hasattr(crrkit, name)] == []


@pytest.mark.parametrize(
    "module, name",
    [
        ("crrkit.division", "build_scaler"),
        ("crrkit.division", "series_numerators"),
    ],
)
def test_helpers_live_only_in_their_modules(module, name):
    assert callable(getattr(importlib.import_module(module), name))
    assert name not in crrkit.__all__
    with pytest.raises(AttributeError):
        getattr(crrkit, name)
