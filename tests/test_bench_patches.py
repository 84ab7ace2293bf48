"""The benchmark's span patches still name real crrkit attributes.

``bench/spans.py`` replaces public names with timing wrappers; a rename in
crrkit would break it only when the benchmark runs.  This loads the module
by its file path, since ``bench`` is not a package, and resolves every entry.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _resolves(module_name: str, path: str) -> bool:
    if module_name.split(".")[0] != "crrkit":
        return False
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_bench_patches_resolve():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    missing = [
        f"{module}.{path}"
        for module, path, _ in spans.PATCHES
        if not _resolves(module, path)
    ]
    assert missing == []
