"""The benchmark's span patches still name real crrkit attributes, and time.

``bench/spans.py`` replaces public names with timing wrappers; a rename in
crrkit would break it only when the benchmark runs, and a caller that stops
looking a name up where it is patched would leave its span empty.  These
tests load the module by its file path, since ``bench`` is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import crrkit
import crrkit.cli

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


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
    spans = _load_spans()
    assert spans.PATCHES
    missing = [
        f"{module}.{path}"
        for module, path, _ in spans.PATCHES
        if not _resolves(module, path)
    ]
    assert missing == []


@pytest.mark.parametrize(
    "method, routes",
    [
        ("classical", {"classical_coefficients", "reconstruct"}),
        ("sequential", {"sequential_coefficients", "reconstruct"}),
        ("garner", {"garner_converter", "garner_decode"}),
        ("prob", {"probabilistic_reconstruct"}),
    ],
)
def test_cli_decode_records_its_route_spans(capsys, tmp_path, method, routes):
    path = tmp_path / "v.crr"
    path.write_text(crrkit.serialize(crrkit.encode(23, crrkit.prime_base(8))))
    with _load_spans().Tracer() as tracer:
        code = crrkit.cli.main(["decode", "--in", str(path), "--method", method])
    assert (code, capsys.readouterr().out) == (0, "23\n")

    def under_decode(span):
        while span[3] >= 0:
            span = tracer.spans[span[3]]
            if span[0] == "cli.decode":
                return True
        return False

    recorded = {
        span[0].removeprefix("reconstruct.")
        for span in tracer.spans
        if span[0].startswith("reconstruct.") and under_decode(span)
    }
    assert recorded == routes
