"""Module boundaries: no private name crosses between sibling modules, one
module owns both text formats, the base line and the CRR1 file, and only that
module builds a vector without the constructor's residue check."""

import ast
from pathlib import Path

import crrkit

PACKAGE = Path(crrkit.__file__).parent
# the int type check that every constructor shares
SHARED_PRIVATE = {"_require_int"}


def test_no_private_name_is_imported_from_a_sibling_module():
    crossings = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "crrkit":
                continue
            crossings += [
                f"{path.name}: {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and alias.name not in SHARED_PRIVATE
            ]
    assert crossings == []


def test_text_formats_live_in_vectors():
    formats = (
        crrkit.parse,
        crrkit.serialize,
        crrkit.parse_base_line,
        crrkit.format_base_line,
    )
    assert [fn.__module__ for fn in formats] == ["crrkit.vectors"] * len(formats)


def unchecked_builds(path: Path) -> list[str]:
    """Each ``__new__`` or ``_built`` named in a module, with its line."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name in ("__new__", "_built"):
            found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_only_vectors_builds_vectors_without_the_residue_check():
    # object.__new__ skips __init__, so a vector built that way elsewhere
    # would hold residues nobody checked
    builds = {path.name: unchecked_builds(path) for path in PACKAGE.glob("*.py")}
    assert builds.pop("vectors.py")  # the scan finds the one builder
    assert [site for sites in builds.values() for site in sites] == []
