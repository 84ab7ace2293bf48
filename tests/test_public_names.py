"""The package's public names: ``__all__`` lists each exactly once, and each resolves."""

import ast
from collections import Counter
from pathlib import Path

import crrkit


def test_star_import_resolves_every_public_name():
    # a star import raises AttributeError on an __all__ entry that does not resolve
    exec("from crrkit import *", {})
    assert [n for n, k in Counter(crrkit.__all__).items() if k > 1] == []


def test_package_imports_exactly_the_names_in_all():
    # a name dropped from one side only would stay public, or stay imported unused
    tree = ast.parse(Path(crrkit.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    assert imported == set(crrkit.__all__)
