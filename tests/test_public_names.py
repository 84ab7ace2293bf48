"""The package's public names: ``__all__`` lists each exactly once, and each resolves."""

from collections import Counter

import crrkit


def test_star_import_resolves_every_public_name():
    # a star import raises AttributeError on an __all__ entry that does not resolve
    exec("from crrkit import *", {})
    assert [n for n, k in Counter(crrkit.__all__).items() if k > 1] == []
