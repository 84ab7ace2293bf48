"""The per-base product tree against the flat loops over full cofactors.

``encode``, the classical weights, ``reconstruct`` and the random linear forms
all walk one product tree per base, with chunks of ``_CHUNK`` (32) moduli as
leaves.  Each must give exactly what the flat loop in ``_support`` gives, on
bases of every shape and across chunk boundaries.
"""

import math
import random
import re
import tracemalloc
from itertools import repeat

import pytest
from hypothesis import given
from hypothesis import strategies as st

import crrkit.moduli
from crrkit import (
    CrrVector,
    ModuliBase,
    classical_coefficients,
    encode,
    garner_converter,
    prime_base,
    probabilistic_reconstruct,
    reconstruct,
    sequential_coefficients,
)
from crrkit.moduli import _CHUNK as W
from _support import (
    random_coprime_base,
    reference_classical_weights,
    reference_crt_sum,
    reference_encode,
    reference_forms,
    reference_probabilistic_reconstruct,
    shown_int,
)


def check_against_oracles(base: ModuliBase, rng: random.Random):
    product = base.product
    r = len(base.moduli)
    values = (0, 1, product - 1, product, product + 1, 3 * product + 2, -1, -product,
              -product - 1, rng.randrange(-4 * product, 4 * product))
    for value in values:
        assert encode(value, base).residues == reference_encode(value, base), value

    coeffs = classical_coefficients(base)
    assert coeffs.weights == reference_classical_weights(base)
    assert coeffs.egcd_calls == r

    x = rng.randrange(product)
    vector = encode(x, base)
    assert reconstruct(vector, coeffs) == x
    assert reconstruct(vector, coeffs) == reference_crt_sum(
        vector.residues, coeffs.weights, base
    )
    # the combine is the exact integer, not just right mod product
    wide = [rng.randrange(m * m) for m in base.moduli]
    assert base._tree.combine(wide) == reference_forms(base, wide, wide)[0]

    seed = rng.getrandbits(32)
    got = probabilistic_reconstruct(vector, random.Random(seed))
    assert got == reference_probabilistic_reconstruct(vector, random.Random(seed))
    assert got[0] == x
    assert (got[1].form_s, got[1].form_t) == reference_forms(base, got[1].s, got[1].t)


@given(st.integers(0, 2**32))
def test_tree_matches_flat_oracles_on_random_bases(seed):
    # r from 1 to 32, prime powers and composite moduli, shuffled order
    rng = random.Random(seed)
    base = random_coprime_base(rng)
    check_against_oracles(base, rng)
    r = len(base.moduli)
    assert sequential_coefficients(base).egcd_calls == r - 1
    assert garner_converter(base).egcd_calls == r * (r - 1) // 2


def combined_cofactors(base: ModuliBase) -> tuple[int, ...]:
    """The cofactors mod their moduli from ``combine`` of all ones: the
    oracle for ``cofactor_sum``, which goes up from the leaf sums instead."""
    tree = base._tree
    return tree.remainders(tree.combine(repeat(1, len(base.moduli))))


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=3 * W + 1))
def test_cofactor_sum_gives_the_classical_cofactors_on_any_base(moduli):
    # unchecked bases, drawn as in the coprimality oracle: composite moduli
    # and shared factors too.  S = sum(M / m_j) is M / m_i mod m_i on each,
    # whether summed from the leaf sums or combined from all ones.
    base = ModuliBase(moduli)
    product = math.prod(moduli)
    flat = tuple(product // m % m for m in moduli)
    tree = base._tree
    assert tree.cofactor_sum() == sum(product // m for m in moduli)
    assert tree.remainders(tree.cofactor_sum()) == flat
    assert combined_cofactors(base) == flat
    shared = [(product // m, m) for m in moduli if math.gcd(product // m, m) != 1]
    if not shared:
        weights = classical_coefficients(base).weights
        assert all(w * c % m == 1 for w, c, m in zip(weights, flat, moduli))
        return
    cofactor, m = shared[0]
    message = (
        f"{shown_int(cofactor)} has no inverse modulo {m}: "
        f"both are divisible by {math.gcd(cofactor, m)}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        classical_coefficients(base)


@pytest.mark.parametrize("r", [1, W - 1, W, W + 1, 2 * W + 1])
def test_one_list_of_leaf_sums_serves_the_coprimality_check_and_cofactor_sum(
    monkeypatch, r
):
    base = ModuliBase(prime_base(r).moduli)
    tree = base._tree
    assert tree.leaf_sums == [sum(c) for c in tree.chunk_cofactors]
    cofactors = combined_cofactors(base)
    # once the tree is built, neither reader sums a chunk again: a
    # module-level sum shadows the builtin for both
    monkeypatch.setattr(crrkit.moduli, "sum", _no_sum, raising=False)
    assert tree.pairwise_coprime()
    assert tree.remainders(tree.cofactor_sum()) == cofactors


def _no_sum(*args):
    raise AssertionError("a chunk was summed again")


@pytest.mark.parametrize(
    "r", [1, 7, 8, 9, 17, 1023, 1024, 1025, W - 1, W, W + 1, 2 * W + 1, 3 * W]
)
def test_tree_matches_flat_oracles_at_chunk_boundaries(r):
    check_against_oracles(ModuliBase(prime_base(r).moduli), random.Random(r))


@pytest.mark.parametrize("r", [1, W - 1, W, W + 1, 2 * W + 1, 3 * W, 192, 1025])
def test_classical_weights_match_the_combined_cofactors(r):
    # shuffled, so that the leaves hold no run of consecutive primes
    moduli = list(prime_base(r).moduli)
    random.Random(r).shuffle(moduli)
    base = ModuliBase.from_moduli(moduli)
    weights = tuple(pow(c, -1, m) for c, m in zip(combined_cofactors(base), moduli))
    assert classical_coefficients(base).weights == weights


def test_classical_weights_retain_only_the_tree():
    # the full cofactors of 1024 primes take about 1.6 MiB; the tree and the
    # weights must stay far below that once the calls have returned.  The
    # primes start at 7, so no other test has built this base before.
    base = ModuliBase(prime_base(1025).moduli[1:])
    # drawn below math.prod, not base.product: reading the product would
    # build the tree here, outside the traced region
    x = random.Random(5).randrange(math.prod(base.moduli))
    vector = CrrVector(base, tuple(x % m for m in base.moduli))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        coeffs = classical_coefficients(base)
        assert reconstruct(vector, coeffs) == x
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 256 * 1024, retained
