"""The per-base product tree against the flat loops over full cofactors.

``encode``, the classical weights, ``reconstruct`` and the random linear forms
all walk one product tree per base, with chunks of eight moduli as leaves.
Each must give exactly what the flat loop in ``_support`` gives, on bases of
every shape and across chunk boundaries.
"""

import math
import random
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
from _support import (
    random_coprime_base,
    reference_classical_weights,
    reference_crt_sum,
    reference_encode,
    reference_forms,
    reference_probabilistic_reconstruct,
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
    assert sequential_coefficients(base)[0].egcd_calls == r - 1
    assert garner_converter(base).egcd_calls == r * (r - 1) // 2


@pytest.mark.parametrize("r", [1, 7, 8, 9, 17, 1023, 1024, 1025])
def test_tree_matches_flat_oracles_at_chunk_boundaries(r):
    check_against_oracles(ModuliBase(prime_base(r).moduli), random.Random(r))


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
