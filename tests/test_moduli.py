"""Moduli base generation, validation, and the base text line."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crrkit import (
    PRIME_INDEX_CEILING,
    ModuliBase,
    ParseError,
    PrimeLimitError,
    format_base_line,
    nth_prime,
    pairwise_coprime,
    parse_base_line,
    prime_base,
)
from crrkit.moduli import _primes
from _support import primes_by_trial

ORACLE_PRIMES = primes_by_trial(1100)


def test_nth_prime_frozen_examples():
    assert nth_prime(1) == 2
    assert nth_prime(2) == 3
    assert nth_prime(3) == 5
    assert nth_prime(67) == 331


def test_nth_prime_matches_trial_division_oracle():
    for i, p in enumerate(ORACLE_PRIMES, start=1):
        assert nth_prime(i) == p


def test_prime_cache_stores_four_bytes_per_prime():
    nth_prime(2000)
    assert _primes.itemsize == 4


def test_nth_prime_rejects_bad_indices():
    with pytest.raises(ValueError):
        nth_prime(0)
    with pytest.raises(ValueError):
        nth_prime(-3)
    with pytest.raises(PrimeLimitError):
        nth_prime(10_000_001)


def test_prime_base_above_ceiling_raises_before_sieving():
    cached = len(_primes)
    with pytest.raises(PrimeLimitError):
        prime_base(PRIME_INDEX_CEILING)
    assert len(_primes) == cached


def test_prime_base_examples():
    assert prime_base(1).moduli == (5,)
    assert prime_base(3).moduli == (5, 7, 11)
    assert prime_base(8).moduli == (5, 7, 11, 13, 17, 19, 23, 29)
    with pytest.raises(ValueError):
        prime_base(0)


def test_prime_base_is_consecutive_primes_from_five():
    base = prime_base(1000)
    assert list(base.moduli) == ORACLE_PRIMES[2:1002]
    assert all(m > 3 for m in base.moduli)
    assert all(a < b for a, b in zip(base.moduli, base.moduli[1:]))


def test_equal_moduli_bases_compare_and_hash_equal():
    built = ModuliBase.from_moduli([5, 7, 11, 13])
    generated = prime_base(4)
    assert built is not generated
    assert built == generated and hash(built) == hash(generated)
    assert built != ModuliBase.from_moduli([7, 5, 11, 13])


def test_pairwise_coprime_examples():
    assert pairwise_coprime([3, 5, 7])
    assert pairwise_coprime([4, 9, 25])
    assert not pairwise_coprime([6, 10])
    assert pairwise_coprime(prime_base(50))


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=40))
def test_pairwise_coprime_matches_all_pairs_oracle(moduli):
    # up to 40 moduli: five chunks of eight, so the check crosses chunk and
    # tree-level boundaries
    expected = all(
        math.gcd(moduli[i], moduli[j]) == 1
        for i in range(len(moduli))
        for j in range(i + 1, len(moduli))
    )
    assert pairwise_coprime(moduli) == expected


@pytest.mark.parametrize(
    "i, j", [(0, 1), (7, 8), (8, 15), (511, 512), (0, 1024), (100, 900)]
)
def test_shared_factor_found_anywhere_in_the_tree(i, j):
    # 3 is not in the base, so (i, j) is the only pair sharing a factor:
    # in one chunk, in sibling chunks, or under the root's two children
    moduli = list(prime_base(1025).moduli)
    assert pairwise_coprime(moduli)
    moduli[j] = 3 * moduli[i]
    assert not pairwise_coprime(moduli)
    with pytest.raises(ValueError, match="^moduli must be pairwise coprime$"):
        ModuliBase.from_moduli(moduli)


def test_product_is_built_only_on_demand():
    base = prime_base(613)  # no other test builds this base
    assert format_base_line(base).startswith("base 613 5 7 11 ")
    assert "product" not in vars(base) and "_tree" not in vars(base)
    assert base.product == math.prod(base.moduli)


def test_from_moduli_rejects_bad_input():
    for build in (ModuliBase, ModuliBase.from_moduli):
        with pytest.raises(ValueError, match="at least one modulus"):
            build(())
        with pytest.raises(ValueError, match="at least 2"):
            build((1, 5))
    with pytest.raises(ValueError):
        ModuliBase.from_moduli([6, 10])


def test_product_is_derived_not_passed():
    with pytest.raises(TypeError):
        ModuliBase((5, 7), 36)
    base = ModuliBase((5, 7))
    assert base.product == 35
    assert base == ModuliBase.from_moduli([5, 7])
    assert ModuliBase((6, 10)).product == 60  # coprimality stays opt-in


@pytest.mark.parametrize(
    "moduli, named", [([5.9, 7, 11.2], "5.9"), (["13", 7], "'13'"), ([True, 7], "True")]
)
def test_from_moduli_rejects_non_int(moduli, named):
    for build in (ModuliBase, ModuliBase.from_moduli):
        with pytest.raises(TypeError, match=f"^modulus {named} is not an int$"):
            build(moduli)


def test_base_line_example():
    assert format_base_line(prime_base(3)) == "base 3 5 7 11"


def test_base_line_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        count = rng.randint(1, 40)
        base = prime_base(count)
        assert parse_base_line(format_base_line(base)) == base
        assert parse_base_line(format_base_line(base) + "\n") == base


def test_base_line_parse_errors():
    with pytest.raises(ParseError):
        parse_base_line("base 2 5")  # count mismatch
    with pytest.raises(ParseError):
        parse_base_line("base 2 05 7")  # leading zero
    with pytest.raises(ParseError):
        parse_base_line("base 2 6 10")  # not coprime
    with pytest.raises(ParseError):
        parse_base_line("res 1 5")  # wrong keyword
    err = None
    try:
        parse_base_line("base 3 5 x 11")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 1 and err.token == 4
