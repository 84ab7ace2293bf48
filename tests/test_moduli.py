"""Moduli base generation, validation, and the base text line."""

import gc
import math
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crrkit import (
    PRIME_INDEX_CEILING,
    ModuliBase,
    ParseError,
    PrimeLimitError,
    classical_coefficients,
    encode,
    format_base_line,
    nth_prime,
    pairwise_coprime,
    parse_base_line,
    prime_base,
)
from crrkit.moduli import _CHUNK as W
from crrkit.moduli import _primes
from _support import primes_by_eratosthenes, primes_by_trial

ORACLE_PRIMES = primes_by_trial(1100)


def test_nth_prime_frozen_examples():
    assert nth_prime(1) == 2
    assert nth_prime(2) == 3
    assert nth_prime(3) == 5
    assert nth_prime(67) == 331


def test_nth_prime_matches_trial_division_oracle():
    for i, p in enumerate(ORACLE_PRIMES, start=1):
        assert nth_prime(i) == p


def test_odd_only_sieve_matches_plain_eratosthenes():
    # the 148,933 primes below 2 * 10**6 span several doubling segments of
    # the odd-only sieve
    expected = primes_by_eratosthenes(2 * 10**6)
    assert len(expected) == 148_933
    assert nth_prime(len(expected)) == expected[-1]
    assert list(_primes[: len(expected)]) == expected


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
    for index, named in ((True, "True"), (3.0, "3.0"), ("3", "'3'")):
        with pytest.raises(TypeError, match=f"^prime index {named} is not an int$"):
            nth_prime(index)


def test_nth_prime_takes_an_int_subclass_as_its_plain_int():
    class Index(int):
        pass

    assert nth_prime(Index(3)) == 5


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


def test_prime_base_checks_the_count_type():
    # cached first: True and 3.0 compare equal to 1 and 3
    prime_base(1)
    prime_base(3)
    for count, named in ((True, "True"), (3.0, "3.0"), ("3", "'3'")):
        with pytest.raises(TypeError, match=f"^count {named} is not an int$"):
            prime_base(count)

    class Wrong(int):
        def __add__(self, other):
            return 0

        def __radd__(self, other):
            return 0

    base = prime_base(Wrong(4))
    assert base == prime_base(4) and type(base.moduli[0]) is int


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
    again = prime_base(4)
    assert again == generated and hash(again) == hash(generated)


def test_prime_base_keeps_nothing_once_its_base_is_dropped():
    # a base built and used, then dropped, leaves no product tree behind
    prime_base(4096)  # sieves far enough, so the sieve's growth is not counted
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        classical_coefficients(prime_base(4096))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 0.1 * 2**20


def test_pairwise_coprime_examples():
    assert pairwise_coprime([3, 5, 7])
    assert pairwise_coprime([4, 9, 25])
    assert not pairwise_coprime([6, 10])
    # the moduli, not the base: a generated base carries its verdict unwalked
    assert pairwise_coprime(prime_base(50).moduli)


def all_pairs_coprime(moduli) -> bool:
    return all(
        math.gcd(moduli[i], moduli[j]) == 1
        for i in range(len(moduli))
        for j in range(i + 1, len(moduli))
    )


@given(st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=40))
def test_pairwise_coprime_matches_all_pairs_oracle(moduli):
    # up to 40 moduli: one full leaf and a short one at the leaf width of 32
    assert pairwise_coprime(moduli) == all_pairs_coprime(moduli)


@given(
    st.lists(
        st.sampled_from(ORACLE_PRIMES[:400]), min_size=2 * W + 1, max_size=3 * W,
        unique=True,
    ),
    st.booleans(),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.sampled_from([1, 2, 3, 5, 7]),
)
def test_pairwise_coprime_matches_all_pairs_oracle_over_three_leaves(
    primes, plant, i, j, factor
):
    # distinct primes, so coprime unless modulus j takes on modulus i's
    # prime, or modulus i a factor that another modulus is
    moduli = list(primes)
    i, j = i % len(moduli), j % len(moduli)
    if plant and i != j:
        moduli[j] *= moduli[i]
    moduli[i] *= factor
    assert pairwise_coprime(moduli) == all_pairs_coprime(moduli)


@pytest.mark.parametrize(
    "i, j",
    [
        (0, 1),
        (7, 8),
        (8, 15),
        (511, 512),
        (0, 1024),
        (100, 900),
        (1016, 1023),
        (1023, 1024),
        (W, 2 * W - 1),
        (W - 1, W),
        (0, 2 * W - 1),
        (2 * W - 1, 2 * W),
        (3 * W + 1, 1024),
    ],
)
def test_shared_factor_found_anywhere_in_the_tree(i, j):
    # 3 is not in the base, so (i, j) is the only pair sharing a factor:
    # in one chunk (the last full one too), in sibling chunks, in chunks
    # that meet only higher up, under the root's two children, or against
    # the single-modulus chunk that is carried up as an odd node
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


LIMIT = sys.get_int_max_str_digits()


# Fraction(10**k) prints k + 1 digits in its repr: LIMIT digits still print,
# LIMIT + 1 raise the interpreter's ValueError, and the type is shown instead
@pytest.mark.parametrize(
    "value, shown",
    [
        (Fraction(10 ** (LIMIT - 1)), f"Fraction(10000000000... ({LIMIT + 13} chars)"),
        (Fraction(10**LIMIT), "<Fraction>"),
    ],
    ids=["inside", "past"],
)
def test_non_int_past_the_digit_limit_keeps_its_type_error(value, shown):
    for call, what in (
        (lambda: encode(value, prime_base(3)), "value"),
        (lambda: prime_base(value), "count"),
        (lambda: ModuliBase([value]), "modulus"),
        (lambda: ModuliBase.from_moduli([5, value]), "modulus"),
    ):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == f"{what} {shown} is not an int"


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
    with pytest.raises(ParseError, match="^line 1: expected a single base line$"):
        parse_base_line("base 1 5\nbase 1 5\n")
    err = None
    try:
        parse_base_line("base 3 5 x 11")
    except ParseError as exc:
        err = exc
    assert err is not None and err.line == 1 and err.token == 4
