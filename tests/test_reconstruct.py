"""Reconstruction routes: the extended-gcd oracle, coefficient builders, random forms."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crrkit import (
    AttemptsExhaustedError,
    BaseMismatchError,
    ModuliBase,
    chain_weights,
    classical_coefficients,
    coprime_form_attempts,
    default_n2_bound,
    encode,
    garner_converter,
    prime_base,
    probabilistic_reconstruct,
    reconstruct,
    sequential_coefficients,
)
from crrkit.reconstruct import _bezout_pair
from _support import (
    brute_force_crt,
    extended_gcd,
    prefix_products,
    random_coprime_base,
    reference_classical_weights,
    reference_garner_inverses,
    reference_probabilistic_reconstruct,
)

BASE_357 = ModuliBase.from_moduli([3, 5, 7])


# --- extended gcd (the test oracle for every pow inversion) ---


def test_extended_gcd_zero_partner():
    assert extended_gcd(7, 0) == (7, 1, 0)
    assert extended_gcd(0, 7) == (7, 0, 1)


def test_extended_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        extended_gcd(0, 0)


def test_extended_gcd_known_pairs():
    g, u, v = extended_gcd(5, 3)
    assert g == 1 and u * 5 + v * 3 == 1
    g, u, v = extended_gcd(12, 18)
    assert g == 6 and u * 12 + v * 18 == 6


@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_extended_gcd_identity(a, b):
    if a == 0 and b == 0:
        return
    g, u, v = extended_gcd(a, b)
    assert g == math.gcd(a, b) > 0
    assert u * a + v * b == g


def test_bezout_pair_matches_extended_gcd():
    for a in range(1, 200):
        for b in range(1, 200):
            if math.gcd(a, b) == 1:
                assert (1, *_bezout_pair(a, b)) == extended_gcd(a, b), (a, b)


# --- classical coefficients ---


def test_classical_frozen_examples():
    assert classical_coefficients(BASE_357).weights == (2, 1, 1)
    assert classical_coefficients(ModuliBase.from_moduli([5])).weights == (1,)
    assert classical_coefficients(ModuliBase.from_moduli([3, 5])).weights == (2, 2)


def test_classical_call_count_is_r():
    for r in (1, 2, 5, 17):
        assert classical_coefficients(prime_base(r)).egcd_calls == r


def test_classical_weight_identities():
    rng = random.Random(31)
    for _ in range(25):
        base = random_coprime_base(rng, max_len=16)
        coeffs = classical_coefficients(base)
        total = 0
        for m, w in zip(base.moduli, coeffs.weights):
            assert 0 <= w < m
            cofactor = base.product // m
            assert w * cofactor % m == 1 % m
            total += w * cofactor
        assert total % base.product == 1 % base.product


# --- sequential chain ---


def test_sequential_frozen_example():
    base = ModuliBase.from_moduli([3, 5])
    coeffs, pairs = sequential_coefficients(base)
    assert coeffs.weights == (2, 2)
    assert coeffs.egcd_calls == 1
    (alpha, beta), = pairs
    assert alpha * 5 + beta * 3 == 1


def test_sequential_single_modulus():
    coeffs, pairs = sequential_coefficients(ModuliBase.from_moduli([5]))
    assert coeffs.weights == (1,)
    assert coeffs.egcd_calls == 0
    assert pairs == ()


def test_sequential_call_count_is_r_minus_one():
    for r in (1, 2, 8, 33):
        coeffs, _ = sequential_coefficients(prime_base(r))
        assert coeffs.egcd_calls == r - 1


def test_chain_pair_identities():
    # each pow-derived pair is extended Euclid's own pair, step by step
    rng = random.Random(32)
    bases = [random_coprime_base(rng) for _ in range(100)]
    for base in bases + [prime_base(192)]:
        _, pairs = sequential_coefficients(base)
        prefix = prefix_products(base.moduli)
        assert len(pairs) == len(base.moduli) - 1
        for j, (alpha, beta) in enumerate(pairs, start=1):
            assert alpha * base.moduli[j] + beta * prefix[j] == 1
            assert (1, alpha, beta) == extended_gcd(base.moduli[j], prefix[j]), (base, j)


def test_sequential_agrees_with_classical():
    rng = random.Random(33)
    for _ in range(30):
        base = random_coprime_base(rng, max_len=24)
        seq, _ = sequential_coefficients(base)
        assert seq.weights == classical_coefficients(base).weights


def test_telescoping_identity_exact():
    rng = random.Random(34)
    for max_len in (4, 16, 64):
        base = random_coprime_base(rng, max_len=max_len)
        _, pairs = sequential_coefficients(base)
        weights = chain_weights(pairs)
        total = sum(w * (base.product // m) for w, m in zip(weights, base.moduli))
        assert total == 1


def test_sequential_weights_reduce_chain_weights():
    # the reduced running product must give the exact chain weights mod m_i
    rng = random.Random(37)
    bases = [random_coprime_base(rng, max_len=64) for _ in range(20)]
    for base in bases + [prime_base(192)]:
        coeffs, pairs = sequential_coefficients(base)
        exact = chain_weights(pairs)
        assert coeffs.weights == tuple(w % m for w, m in zip(exact, base.moduli))


# --- Garner baseline ---


def test_garner_call_counts():
    assert garner_converter(BASE_357).egcd_calls == 3
    assert garner_converter(ModuliBase.from_moduli([5])).egcd_calls == 0
    assert garner_converter(prime_base(8)).egcd_calls == 28


def test_garner_decodes():
    conv = garner_converter(BASE_357)
    assert conv.decode(encode(23, BASE_357)) == 23
    assert conv.decode(encode(104, BASE_357)) == 104
    assert conv.decode(encode(0, BASE_357)) == 0


# --- pow inverses against the extended-gcd references ---


@given(st.integers(0, 2**32))
def test_pow_inverses_match_extended_gcd(seed):
    base = random_coprime_base(random.Random(seed))
    r = len(base.moduli)
    classical = classical_coefficients(base)
    assert classical.weights == reference_classical_weights(base)
    assert classical.egcd_calls == r
    garner = garner_converter(base)
    assert garner.inverses == reference_garner_inverses(base)
    assert garner.egcd_calls == r * (r - 1) // 2


NON_COPRIME = ModuliBase([6, 10, 7])


@pytest.mark.parametrize(
    "route, message",
    [
        (classical_coefficients, "70 has no inverse modulo 6"),
        (garner_converter, "6 has no inverse modulo 10"),
        (sequential_coefficients, "6 has no inverse modulo 10"),
    ],
)
def test_non_coprime_base_fails_loudly(route, message):
    with pytest.raises(ValueError, match=f"^{message}: both are divisible by 2$"):
        route(NON_COPRIME)


# --- reconstruct ---


def test_reconstruct_frozen_examples():
    base = prime_base(3)
    coeffs = classical_coefficients(base)
    assert reconstruct(encode(23, base), coeffs) == 23
    assert reconstruct(encode(0, base), coeffs) == 0
    assert reconstruct(encode(104, BASE_357), classical_coefficients(BASE_357)) == 104


def test_reconstruct_against_brute_force():
    rng = random.Random(35)
    base = ModuliBase.from_moduli([4, 9, 5])
    coeffs = classical_coefficients(base)
    for _ in range(20):
        x = rng.randrange(base.product)
        vector = encode(x, base)
        assert reconstruct(vector, coeffs) == brute_force_crt(
            vector.residues, base.moduli
        )


def test_reconstruct_base_mismatch():
    with pytest.raises(BaseMismatchError):
        reconstruct(encode(1, prime_base(3)), classical_coefficients(BASE_357))


def test_round_trip_all_routes_random_bases():
    rng = random.Random(36)
    for _ in range(10):
        base = random_coprime_base(rng, max_len=12)
        classical = classical_coefficients(base)
        sequential, _ = sequential_coefficients(base)
        garner = garner_converter(base)
        for _ in range(25):
            x = rng.randrange(base.product)
            vector = encode(x, base)
            assert reconstruct(vector, classical) == x
            assert reconstruct(vector, sequential) == x
            assert garner.decode(vector) == x


# --- probabilistic route ---


def test_probabilistic_matches_classical():
    base = prime_base(3)
    rng = random.Random(40)
    value, sample = probabilistic_reconstruct(encode(23, base), rng)
    assert value == 23
    assert sample.bezout_u * sample.form_s + sample.bezout_v * sample.form_t == 1
    assert sample.form_s == sum(
        base.product // m * s for m, s in zip(base.moduli, sample.s)
    )
    assert all(1 <= s <= sample.n2_bound for s in sample.s + sample.t)


def test_probabilistic_round_trip_random():
    rng = random.Random(41)
    base = prime_base(10)
    for _ in range(200):
        x = rng.randrange(base.product)
        value, sample = probabilistic_reconstruct(encode(x, base), rng)
        assert value == x
        assert sample.attempts >= 1


def test_probabilistic_zero_vector():
    base = prime_base(5)
    value, _ = probabilistic_reconstruct(encode(0, base), random.Random(42))
    assert value == 0


def test_default_n2_bound():
    base = prime_base(16)
    assert default_n2_bound(base) == 1 << 16
    assert default_n2_bound(base) >= 64 * (16 + math.ceil(math.log(base.product)))


class _ConstantRng:
    """Stub generator: every draw returns the same value, so S == T always."""

    def __init__(self, value):
        self.value = value

    def randint(self, lo, hi):
        return self.value


def test_probabilistic_exhaustion():
    base = prime_base(4)
    with pytest.raises(AttemptsExhaustedError) as info:
        probabilistic_reconstruct(encode(5, base), _ConstantRng(7), max_attempts=5)
    assert info.value.attempts == 5


# with one modulus the cofactor is 1, so each form is its own coefficient and
# n2_bound 1 or 3 makes forms equal to 1
@pytest.mark.parametrize(
    "r, n2_bound", [(1, 1), (1, 3), (2, 2), (3, None), (12, None), (64, None)]
)
def test_probabilistic_matches_extended_gcd_reference(r, n2_bound):
    base = prime_base(r)
    for seed in range(6):
        rng = random.Random(seed)
        vector = encode(rng.randrange(base.product), base)
        state = rng.getstate()
        got = probabilistic_reconstruct(vector, rng, n2_bound)
        rng.setstate(state)
        assert got == reference_probabilistic_reconstruct(vector, rng, n2_bound)


def test_coprime_form_attempt_statistics():
    base = prime_base(16)
    rng = random.Random(43)
    hits = total = 0
    for _ in range(2000):
        first, attempts, succeeded = coprime_form_attempts(base, rng)
        assert succeeded
        hits += first
        total += attempts
    assert 0.50 <= hits / 2000 <= 0.72
    assert total / 2000 < 2.0


def test_coprime_form_attempts_rejects_bad_bounds():
    base = prime_base(4)
    with pytest.raises(ValueError, match="n2_bound"):
        coprime_form_attempts(base, random.Random(44), n2_bound=0)
    with pytest.raises(ValueError, match="max_attempts"):
        coprime_form_attempts(base, random.Random(44), max_attempts=0)
    # s == t for every draw: the forms are equal and never coprime
    with pytest.raises(ValueError, match="n2_bound must be at least 2"):
        coprime_form_attempts(base, random.Random(44), n2_bound=1)
    with pytest.raises(ValueError, match="n2_bound must be at least 2"):
        probabilistic_reconstruct(encode(5, base), random.Random(44), n2_bound=1)
