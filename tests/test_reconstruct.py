"""Reconstruction routes: the extended-gcd oracle, coefficient builders, random forms."""

import builtins
import math
import random
import sys
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crrkit import (
    AttemptsExhaustedError,
    BaseMismatchError,
    ModuliBase,
    chain_weights,
    classical_coefficients,
    coprime_form_stats,
    default_n2_bound,
    encode,
    garner_converter,
    nth_prime,
    prime_base,
    probabilistic_reconstruct,
    reconstruct,
    sequential_coefficients,
)
from crrkit.reconstruct import _bezout_pair, _draw_coefficients
from _support import (
    brute_force_crt,
    extended_gcd,
    prefix_products,
    random_coprime_base,
    reference_classical_weights,
    reference_draw,
    reference_garner_inverses,
    reference_probabilistic_reconstruct,
    reference_sequential_weights,
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


@given(
    st.integers(min_value=1, max_value=1 << 200),
    st.integers(min_value=1, max_value=1 << 200),
)
@example(1, 1)
@example(1, 10**30)
@example(10**30, 1)
@example(4, 9)
@example(9, 4)
@example(2**64, 3**40)
@example(3**40, 2**64)
def test_bezout_pair_inverts_modulo_the_smaller_argument(a, b):
    if math.gcd(a, b) != 1:
        with pytest.raises(ValueError, match=f"^{b} has no inverse modulo {a}:"):
            _bezout_pair(a, b)
        return
    assert (1, *_bezout_pair(a, b)) == extended_gcd(a, b)


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
    # the word-size back-walk must give the exact chain weights mod m_i
    rng = random.Random(37)
    bases = [random_coprime_base(rng, max_len=64) for _ in range(20)]
    for base in bases + [prime_base(192)]:
        coeffs, pairs = sequential_coefficients(base)
        exact = chain_weights(pairs)
        assert coeffs.weights == tuple(w % m for w, m in zip(exact, base.moduli))


CHAIN_PRIMES = [nth_prime(i) for i in range(1, 100)]


@st.composite
def chain_bases(draw):
    """Pairwise-coprime bases of 1 to 40 moduli in any order: primes, prime
    powers, products of two primes, and one to three moduli of at least
    2**64, each 1 mod the product of the moduli drawn before it."""
    r = draw(st.integers(1, 40))
    big_count = draw(st.integers(1, min(r, 3)))
    primes = iter(draw(st.permutations(CHAIN_PRIMES)))
    moduli = []
    for _ in range(r - big_count):
        m = next(primes)
        shape = draw(st.sampled_from(("prime", "power", "product")))
        if shape == "power":
            m **= draw(st.integers(2, 4))
        elif shape == "product":
            m *= next(primes)
        moduli.append(m)
    for _ in range(big_count):
        others = math.prod(moduli)
        moduli.append(draw(st.integers(1 << 64, 1 << 128)) * others + 1)
    return ModuliBase.from_moduli(draw(st.permutations(moduli)))


# 2**64 + 1 = 274177 * 67280421310721, a composite modulus above 2**64; the
# fixed r = 1024 example runs the oracle's wide walk for about 0.15 s
@settings(deadline=None)
@given(chain_bases())
@example(ModuliBase.from_moduli([(1 << 64) + 1]))
@example(ModuliBase.from_moduli([(1 << 64) + 1, 3]))
@example(ModuliBase.from_moduli([(1 << 64) + 1, 3**5, 35, 2, 11, 13]))
@example(prime_base(1024))
def test_sequential_walk_matches_the_wide_walk(base):
    coeffs, pairs = sequential_coefficients(base)
    assert coeffs.weights == reference_sequential_weights(base, pairs)
    assert coeffs.weights == classical_coefficients(base).weights
    prefix = prefix_products(base.moduli)
    assert pairs == tuple(
        extended_gcd(m, prefix[j])[1:] for j, m in enumerate(base.moduli) if j
    )
    assert coeffs.egcd_calls == len(base.moduli) - 1


def test_sequential_walk_stays_word_sized_at_r_4096():
    # on a 2-vCPU VM the word-size step takes about 0.4 s here, and the wide
    # walk of the oracle about 11 s
    base = prime_base(4096)
    start = time.perf_counter()
    coeffs, _ = sequential_coefficients(base)
    assert time.perf_counter() - start < 4
    assert coeffs.egcd_calls == 4095


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


def test_call_counts_equal_real_inversions(monkeypatch):
    """Each reported count matches the pow(a, -1, m) and gcd calls really made.

    A module global named ``pow`` shadows the builtin inside the reconstruct
    module; ``crrkit.reconstruct`` itself names the function, hence sys.modules.
    """
    calls = Counter()
    real_gcd = math.gcd

    def counting_pow(a, exponent, modulus=None):
        calls["pow"] += exponent == -1
        return builtins.pow(a, exponent, modulus)

    def counting_gcd(*args):
        calls["gcd"] += 1
        return real_gcd(*args)

    bases = {r: prime_base(r) for r in (1, 2, 9, 33)}
    vectors = [
        encode(random.Random(seed).randrange(bases[9].product), bases[9])
        for seed in range(20)
    ]
    module = sys.modules["crrkit.reconstruct"]
    monkeypatch.setattr(module, "pow", counting_pow, raising=False)
    monkeypatch.setattr(math, "gcd", counting_gcd)
    for r, base in bases.items():
        calls.clear()
        assert classical_coefficients(base).egcd_calls == calls["pow"] == r
        calls.clear()
        assert sequential_coefficients(base)[0].egcd_calls == calls["pow"] == r - 1
        calls.clear()
        assert garner_converter(base).egcd_calls == calls["pow"] == r * (r - 1) // 2
        assert calls["gcd"] == 0
    attempts = []
    for seed, vector in enumerate(vectors):
        calls.clear()
        _, sample = probabilistic_reconstruct(vector, random.Random(seed))
        assert calls == {"gcd": sample.attempts, "pow": 1}
        attempts.append(sample.attempts)
    assert max(attempts) > 1


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


@pytest.mark.parametrize(
    "moduli, route, a, m, shared",
    [
        ([7, 6, 10], classical_coefficients, 70, 6, 2),
        ([7, 6, 10], garner_converter, 6, 10, 2),
        ([5, 7, 9, 6], classical_coefficients, 210, 9, 3),
        ([5, 7, 9, 6], garner_converter, 9, 6, 3),
    ],
)
def test_shared_factor_past_the_first_row_is_named(moduli, route, a, m, shared):
    message = f"^{a} has no inverse modulo {m}: both are divisible by {shared}$"
    with pytest.raises(ValueError, match=message):
        route(ModuliBase(moduli))


def _reference_failures(moduli) -> tuple[str, str]:
    """The classical and Garner messages, one gcd per inverse in build order."""
    product = math.prod(moduli)

    def message(a, m):
        return f"{a} has no inverse modulo {m}: both are divisible by {math.gcd(a, m)}"

    classical = next(
        message(product // m, m) for m in moduli if math.gcd(product // m, m) > 1
    )
    garner = next(
        message(a, m)
        for j, m in enumerate(moduli)
        for a in moduli[:j]
        if math.gcd(a, m) > 1
    )
    return classical, garner


@given(st.integers(0, 2**32))
def test_non_coprime_messages_match_the_pairwise_walk(seed):
    rng = random.Random(seed)
    moduli = list(random_coprime_base(rng).moduli)
    # one more modulus, sharing the smallest prime factor of a random member
    shared = rng.choice(moduli)
    factor = next(p for p in range(2, shared + 1) if shared % p == 0)
    moduli.insert(rng.randint(0, len(moduli)), factor * rng.randint(1, 50))
    base = ModuliBase(moduli)
    classical, garner = _reference_failures(moduli)
    with pytest.raises(ValueError) as failure:
        classical_coefficients(base)
    assert str(failure.value) == classical
    with pytest.raises(ValueError) as failure:
        garner_converter(base)
    assert str(failure.value) == garner


def test_garner_table_peaks_near_what_it_keeps():
    """Building the table holds no second copy of its rows, such as a list of
    row lists turned into tuples afterwards."""
    base = prime_base(192)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        converter = garner_converter(base)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert converter.egcd_calls == 192 * 191 // 2
    assert peak - before <= 1.1 * (current - before)


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

    def getrandbits(self, k):
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


def test_probabilistic_matches_reference_on_coprime_bases():
    # prime powers, composites, shuffled order and r = 1, against the oracle
    # that reduces u and v to per-modulus weights
    rng = random.Random(45)
    bases = [random_coprime_base(rng, max_len=24) for _ in range(40)]
    bases.append(ModuliBase.from_moduli([9]))
    assert min(len(base.moduli) for base in bases) == 1
    assert any(base.moduli != tuple(sorted(base.moduli)) for base in bases)
    for index, base in enumerate(bases):
        values = [0, base.product - 1] + [rng.randrange(base.product) for _ in range(3)]
        for seed, x in enumerate(values):
            vector = encode(x, base)
            got_rng = random.Random(index * 10 + seed)
            oracle = random.Random(index * 10 + seed)
            got = probabilistic_reconstruct(vector, got_rng)
            assert got == reference_probabilistic_reconstruct(vector, oracle)
            assert got[0] == x
            assert got_rng.getstate() == oracle.getstate()


@pytest.mark.parametrize("r", [1, 2, 16])
def test_default_bound_is_resolved_in_one_step(r):
    base = prime_base(r)
    bound = default_n2_bound(base)
    rngs = [random.Random(46)] * 50
    explicit = [random.Random(46)] * 50
    assert coprime_form_stats(base, rngs) == coprime_form_stats(base, explicit, bound)
    assert coprime_form_stats(base, rngs, max_attempts=1) == coprime_form_stats(
        base, explicit, bound, 1
    )
    assert rngs[0].getstate() == explicit[0].getstate()
    vector = encode(base.product // 3, base)
    got_rng, oracle = random.Random(47), random.Random(47)
    got = probabilistic_reconstruct(vector, got_rng)
    assert got == probabilistic_reconstruct(vector, oracle, bound)
    assert got[1].n2_bound == bound
    assert got_rng.getstate() == oracle.getstate()


class _PlainRandom(random.Random):
    """A subclass that overrides nothing, so randint still uses getrandbits."""


@settings(max_examples=150, deadline=None)
@given(
    r=st.integers(0, 300),
    seed=st.integers(0, 2**64 - 1),
    n2_bound=st.integers(1, 2**70),
    rng_type=st.sampled_from([random.Random, _PlainRandom]),
)
@example(r=5, seed=0, n2_bound=1, rng_type=random.Random)
@example(r=5, seed=0, n2_bound=2, rng_type=random.Random)
@example(r=200, seed=1, n2_bound=2**16 - 1, rng_type=random.Random)
@example(r=200, seed=2, n2_bound=2**16, rng_type=random.Random)
@example(r=200, seed=3, n2_bound=2**16 + 1, rng_type=random.Random)
@example(r=200, seed=4, n2_bound=2**32 + 1, rng_type=random.Random)
@example(r=200, seed=5, n2_bound=2**64 + 1, rng_type=random.Random)
@example(r=200, seed=6, n2_bound=2**16 + 1, rng_type=_PlainRandom)
def test_batched_draw_matches_randint_loop(r, seed, n2_bound, rng_type):
    rng, oracle = rng_type(seed), rng_type(seed)
    assert _draw_coefficients(rng, n2_bound, r) == reference_draw(oracle, n2_bound, r)
    assert rng.getstate() == oracle.getstate()


def test_shared_generator_is_left_where_randint_would_leave_it():
    base = prime_base(12)
    vectors = [encode(v, base) for v in (7, base.product - 1, 12345)]
    rng, oracle = random.Random(71), random.Random(71)
    for vector in vectors:
        got = probabilistic_reconstruct(vector, rng)
        assert got == reference_probabilistic_reconstruct(vector, oracle)
    # a coprime_form_stats run, then one more reconstruction, on one generator;
    # max_attempts 1 makes some trials exhausted
    stats = coprime_form_stats(base, [rng] * 40, max_attempts=1)
    hits = 0
    for _ in range(40):
        try:
            reference_probabilistic_reconstruct(vectors[0], oracle, max_attempts=1)
            hits += 1
        except AttemptsExhaustedError:
            pass
    assert stats == (hits, 40, 40 - hits) and 0 < hits < 40
    got = probabilistic_reconstruct(vectors[1], rng)
    assert got == reference_probabilistic_reconstruct(vectors[1], oracle)
    assert rng.getstate() == oracle.getstate()


def test_coprime_form_attempt_statistics():
    hits, total, exhausted = coprime_form_stats(
        prime_base(16), [random.Random(43)] * 2000
    )
    assert exhausted == 0
    assert 0.50 <= hits / 2000 <= 0.72
    assert total / 2000 < 2.0


def test_coprime_form_attempts_rejects_bad_bounds():
    base = prime_base(4)
    rngs = [random.Random(44)] * 3
    with pytest.raises(ValueError, match="n2_bound"):
        coprime_form_stats(base, rngs, n2_bound=0)
    with pytest.raises(ValueError, match="max_attempts"):
        coprime_form_stats(base, rngs, max_attempts=0)
    # s == t for every draw: the forms are equal and never coprime
    with pytest.raises(ValueError, match="n2_bound must be at least 2"):
        coprime_form_stats(base, rngs, n2_bound=1)
    with pytest.raises(ValueError, match="n2_bound must be at least 2"):
        probabilistic_reconstruct(encode(5, base), random.Random(44), n2_bound=1)
    for bound, named in ((70000.0, "70000.0"), (True, "True"), ("9", "'9'")):
        with pytest.raises(TypeError, match=f"^n2_bound {named} is not an int$"):
            coprime_form_stats(base, rngs, n2_bound=bound)
        with pytest.raises(TypeError, match=f"^n2_bound {named} is not an int$"):
            probabilistic_reconstruct(encode(5, base), random.Random(44), bound)
    for attempts, named in ((2.0, "2.0"), (True, "True"), ("2", "'2'")):
        with pytest.raises(TypeError, match=f"^max_attempts {named} is not an int$"):
            coprime_form_stats(base, rngs, max_attempts=attempts)
        with pytest.raises(TypeError, match=f"^max_attempts {named} is not an int$"):
            probabilistic_reconstruct(
                encode(5, base), random.Random(44), max_attempts=attempts
            )
