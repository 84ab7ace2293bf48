"""Reconstruction routes: the extended-gcd oracle, coefficient builders, random forms."""

import builtins
import itertools
import math
import random
import re
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
    CrrVector,
    CrtCoefficients,
    ModuliBase,
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
from crrkit import cli
from crrkit.reconstruct import _bezout_pair, _draw_coefficients
from _support import (
    ROUTES,
    base_cost,
    brute_force_crt,
    chain_weights,
    extended_gcd,
    largest_affordable_prime_base,
    prefix_products,
    random_coprime_base,
    reference_chain_pairs,
    reference_classical_weights,
    reference_draw,
    reference_garner_decode,
    reference_garner_inverses,
    reference_probabilistic_reconstruct,
    reference_sequential_weights,
    shown_int,
    wide_mersenne_base,
    word_walk_sequential_weights,
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
        named = f"{shown_int(b)} has no inverse modulo {shown_int(a)}:"
        with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
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
    coeffs = sequential_coefficients(base)
    assert coeffs.weights == (2, 2)
    assert coeffs.egcd_calls == 1
    alpha, beta = _bezout_pair(5, 3)
    assert (alpha, beta) == (-1, 2)
    assert alpha * 5 + beta * 3 == 1
    assert chain_weights(base) == (alpha, beta)


def test_sequential_single_modulus():
    base = ModuliBase.from_moduli([5])
    coeffs = sequential_coefficients(base)
    assert coeffs.weights == (1,)
    assert coeffs.egcd_calls == 0
    assert chain_weights(base) == (1,)


def test_sequential_call_count_is_r_minus_one():
    for r in (1, 2, 8, 33):
        coeffs = sequential_coefficients(prime_base(r))
        assert coeffs.egcd_calls == r - 1


def test_chain_pair_identities():
    # each pow-derived pair of the chain is extended Euclid's own pair
    rng = random.Random(32)
    bases = [random_coprime_base(rng) for _ in range(100)]
    for base in bases + [prime_base(192)]:
        prefix = prefix_products(base.moduli)
        pairs = reference_chain_pairs(base)
        assert len(pairs) == len(base.moduli) - 1
        for j, (alpha, beta) in enumerate(pairs, start=1):
            assert alpha * base.moduli[j] + beta * prefix[j] == 1
            assert _bezout_pair(base.moduli[j], prefix[j]) == (alpha, beta), (base, j)


def test_sequential_agrees_with_classical():
    rng = random.Random(33)
    for _ in range(30):
        base = random_coprime_base(rng, max_len=24)
        seq = sequential_coefficients(base)
        assert seq.weights == classical_coefficients(base).weights


def test_telescoping_identity_exact():
    rng = random.Random(34)
    for max_len in (4, 16, 64):
        base = random_coprime_base(rng, max_len=max_len)
        weights = chain_weights(base)
        total = sum(w * (base.product // m) for w, m in zip(weights, base.moduli))
        assert total == 1


def test_sequential_weights_reduce_chain_weights():
    # the leaf-sized back-walk must give the exact chain weights mod m_i
    rng = random.Random(37)
    bases = [random_coprime_base(rng, max_len=64) for _ in range(20)]
    for base in bases + [prime_base(192)]:
        coeffs = sequential_coefficients(base)
        exact = chain_weights(base)
        assert coeffs.weights == tuple(w % m for w, m in zip(exact, base.moduli))


class Reached(Exception):
    """Raised by a stand-in for a route's first costly call."""


def _stand_in(route):
    def reached(*args):
        raise Reached(route)

    return reached


def _prob(base):
    return probabilistic_reconstruct(CrrVector(base, (0,) * len(base)), random.Random(0))


CAPPED_ROUTES = pytest.mark.parametrize(
    "route, build, first_costly_call",
    [
        ("garner", garner_converter, "_radix_inverses"),
        # a module-level pow shadows the builtin for its inversions
        ("sequential", sequential_coefficients, "pow"),
        ("prob", _prob, "_first_coprime_draw"),
    ],
    ids=["garner", "sequential", "prob"],
)


@CAPPED_ROUTES
def test_each_capped_route_refuses_past_the_budget_before_any_work(
    monkeypatch, route, build, first_costly_call
):
    monkeypatch.setattr(ROUTES, first_costly_call, _stand_in(route), raising=False)
    top = largest_affordable_prime_base(route)
    # a fresh base, whose product tree nothing has built yet
    base = ModuliBase(prime_base(top + 1).moduli)
    cost = base_cost(route, base)
    assert base_cost(route, prime_base(top)) <= ROUTES.COST_BUDGET < cost
    message = (
        f"{route} on {top + 1} moduli costs {cost} units, "
        f"above the budget of {ROUTES.COST_BUDGET}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(base)
    assert "_tree" not in vars(base)
    with pytest.raises(Reached):
        build(prime_base(top))


@CAPPED_ROUTES
def test_each_capped_route_refuses_a_few_wide_moduli_before_any_work(
    monkeypatch, route, build, first_costly_call
):
    # 128 moduli, 16 to 64 times under the old count caps, but 1.1 Mbit
    monkeypatch.setattr(ROUTES, first_costly_call, _stand_in(route), raising=False)
    base = wide_mersenne_base()
    with pytest.raises(ValueError, match=f"^{route} on 128 moduli costs "):
        build(base)
    assert base_cost(route, base) > 8 * ROUTES.COST_BUDGET
    assert "_tree" not in vars(base)


@pytest.mark.parametrize("r", [1, 8192])
def test_prob_charges_the_coefficient_bound_before_any_work(monkeypatch, r):
    # the forms are as wide as the base's words and the bound's together; on
    # 8192 primes a 4,299-digit bound took 1.60 s against the budget's 1.3 s
    monkeypatch.setattr(ROUTES, "_first_coprime_draw", _stand_in("prob"))
    moduli = prime_base(r).moduli
    bits = [m.bit_length() for m in moduli]
    t, w = sum(bits) // 64, max(bits) // 64
    words = 0  # the widest bound, in whole words, that the rule admits
    while ROUTES._cost("prob", r, t + words + 1, w) <= ROUTES.COST_BUDGET:
        words += 1
    inside, past = 1 << 64 * words, 1 << 64 * (words + 1)
    base = ModuliBase(moduli)
    vector = CrrVector(base, (0,) * r)
    cost = ROUTES._cost("prob", r, t + words + 1, w)
    message = (
        f"prob on {r} moduli costs {cost} units, "
        f"above the budget of {ROUTES.COST_BUDGET}"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        probabilistic_reconstruct(vector, random.Random(0), past)
    assert "_tree" not in vars(base)
    with pytest.raises(Reached):
        probabilistic_reconstruct(vector, random.Random(0), inside)
    # the default bound is charged from r and the bits, with no product: it
    # stays under max(2**16, 64 * (r + total bits)), less than a word here
    assert default_n2_bound(base) <= max(1 << 16, 64 * (r + sum(bits))) < 1 << 63
    with pytest.raises(Reached):
        probabilistic_reconstruct(vector, random.Random(0))


def test_one_cost_rule_admits_every_size_the_count_caps_did():
    # the count caps it replaced: garner 2048 moduli, sequential and prob 8192
    assert largest_affordable_prime_base("garner") == 2048
    assert largest_affordable_prime_base("sequential") >= 8192
    assert largest_affordable_prime_base("prob") >= 8192
    for name in (
        "GARNER_MAX_MODULI", "SEQUENTIAL_MAX_MODULI", "PROB_MAX_MODULI",
        "CHAIN_WEIGHTS_MAX_MODULI", "_CAPS", "_require_at_most", "chain_weights",
    ):
        assert not hasattr(ROUTES, name)
    assert not hasattr(cli, "PROB_STATS_BUDGET")


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
# prime bases end just before, at and just after the product tree's leaf
# boundaries (32 moduli a leaf); the Mersenne numbers 2**p - 1 of distinct primes p are
# pairwise coprime and span two leaves of large moduli.  The fixed r = 1024
# example runs the oracle's wide walk for about 0.15 s
MERSENNE_BASE = ModuliBase.from_moduli([(1 << p) - 1 for p in CHAIN_PRIMES if p < 300])


@settings(deadline=None)
@given(chain_bases())
@example(ModuliBase.from_moduli([(1 << 64) + 1]))
@example(ModuliBase.from_moduli([(1 << 64) + 1, 3]))
@example(ModuliBase.from_moduli([(1 << 64) + 1, 3**5, 35, 2, 11, 13]))
@example(prime_base(1))
@example(prime_base(2))
@example(prime_base(31))
@example(prime_base(32))
@example(prime_base(33))
@example(prime_base(63))
@example(prime_base(64))
@example(prime_base(65))
@example(prime_base(97))
@example(MERSENNE_BASE)
@example(prime_base(1024))
def test_sequential_walk_matches_the_wide_walk(base):
    coeffs = sequential_coefficients(base)
    assert coeffs.weights == reference_sequential_weights(base)
    assert coeffs.weights == word_walk_sequential_weights(base)
    assert coeffs.weights == classical_coefficients(base).weights
    assert coeffs.egcd_calls == len(base.moduli) - 1


def _share_factor_at(j: int, r: int = 97) -> ModuliBase:
    """prime_base(r) with m_j multiplied by 5 = m_0, so that P_j is the first
    prefix to share a factor with its modulus; unchecked."""
    moduli = list(prime_base(r).moduli)
    moduli[j] *= 5
    return ModuliBase(moduli)


# leaves of 32 moduli: j = 1 and 31 in the first, 32 and 45 in a middle one,
# 96 alone in the last
@pytest.mark.parametrize("j", [1, 31, 32, 45, 96])
def test_sequential_names_the_first_shared_factor_as_the_chain_does(j):
    base = _share_factor_at(j)
    with pytest.raises(ValueError) as expected:
        word_walk_sequential_weights(base)
    with pytest.raises(ValueError) as got:
        sequential_coefficients(base)
    assert str(got.value) == str(expected.value)
    assert str(got.value).endswith(f"modulo {base.moduli[j]}: both are divisible by 5")


def test_sequential_walk_stays_word_sized_at_r_4096():
    # on a 2-vCPU VM the leaf-by-leaf walk takes about 0.03 s here, and the
    # wide walk of the oracle about 11 s
    base = prime_base(4096)
    start = time.perf_counter()
    coeffs = sequential_coefficients(base)
    assert time.perf_counter() - start < 4
    assert coeffs.egcd_calls == 4095


def test_sequential_memory_is_linear_at_r_2048():
    """The walk keeps r weights, the prefix and one leaf-sized product per
    modulus, about 0.2 MiB at r = 2048 on top of the base's product tree.
    Keeping the r - 1 Bezout pairs, O(r^2) bits, peaked at 3.3 MiB there."""
    base = prime_base(2048)
    base._tree  # the base's, built once and kept; not the route's
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        coeffs = sequential_coefficients(base)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert coeffs.egcd_calls == 2047
    assert peak < 0.5 * 2**20


@pytest.mark.parametrize("r", [1, 31, 32, 33, 65, 192])
def test_sequential_back_walk_reuses_the_forward_products(monkeypatch, r):
    # one running product R_{i-1} per leaf, taken forward; the back walk
    # reads the kept R_{i-1} * (P_s mod m_i) and rebuilds none of them
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return itertools.accumulate(*args, **kwargs)

    base = ModuliBase(prime_base(r).moduli)
    monkeypatch.setattr(ROUTES, "accumulate", counted)
    coeffs = sequential_coefficients(base)
    assert len(calls) == len(base._tree.chunks)
    assert coeffs.weights == classical_coefficients(base).weights


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
    rows = reference_garner_inverses(base)
    assert garner.radix_inverses == tuple(
        math.prod(row) % m for row, m in zip(rows, base.moduli)
    )
    assert garner.egcd_calls == r * (r - 1) // 2


@given(st.integers(0, 2**32))
@example(197)  # r = 1: the one modulus 59**2
@example(10)  # (293, 771, 373), with 771 = 3 * 257
def test_garner_radix_inverses_match_the_reference_rows(seed):
    rng = random.Random(seed)
    base = random_coprime_base(rng)
    moduli = base.moduli
    rows = reference_garner_inverses(base)
    garner = garner_converter(base)
    assert len(garner.radix_inverses) == len(moduli)
    for j, (c, m, row) in enumerate(zip(garner.radix_inverses, moduli, rows)):
        assert c == math.prod(row) % m
        assert c * math.prod(moduli[:j]) % m == 1
    for x in (0, base.product - 1, rng.randrange(base.product)):
        vector = encode(x, base)
        value = garner.decode(vector)
        assert value == reference_garner_decode(base, rows, vector.residues)
        assert value == x


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
        assert sequential_coefficients(base).egcd_calls == calls["pow"] == r - 1
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
        a, m, shared = map(shown_int, (a, m, math.gcd(a, m)))
        return f"{a} has no inverse modulo {m}: both are divisible by {shared}"

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


@pytest.fixture(scope="module")
def traced_builds():
    """r -> (converter, peak, kept): bytes of one build under tracemalloc, over
    what was traced before it.  Tracing makes a build about 25 times slower,
    so the memory tests share these two."""
    builds = {}
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for r in (192, 384):
            base = prime_base(r)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            converter = garner_converter(base)
            current, peak = tracemalloc.get_traced_memory()
            builds[r] = converter, peak - before, current - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return builds


def test_garner_table_peaks_near_what_it_keeps(traced_builds):
    """Building the converter holds no row of inverses and no second copy of
    the radix inverses, such as a list turned into a tuple afterwards.

    At r = 384 it keeps about 11 KiB.  A kept row would add about 14 KiB to
    the peak and a list copy about 3 KiB; the build's fixed overhead (frame,
    iterators) adds about 1.2 KiB.
    """
    converter, peak, kept = traced_builds[384]
    assert converter.egcd_calls == 384 * 383 // 2
    assert peak <= 1.25 * kept


def test_garner_converter_memory_grows_linearly(traced_builds):
    """The converter keeps r ints: doubling r at most triples the build's peak.

    A table of all r(r-1)/2 pairwise inverses quadruples it, to about 2 MiB
    at r = 384.
    """
    small, large = traced_builds[192][1], traced_builds[384][1]
    assert large <= 3 * small
    assert large < 256 * 1024


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


def test_reconstruct_refuses_weights_not_one_per_modulus():
    base = prime_base(2)
    vector = encode(3, base)
    for weights in ((1,), (1, 2, 3)):
        message = f"^expected 2 weights, one per modulus, not {len(weights)}$"
        with pytest.raises(ValueError, match=message):
            reconstruct(vector, CrtCoefficients(base, weights, 2))
    assert reconstruct(vector, classical_coefficients(base)) == 3


def test_garner_decode_refuses_radix_inverses_not_one_per_modulus():
    base = prime_base(3)
    converter = garner_converter(base)
    vector = encode(300, base)
    inverses = converter.radix_inverses
    for wrong in (inverses[:1], inverses + (1,)):
        message = f"^expected 3 radix inverses, one per modulus, not {len(wrong)}$"
        with pytest.raises(ValueError, match=message):
            converter._replace(radix_inverses=wrong).decode(vector)
    assert converter.decode(vector) == 300


def test_round_trip_all_routes_random_bases():
    rng = random.Random(36)
    for _ in range(10):
        base = random_coprime_base(rng, max_len=12)
        classical = classical_coefficients(base)
        sequential = sequential_coefficients(base)
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


def test_prob_route_on_a_shared_factor_base_says_so(monkeypatch):
    # 2 divides 6 and 10 and so every cofactor: no two forms are ever coprime
    vector = encode(17, ModuliBase((6, 35, 11, 10)))
    rng, oracle = random.Random(1), random.Random(1)
    with pytest.raises(ValueError, match="^moduli share a factor"):
        probabilistic_reconstruct(vector, rng)
    # it spent all 64 attempts before it looked at the base
    with pytest.raises(AttemptsExhaustedError):
        reference_probabilistic_reconstruct(vector, oracle)
    assert rng.getstate() == oracle.getstate()
    # a successful decode never checks the base
    checked = []
    module = sys.modules["crrkit.reconstruct"]
    monkeypatch.setattr(module, "pairwise_coprime", checked.append)
    probabilistic_reconstruct(encode(17, prime_base(4)), random.Random(1))
    assert checked == []


# --- messages that quote an int of up to, or one past, the int <-> str limit ---

LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("digits", [LIMIT - 300, LIMIT, LIMIT + 1])
def test_exhaustion_with_a_huge_bound_keeps_its_type_and_a_short_message(digits):
    bound = 10**digits - 1
    # every coefficient is 1, so the two forms are equal and never coprime
    with pytest.raises(AttemptsExhaustedError) as info:
        probabilistic_reconstruct(encode(5, prime_base(3)), _ConstantRng(0), bound, 1)
    assert str(info.value) == (
        "no coprime linear forms after 1 attempts "
        f"(coefficient bound {shown_int(bound)})"
    )
    assert len(str(info.value)) < 100


@pytest.mark.parametrize("digits", [LIMIT, LIMIT + 1])
@pytest.mark.parametrize(
    "route, message",
    [
        (classical_coefficients, "6 has no inverse modulo {}"),
        (sequential_coefficients, "{} has no inverse modulo 6"),
    ],
)
def test_shared_factor_message_of_a_huge_modulus_is_short(digits, route, message):
    huge = 2 * 10 ** (digits - 1)  # even, like 6, and of ``digits`` digits
    with pytest.raises(ValueError) as info:
        route(ModuliBase((huge, 6)))
    expected = message.format(shown_int(huge))
    assert str(info.value) == f"{expected}: both are divisible by 2"
    assert len(str(info.value)) < 100


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
    rng, explicit = random.Random(46), random.Random(46)
    assert coprime_form_stats(base, rng, 50) == coprime_form_stats(
        base, explicit, 50, bound
    )
    assert coprime_form_stats(base, rng, 50, max_attempts=1) == coprime_form_stats(
        base, explicit, 50, bound, 1
    )
    assert rng.getstate() == explicit.getstate()
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
    stats = coprime_form_stats(base, rng, 40, max_attempts=1)
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


@pytest.mark.parametrize("r", [1, 2, 8, 64])
def test_coprime_form_stats_runs_its_trials_in_turn_on_one_generator(r):
    # the oracle: one reference reconstruction per trial, on the same generator
    base = prime_base(r)
    vector = encode(base.product - 1, base)
    for trials, max_attempts, seed in itertools.product((1, 50), (1, 64), range(5)):
        rng, oracle = random.Random(seed), random.Random(seed)
        hits = attempts = exhausted = 0
        for _ in range(trials):
            try:
                _, sample = reference_probabilistic_reconstruct(
                    vector, oracle, max_attempts=max_attempts
                )
            except AttemptsExhaustedError:
                exhausted += 1
                attempts += max_attempts
            else:
                hits += sample.attempts == 1
                attempts += sample.attempts
        stats = coprime_form_stats(base, rng, trials, max_attempts=max_attempts)
        assert stats == (hits, attempts, exhausted)
        assert rng.getstate() == oracle.getstate()


def test_coprime_form_stats_checks_trials_before_any_draw():
    base = prime_base(4)
    rng = random.Random(45)
    state = rng.getstate()
    for trials, named in ((3.0, "3.0"), (True, "True"), ("3", "'3'")):
        with pytest.raises(TypeError, match=f"^trials {named} is not an int$"):
            coprime_form_stats(base, rng, trials)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="^trials must be positive$"):
            coprime_form_stats(base, rng, trials)
    assert rng.getstate() == state


def test_coprime_form_attempt_statistics():
    hits, total, exhausted = coprime_form_stats(prime_base(16), random.Random(43), 2000)
    assert exhausted == 0
    assert 0.50 <= hits / 2000 <= 0.72
    assert total / 2000 < 2.0


def test_coprime_form_attempts_rejects_bad_bounds():
    base = prime_base(4)
    rng = random.Random(44)
    with pytest.raises(ValueError, match="n2_bound"):
        coprime_form_stats(base, rng, 3, n2_bound=0)
    with pytest.raises(ValueError, match="max_attempts"):
        coprime_form_stats(base, rng, 3, max_attempts=0)
    # s == t for every draw: the forms are equal and never coprime
    with pytest.raises(ValueError, match="n2_bound must be at least 2"):
        coprime_form_stats(base, rng, 3, n2_bound=1)
    with pytest.raises(ValueError, match="n2_bound must be at least 2"):
        probabilistic_reconstruct(encode(5, base), random.Random(44), n2_bound=1)
    for bound, named in ((70000.0, "70000.0"), (True, "True"), ("9", "'9'")):
        with pytest.raises(TypeError, match=f"^n2_bound {named} is not an int$"):
            coprime_form_stats(base, rng, 3, n2_bound=bound)
        with pytest.raises(TypeError, match=f"^n2_bound {named} is not an int$"):
            probabilistic_reconstruct(encode(5, base), random.Random(44), bound)
    for generator, named in ((None, "None"), (7, "7"), ("rng", "'rng'")):
        message = f"^rng {named} is not a generator with a getrandbits method$"
        with pytest.raises(TypeError, match=message):
            coprime_form_stats(base, generator, 3)
        with pytest.raises(TypeError, match=message):
            probabilistic_reconstruct(encode(5, base), generator)
    for attempts, named in ((2.0, "2.0"), (True, "True"), ("2", "'2'")):
        with pytest.raises(TypeError, match=f"^max_attempts {named} is not an int$"):
            coprime_form_stats(base, rng, 3, max_attempts=attempts)
        with pytest.raises(TypeError, match=f"^max_attempts {named} is not an int$"):
            probabilistic_reconstruct(
                encode(5, base), random.Random(44), max_attempts=attempts
            )
