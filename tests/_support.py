"""Shared helpers for the test suite: independent oracles and generators."""

import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import crrkit
from crrkit import (
    AttemptsExhaustedError,
    LinearFormSample,
    ModuliBase,
    ParseError,
    Scaler,
    cli,
    default_n2_bound,
    nth_prime,
)
from crrkit.reconstruct import _bezout_pair

# Criteria on random coprime bases share this seed so the same 100 bases are
# exercised by every check that claims to run over "the same" population.
BASES_SEED = 20260815


def shown_int(value: int) -> str:
    """How a message quotes an int: in full up to 40 digits, else its first 20
    digits and its length, and "of N bits" past the int <-> str digit limit."""
    try:
        text = str(value)
    except ValueError:
        return f"of {value.bit_length()} bits"
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} chars)"


def run_python(*args):
    """Run a fresh interpreter on the crrkit sources under test: (code, out, err)."""
    src = str(Path(crrkit.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def reference_main(argv) -> int:
    """``crrkit.cli.main`` with every argv parsed by the top parser.

    The top parser hands the words after the command to that command's
    parser, so each argv is parsed twice: the path that ``main``'s one-parse
    dispatch replaces.
    """
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else cli.USAGE_EXIT
    return cli._run(args)


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def primes_by_trial(count: int) -> list[int]:
    """First ``count`` primes by pure trial division (oracle path)."""
    out = []
    candidate = 2
    while len(out) < count:
        if is_prime_trial(candidate):
            out.append(candidate)
        candidate += 1
    return out


def primes_by_eratosthenes(limit: int) -> list[int]:
    """Every prime below ``limit``, by a plain sieve that flags every integer.

    Reference for the segmented odd-only sieve behind ``nth_prime``.
    """
    flags = bytearray([1]) * limit
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return list(itertools.compress(range(limit), flags))


def brute_force_crt(residues, moduli) -> int:
    """Search [0, prod) for the unique integer with the given residues."""
    product = 1
    for m in moduli:
        product *= m
    for x in range(product):
        if all(x % m == r for m, r in zip(moduli, residues)):
            return x
    raise AssertionError("no integer matches the residues")


def prefix_products(moduli) -> tuple[int, ...]:
    """``prefix[j]`` is the product of the first j moduli; prefix[0] == 1."""
    return (1, *itertools.accumulate(moduli, operator.mul))


def random_coprime_base(rng: random.Random, max_len: int = 32) -> ModuliBase:
    """A pairwise-coprime base: shuffled prime powers, occasionally composite."""
    r = rng.randint(1, max_len)
    pool = [nth_prime(i) for i in range(1, 120)]
    primes = rng.sample(pool, r + 1)
    moduli = []
    for p in primes[:r]:
        roll = rng.random()
        if roll < 0.15:
            moduli.append(p ** rng.randint(2, 3))
        elif roll < 0.25:
            moduli.append(p * primes[r])  # composite, still coprime to the rest
            primes[r] = 1
        else:
            moduli.append(p)
    moduli = [m for m in moduli if m > 1]
    rng.shuffle(moduli)
    return ModuliBase.from_moduli(moduli)


@dataclass(frozen=True)
class UnderApprox:
    """One-sided rational approximation: target - value stays in [0, 2**-bits]."""

    value: Fraction
    target: Fraction
    bits: int

    @property
    def holds(self) -> bool:
        gap = self.target - self.value
        return 0 <= gap <= Fraction(1, 1 << self.bits)


def suffix_product_series(numerators, groups) -> tuple[int, int]:
    """Reciprocal series summed term by term over suffix products of the groups.

    Reference for `division._series_from`: the same unreduced (numerator,
    denominator) with denominator prod(groups).
    """
    suffix = [1] * (len(groups) + 1)
    for i in range(len(groups) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * groups[i]
    denominator = suffix[0]
    total = denominator
    prefix = 1
    for i, t in enumerate(numerators):
        if t == 0:
            break
        prefix *= t
        total += prefix * suffix[i + 1]
    return total, denominator


def reference_horner_series(numerators, groups) -> tuple[int, int]:
    """Reciprocal series by Horner's rule from the last group inward.

    1 + (t/A) * (num/den) is (A*den + t*num) / (A*den): n + 1 small-by-big
    steps, quadratic in the total bit length.  Reference for binary
    splitting: the same unreduced (numerator, denominator = prod(groups)).
    """
    numerator = denominator = 1
    for t, a in zip(reversed(numerators), reversed(groups)):
        numerator, denominator = a * denominator + t * numerator, a * denominator
    return numerator, denominator


def bisect_scaler(y: int, prefix: tuple[int, ...]) -> Scaler:
    """Scaler by bisection over all prefix products (reference for build_scaler).

    ``prefix[j]`` is the product of the first j moduli of the base.
    """
    j = bisect_right(prefix, y) - 1
    if j >= len(prefix) - 1:
        raise ValueError("moduli base too short to bracket the divisor")
    k = 1
    while (prefix[j] << k) <= y:
        k += 1
    return Scaler(j, k, prefix[j] << k)


def doubling_scaler(y: int, base: ModuliBase) -> Scaler:
    """Scaler by walking the prefix, then doubling it until it passes y
    (reference for build_scaler's exponent, read off y // prefix)."""
    moduli = base.moduli
    j, prefix = 0, 1
    while j < len(moduli) and prefix * moduli[j] <= y:
        prefix *= moduli[j]
        j += 1
    if j == len(moduli):
        raise ValueError("moduli base too short to bracket the divisor")
    k = 1
    while (prefix << k) <= y:
        k += 1
    return Scaler(j, k, prefix << k)


# --- extended-gcd references for the routes that invert through pow ---


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b == g == gcd(a, b) > 0."""
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) is undefined")
    sign_a = -1 if a < 0 else 1
    sign_b = -1 if b < 0 else 1
    old_r, r = abs(a), abs(b)
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, sign_a * old_s, sign_b * old_t


def reference_classical_weights(base: ModuliBase) -> tuple[int, ...]:
    """Classical weights, one extended gcd per modulus."""
    weights = []
    for m in base.moduli:
        _, inverse, _ = extended_gcd(base.product // m % m, m)
        weights.append(inverse % m)
    return tuple(weights)


def reference_chain_pairs(base: ModuliBase) -> tuple[tuple[int, int], ...]:
    """The chain's Bezout pairs (alpha_j, beta_j), alpha_j*m_j + beta_j*P_j == 1
    for P_j the product of the moduli before m_j, by extended Euclid."""
    prefix = prefix_products(base.moduli)
    return tuple(
        tuple(extended_gcd(m, prefix[j])[1:]) for j, m in enumerate(base.moduli) if j
    )


def chain_weights(base: ModuliBase) -> tuple[int, ...]:
    """The chain's unreduced weights: beta_i times every later alpha.

    Built from :func:`reference_chain_pairs`, they satisfy the telescoping
    identity sum(w_i * product / m_i) == 1 exactly and reduce mod m_i to the
    sequential (and classical) weights.  Weight i carries the product of the
    later alphas, each about as wide as its prefix, so it has O(r^2) words
    and the tuple O(r^3) bits: for small bases only.
    """
    weights = []
    suffix = 1
    for alpha, beta in reversed(reference_chain_pairs(base)):
        weights.append(beta * suffix)
        suffix *= alpha
    weights.append(suffix)
    return tuple(reversed(weights))


def reference_sequential_weights(base: ModuliBase) -> tuple[int, ...]:
    """The chain's weights by the wide back-walk: the running product of
    alphas is multiplied in and reduced modulo the prefix product at each step.
    """
    pairs = reference_chain_pairs(base)
    moduli = base.moduli
    r = len(moduli)
    prefix = math.prod(moduli[:-1])
    weights = [0] * r
    suffix = 1
    # prefix is prefix_i on each step, walked back by exact division
    for i in range(r - 1, 0, -1):
        alpha, beta = pairs[i - 1]
        weights[i] = beta * suffix % moduli[i]
        suffix = suffix * alpha % prefix
        prefix //= moduli[i - 1]
    weights[0] = suffix % moduli[0]
    return tuple(weights)


def word_walk_sequential_weights(base: ModuliBase) -> tuple[int, ...]:
    """The chain's weights by one word-size back-step per modulus.

    One Bezout pair of m_j and the running prefix per modulus after the
    first, then the back-walk: on entering step i, ``suffix`` is congruent to
    the product of the alphas after i modulo P_i*m_i, and the step takes
    w_i = beta_i*(suffix mod m_i) mod m_i and divides suffix - w_i*P_i
    exactly by m_i.  Raises the ValueError of the first pair whose two sides
    share a factor.
    """
    moduli = base.moduli
    r = len(moduli)
    prefix = 1
    pairs = []
    for j in range(1, r):
        prefix *= moduli[j - 1]
        pairs.append(_bezout_pair(moduli[j], prefix))
    weights = [0] * r
    suffix = 1
    # prefix is prefix_i on each step, walked back by exact division
    for i in range(r - 1, 0, -1):
        m = moduli[i]
        w = weights[i] = pairs[i - 1][1] * (suffix % m) % m
        suffix = (suffix - w * prefix) // m
        prefix //= moduli[i - 1]
    weights[0] = suffix % moduli[0]
    return tuple(weights)


def reference_garner_inverses(base: ModuliBase) -> tuple[tuple[int, ...], ...]:
    """Garner's table m_i^-1 mod m_j for i < j, one extended gcd per entry."""
    moduli = base.moduli
    inverses = []
    for j, m in enumerate(moduli):
        row = []
        for i in range(j):
            _, inverse, _ = extended_gcd(moduli[i] % m, m)
            row.append(inverse % m)
        inverses.append(tuple(row))
    return tuple(inverses)


def reference_garner_decode(base: ModuliBase, inverses, residues) -> int:
    """Garner's mixed-radix decode over the full table of pairwise inverses.

    Digit j subtracts each earlier digit and multiplies by its inverse in
    turn, r(r-1)/2 word-size steps in all; the digits then join by Horner's
    rule from the top.
    """
    moduli = base.moduli
    digits = []
    for x, m, row in zip(residues, moduli, inverses):
        for d, inverse in zip(digits, row):
            x = (x - d) * inverse % m
        digits.append(x)
    value = 0
    for d, m in zip(reversed(digits), reversed(moduli)):
        value = value * m + d
    return value


def reference_draw(rng, n2_bound: int, r: int) -> tuple[int, ...]:
    """r coefficients in [1, n2_bound], one ``randint`` call each.

    Reference for the batched ``getrandbits`` draw of the random route.
    """
    return tuple(rng.randint(1, n2_bound) for _ in range(r))


def reference_probabilistic_reconstruct(vector, rng, n2_bound=None, max_attempts=64):
    """The random-linear-form route with an extended gcd on every attempt.

    Draws from rng in the same order as ``probabilistic_reconstruct``.
    """
    base = vector.base
    if n2_bound is None:
        n2_bound = default_n2_bound(base)
    for attempt in range(1, max_attempts + 1):
        s = reference_draw(rng, n2_bound, len(base.moduli))
        t = reference_draw(rng, n2_bound, len(base.moduli))
        form_s, form_t = reference_forms(base, s, t)
        g, u, v = extended_gcd(form_s, form_t)
        if g == 1:
            break
    else:
        raise AttemptsExhaustedError(max_attempts, n2_bound)
    weights = [(u * si + v * ti) % m for si, ti, m in zip(s, t, base.moduli)]
    sample = LinearFormSample(s, t, form_s, form_t, u, v, attempt, n2_bound)
    return reference_crt_sum(vector.residues, weights, base), sample


# --- flat loops over the full cofactors: references for the product tree ---


def reference_encode(value: int, base: ModuliBase) -> tuple[int, ...]:
    """value mod each modulus, one big-by-small remainder per modulus."""
    return tuple(value % m for m in base.moduli)


def reference_crt_sum(residues, weights, base: ModuliBase) -> int:
    """sum(x_i * w_i * product / m_i) reduced into [0, product)."""
    total = sum(
        x * w * (base.product // m) for x, w, m in zip(residues, weights, base.moduli)
    )
    return total % base.product


def reference_forms(base: ModuliBase, s, t) -> tuple[int, int]:
    """The two linear forms sum(s_i * product / m_i) and sum(t_i * product / m_i)."""
    cofactors = [base.product // m for m in base.moduli]
    return (
        sum(c * si for c, si in zip(cofactors, s)),
        sum(c * ti for c, ti in zip(cofactors, t)),
    )


# --- per-token parsers of the base and res lines: references for the
# one-pass line checks and the error walks behind them ---

_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def _reference_uint(token: str, line_no: int, position: int) -> int:
    if not _DECIMAL.fullmatch(token):
        raise ParseError(f"malformed integer {token!r}", line_no, position)
    return int(token)


def reference_parse_base_tokens(tokens, line_no: int) -> ModuliBase:
    """A base line's tokens, checked and converted one at a time."""
    if not tokens or tokens[0] != "base":
        raise ParseError("expected 'base' keyword", line_no, 1)
    if len(tokens) < 2:
        raise ParseError("missing modulus count", line_no, 2)
    declared = _reference_uint(tokens[1], line_no, 2)
    if declared < 1:
        raise ParseError("modulus count must be positive", line_no, 2)
    if len(tokens) != 2 + declared:
        raise ParseError(
            f"expected {declared} moduli, found {len(tokens) - 2}", line_no, 2
        )
    mods = []
    for position, token in enumerate(tokens[2:], start=3):
        m = _reference_uint(token, line_no, position)
        if m < 2:
            raise ParseError(f"modulus {m} is below 2", line_no, position)
        mods.append(m)
    try:
        return ModuliBase.from_moduli(mods)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, 3) from exc


def reference_parse_res_tokens(tokens, base: ModuliBase, line_no: int) -> tuple:
    """A residue line's tokens, checked and converted one at a time."""
    if not tokens or tokens[0] != "res":
        raise ParseError("expected 'res' keyword", line_no, 1)
    if len(tokens) != 1 + len(base.moduli):
        raise ParseError(
            f"expected {len(base.moduli)} residues, found {len(tokens) - 1}",
            line_no,
            1,
        )
    residues = []
    for position, (token, m) in enumerate(zip(tokens[1:], base.moduli), start=2):
        x = _reference_uint(token, line_no, position)
        if x >= m:
            raise ParseError(f"residue {x} not below modulus {m}", line_no, position)
        residues.append(x)
    return tuple(residues)


# --- exact powers: reference for the float-settled floor of value / log2 n ---


def reference_floor_div_log2(value: int, n: int) -> int:
    """The largest k with n**k <= 2**value, by comparing exact powers."""
    estimate = max(0, int(value / math.log2(n)))
    while n ** (estimate + 1) <= 1 << value:
        estimate += 1
    while estimate > 0 and n**estimate > 1 << value:
        estimate -= 1
    return estimate


# The routes' module, which holds the cost rule; the package's ``reconstruct``
# attribute is the function of that name.
ROUTES = sys.modules["crrkit.reconstruct"]


def base_cost(command: str, base: ModuliBase) -> int:
    """The rule's units for ``command`` on ``base``: its r, and its total and
    widest bits in whole 64-bit words."""
    bits = [m.bit_length() for m in base.moduli]
    return ROUTES._cost(command, len(bits), sum(bits) // 64, max(bits) // 64)


def largest_affordable_prime_base(command: str) -> int:
    """The largest r whose ``prime_base(r)`` the rule admits for ``command``,
    by bisection over the rule's own cost; the cost grows with r."""
    lo, hi = 1, 1 << 17
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if base_cost(command, crrkit.prime_base(mid)) <= ROUTES.COST_BUDGET:
            lo = mid
        else:
            hi = mid - 1
    return lo


def wide_mersenne_base() -> ModuliBase:
    """128 moduli 2**p - 1 for the primes p from 8009 to 9157: 1.1 Mbit in all.

    Distinct prime exponents make them pairwise coprime.  On CPython 3.11 a
    quadratic route took 6.9-8.0 s on such a base from the command line.
    """
    exponents = [p for p in map(nth_prime, range(1000, 1200)) if p > 8000][:128]
    return ModuliBase(tuple((1 << p) - 1 for p in exponents))
