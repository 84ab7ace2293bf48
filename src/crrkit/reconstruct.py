"""Turning residue vectors back into integers.

Four routes are provided:

* classical inverse coefficients, one modular inverse per modulus;
* a sequential chain of Bezout identities over growing prefix products,
  one extended-gcd call per modulus after the first;
* a Garner mixed-radix converter over all pairwise inverses, the
  quadratic-count baseline;
* a randomized route that draws integer linear forms over the cofactors
  until the two sums are coprime, then reads all reconstruction weights
  off a single Bezout pair.

One counted call is one modular inversion or one extended gcd, whether it
runs in C (``pow(a, -1, m)``, ``math.gcd``) or in Python
(:func:`extended_gcd`).  The three deterministic routes thread an
:class:`EgcdCounter`: the classical and Garner routes invert through
``pow``, and the sequential chain keeps :func:`extended_gcd` for its exact
Bezout pairs.  The random route's count is its ``attempts``: one gcd screen
per attempt, and only the coprime draw pays for its Bezout pair.  So the
four compare directly: r, r - 1, r(r-1)/2, and one call per random attempt.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import AttemptsExhaustedError, BaseMismatchError
from .moduli import ModuliBase
from .vectors import CrrVector


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


def _not_invertible(a: int, m: int) -> ValueError:
    return ValueError(
        f"{a} has no inverse modulo {m}: both are divisible by {math.gcd(a, m)}"
    )


class EgcdCounter:
    """Counts the modular inversions and extended gcds of one computation.

    Each :meth:`inverse` or :meth:`egcd` is one call, whether it runs in C
    or in Python.
    """

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def egcd(self, a, b):
        self.calls += 1
        return extended_gcd(a, b)

    def inverse(self, a: int, m: int) -> int:
        """a^-1 mod m in [0, m); ValueError when a and m share a factor."""
        self.calls += 1
        try:
            return pow(a, -1, m)
        except ValueError:
            raise _not_invertible(a, m) from None


@dataclass(frozen=True)
class CrtCoefficients:
    """Reconstruction weights: weights[i] * (product / m_i) == 1 mod m_i."""

    base: ModuliBase
    weights: tuple[int, ...]
    method: str  # "classical" or "sequential"
    egcd_calls: int


@dataclass(frozen=True)
class BezoutChain:
    """Exact pairs (alpha_j, beta_j) with alpha_j*m_j + beta_j*prefix_{j-1} == 1,
    one pair per modulus after the first."""

    pairs: tuple[tuple[int, int], ...]


@lru_cache(maxsize=32)
def _cofactors(base: ModuliBase) -> tuple[int, ...]:
    return tuple(base.product // m for m in base.moduli)


def classical_coefficients(base: ModuliBase) -> CrtCoefficients:
    """One modular inverse per modulus: r counted calls."""
    counter = EgcdCounter()
    weights = tuple(
        counter.inverse(cofactor, m)
        for m, cofactor in zip(base.moduli, _cofactors(base))
    )
    return CrtCoefficients(base, weights, "classical", counter.calls)


def sequential_coefficients(base: ModuliBase) -> tuple[CrtCoefficients, BezoutChain]:
    """Weights from a chain of Bezout identities: r - 1 extended-gcd calls.

    Step j relates modulus j to the product of all earlier moduli; the weight
    for position i is beta_i times the product of the later alphas, mod m_i.
    The running product of alphas is only ever used modulo earlier moduli, so
    it is reduced modulo their product at each step; :func:`chain_weights`
    keeps it exact.
    """
    counter = EgcdCounter()
    moduli = base.moduli
    prefixes = base.prefix_products
    r = len(moduli)
    pairs = []
    for j in range(1, r):
        g, alpha, beta = counter.egcd(moduli[j], prefixes[j])
        if g != 1:
            raise _not_invertible(prefixes[j], moduli[j])
        pairs.append((alpha, beta))
    weights = [0] * r
    suffix = 1
    for i in range(r - 1, 0, -1):
        alpha, beta = pairs[i - 1]
        weights[i] = beta * suffix % moduli[i]
        suffix = suffix * alpha % prefixes[i]
    weights[0] = suffix % moduli[0]
    coefficients = CrtCoefficients(base, tuple(weights), "sequential", counter.calls)
    return coefficients, BezoutChain(tuple(pairs))


def chain_weights(chain: BezoutChain) -> tuple[int, ...]:
    """The chain's unreduced weights: beta_i times every later alpha.

    They satisfy the telescoping identity sum(w_i * product / m_i) == 1
    exactly, and reduce mod m_i to the sequential (and classical) weights.
    """
    weights = []
    suffix = 1
    for alpha, beta in reversed(chain.pairs):
        weights.append(beta * suffix)
        suffix *= alpha
    weights.append(suffix)
    return tuple(reversed(weights))


@dataclass(frozen=True)
class GarnerConverter:
    """Mixed-radix decoder built on every pairwise inverse m_i^-1 mod m_j."""

    base: ModuliBase
    inverses: tuple[tuple[int, ...], ...]
    egcd_calls: int

    def decode(self, vector: CrrVector) -> int:
        _require_same_base(vector.base, self.base)
        moduli = self.base.moduli
        digits = []
        for j, (x, m) in enumerate(zip(vector.residues, moduli)):
            v = x % m
            row = self.inverses[j]
            for i in range(j):
                v = (v - digits[i]) * row[i] % m
            digits.append(v)
        return sum(d * p for d, p in zip(digits, self.base.prefix_products))


def garner_converter(base: ModuliBase) -> GarnerConverter:
    """All pairwise inverses up front: r(r-1)/2 counted calls."""
    counter = EgcdCounter()
    moduli = base.moduli
    # each row from a list: tuple() of a generator resizes as it grows, which
    # raised peak RSS by about 0.7 MiB over 300 converters at r = 192
    inverses = tuple(
        tuple([counter.inverse(a, m) for a in moduli[:j]]) for j, m in enumerate(moduli)
    )
    return GarnerConverter(base, inverses, counter.calls)


def reconstruct(vector: CrrVector, coefficients: CrtCoefficients) -> int:
    """The unique integer in [0, product) with the vector's residues."""
    _require_same_base(vector.base, coefficients.base)
    base = coefficients.base
    total = sum(
        x * w * cofactor
        for x, w, cofactor in zip(
            vector.residues, coefficients.weights, _cofactors(base)
        )
    )
    return total % base.product


@dataclass(frozen=True)
class LinearFormSample:
    """Outcome of one successful random-linear-form draw."""

    cofactors: tuple[int, ...]
    s: tuple[int, ...]
    t: tuple[int, ...]
    form_s: int
    form_t: int
    bezout_u: int
    bezout_v: int
    attempts: int
    n2_bound: int


def default_n2_bound(base: ModuliBase) -> int:
    """Coefficient range keeping the coprime-success rate near its limit."""
    log_product = math.ceil(math.log(base.product))
    return max(1 << 16, 64 * (len(base.moduli) + log_product))


def check_form_bounds(base: ModuliBase, n2_bound: int, max_attempts: int):
    """Reject draw bounds under which no attempt is made or none can succeed.

    With more than one modulus, ``n2_bound`` 1 forces s == t, so the two
    forms are equal and larger than 1, never coprime.
    """
    if n2_bound < 1:
        raise ValueError("n2_bound must be positive")
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    if n2_bound < 2 and len(base.moduli) > 1:
        raise ValueError(
            "n2_bound must be at least 2 for more than one modulus: "
            "with 1 the two forms are always equal and never coprime"
        )


def _first_coprime_draw(base: ModuliBase, rng, n2_bound: int, max_attempts: int):
    """Draw s then t over the cofactors until the form sums are coprime.

    Returns (attempt, s, t, form_s, form_t) for the first coprime draw, or
    None once max_attempts draws have failed.
    """
    check_form_bounds(base, n2_bound, max_attempts)
    cofactors = _cofactors(base)
    for attempt in range(1, max_attempts + 1):
        s = tuple(rng.randint(1, n2_bound) for _ in cofactors)
        t = tuple(rng.randint(1, n2_bound) for _ in cofactors)
        form_s = sum(c * si for c, si in zip(cofactors, s))
        form_t = sum(c * ti for c, ti in zip(cofactors, t))
        if math.gcd(form_s, form_t) == 1:
            return attempt, s, t, form_s, form_t
    return None


def _bezout_pair(a: int, b: int) -> tuple[int, int]:
    """The pair (u, v) that :func:`extended_gcd` returns for coprime a, b >= 1.

    u is the inverse of a mod b taken in (-b/2, b/2], and v follows from
    u*a + v*b == 1.
    """
    u = pow(a, -1, b)
    if 2 * u > b:
        u -= b
    return u, (1 - u * a) // b


def probabilistic_reconstruct(
    vector: CrrVector, rng, n2_bound: int | None = None, max_attempts: int = 64
) -> tuple[int, LinearFormSample]:
    """Reconstruct via random linear forms over the cofactors.

    Both coefficient vectors are drawn fresh on every attempt.  Once the two
    form sums are coprime, a single Bezout pair (u, v) yields the weights
    (u*s_i + v*t_i) mod m_i.
    """
    base = vector.base
    if n2_bound is None:
        n2_bound = default_n2_bound(base)
    found = _first_coprime_draw(base, rng, n2_bound, max_attempts)
    if found is None:
        raise AttemptsExhaustedError(max_attempts, n2_bound)
    attempt, s, t, form_s, form_t = found
    u, v = _bezout_pair(form_s, form_t)
    if u * form_s + v * form_t != 1:
        raise RuntimeError("invalid Bezout pair for the linear forms")
    cofactors = _cofactors(base)
    total = sum(
        x * ((u * si + v * ti) % m) * c
        for x, si, ti, m, c in zip(vector.residues, s, t, base.moduli, cofactors)
    )
    sample = LinearFormSample(
        cofactors=cofactors,
        s=s,
        t=t,
        form_s=form_s,
        form_t=form_t,
        bezout_u=u,
        bezout_v=v,
        attempts=attempt,
        n2_bound=n2_bound,
    )
    return total % base.product, sample


def coprime_form_attempts(
    base: ModuliBase, rng, n2_bound: int | None = None, max_attempts: int = 64
) -> tuple[bool, int, bool]:
    """Draw form pairs until coprime; report (first_draw_hit, attempts, succeeded)."""
    if n2_bound is None:
        n2_bound = default_n2_bound(base)
    found = _first_coprime_draw(base, rng, n2_bound, max_attempts)
    if found is None:
        return False, max_attempts, False
    return found[0] == 1, found[0], True


def _require_same_base(a: ModuliBase, b: ModuliBase):
    if a is not b and a.moduli != b.moduli:
        raise BaseMismatchError("vector and converter use different moduli bases")
