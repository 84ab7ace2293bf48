"""Turning residue vectors back into integers.

Four routes are provided:

* classical inverse coefficients, one modular inverse per modulus;
* a sequential chain of Bezout identities over growing prefix products,
  one Bezout pair per modulus after the first;
* a Garner mixed-radix converter over all pairwise inverses, the
  quadratic-count baseline;
* a randomized route that draws integer linear forms over the cofactors
  until the two sums are coprime, then reads the value off a single Bezout
  pair.

Every inversion is one C ``pow(a, -1, m)``, and one counted call is one
such inversion; a Bezout pair is one inversion (see :func:`_bezout_pair`).
Each deterministic route's ``egcd_calls`` is read off what it built: one
weight, one Bezout pair or one pairwise inverse per inversion.  The random
route's count is its ``attempts``: one ``math.gcd`` screen per attempt, and
only the coprime draw pays for its Bezout pair.  So the four compare
directly: r, r - 1, r(r-1)/2, and one call per random attempt.

The classical weights and each row of Garner's table are one ``pow`` mapped
over the row in C (see :func:`garner_converter`).  At r = 192 the table's
18,336 inverses took about 1.06 times as long as the same bare ``pow`` calls
in a Python loop (about 10 ms), against 1.27 times when each call went
through a Python wrapper; decoding one vector over the table took 2.3 ms more
(medians over 12 processes alternated with the wrapper build, 2-vCPU VM,
Python 3.11.7).

One random attempt draws 2r coefficients with ``rng.getrandbits``, mapped in
C (see :func:`_draw_coefficients`), combines the two forms down the product
tree and takes one ``math.gcd``.  Over 192 primes from the 2500th (forms of
about 2,800 bits) the draw took 0.15 ms, against 0.36 ms for 2r ``randint``
calls, the two combines 0.15 ms and the gcd 0.03 ms.  The one Bezout pair of
the coprime draw, 1.1 ms, is the largest single cost; the value step after it,
two more combines and two form-sized products, took 0.12 ms (2-vCPU VM,
Python 3.11.7).
"""

import math
import operator
from itertools import repeat
from typing import NamedTuple

from .errors import AttemptsExhaustedError, BaseMismatchError
from .moduli import ModuliBase, _require_int
from .vectors import CrrVector


def _not_invertible(a: int, m: int) -> ValueError:
    return ValueError(
        f"{a} has no inverse modulo {m}: both are divisible by {math.gcd(a, m)}"
    )


def _first_shared_factor(values, moduli) -> tuple[int, int]:
    """The first pair (a, m) with gcd(a, m) > 1: which inverse a pow pass lacks.

    Only the error path of a mapped ``pow(a, -1, m)`` pass calls this, after
    the pass raised ValueError, so such a pair exists.
    """
    return next((a, m) for a, m in zip(values, moduli) if math.gcd(a, m) != 1)


class CrtCoefficients(NamedTuple):
    """Reconstruction weights: weights[i] * (product / m_i) == 1 mod m_i."""

    base: ModuliBase
    weights: tuple[int, ...]
    egcd_calls: int


def classical_coefficients(base: ModuliBase) -> CrtCoefficients:
    """One modular inverse per modulus: r counted calls.

    Each cofactor product / m is taken mod m from the base's product tree;
    only a failure computes the full cofactor, to name it in the message.
    """
    cofactors = base._tree.cofactors_mod()
    try:
        weights = tuple(list(map(pow, cofactors, repeat(-1), base.moduli)))
    except ValueError:
        _, m = _first_shared_factor(cofactors, base.moduli)
        raise _not_invertible(base.product // m, m) from None
    return CrtCoefficients(base, weights, len(weights))


def sequential_coefficients(
    base: ModuliBase,
) -> tuple[CrtCoefficients, tuple[tuple[int, int], ...]]:
    """Weights from a chain of Bezout identities: r - 1 counted calls.

    Step j pairs modulus j with prefix_j, the product of the moduli before
    it: the returned pairs satisfy alpha_j*m_j + beta_j*prefix_j == 1, one
    pair per modulus after the first.  The weight for position i is beta_i
    times the product of the later alphas, mod m_i; :func:`chain_weights`
    keeps that product exact.

    The back-walk never multiplies by an alpha.  On entering step i, with
    m = m_i and P = prefix_i, ``suffix`` is congruent to the product of the
    alphas after i modulo P*m.  The step takes w_i = beta_i*(suffix mod m)
    mod m and divides suffix - w_i*P exactly by m: beta_i*P == 1 (mod m), so
    m divides it, and alpha_i*m == 1 (mod P), so the quotient is congruent
    to suffix*alpha_i modulo P, the invariant for step i - 1.  Only that
    class is ever read, each weight modulo a modulus dividing the prefix, so
    suffix may go negative; after step i its size is below r*P.
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
    return CrtCoefficients(base, tuple(weights), len(pairs)), tuple(pairs)


def chain_weights(pairs) -> tuple[int, ...]:
    """The chain's unreduced weights: beta_i times every later alpha.

    They satisfy the telescoping identity sum(w_i * product / m_i) == 1
    exactly, and reduce mod m_i to the sequential (and classical) weights.
    """
    weights = []
    suffix = 1
    for alpha, beta in reversed(pairs):
        weights.append(beta * suffix)
        suffix *= alpha
    weights.append(suffix)
    return tuple(reversed(weights))


class GarnerConverter(NamedTuple):
    """Mixed-radix decoder built on every pairwise inverse m_i^-1 mod m_j."""

    base: ModuliBase
    inverses: tuple[tuple[int, ...], ...]
    egcd_calls: int

    def decode(self, vector: CrrVector) -> int:
        _require_same_base(vector.base, self.base)
        moduli = self.base.moduli
        digits = []
        # every CrrVector holds its residues in [0, m) already
        for x, m, row in zip(vector.residues, moduli, self.inverses):
            for d, inverse in zip(digits, row):
                x = (x - d) * inverse % m
            digits.append(x)
        value = 0
        for d, m in zip(reversed(digits), reversed(moduli)):
            value = value * m + d
        return value


def garner_converter(base: ModuliBase) -> GarnerConverter:
    """All pairwise inverses up front: r(r-1)/2 counted calls."""
    moduli = base.moduli
    rows = []
    # row j is one mapped pow pass over moduli[:j], taken into a list first:
    # tuple() of a lazy iterator resizes as it grows, which raised peak RSS by
    # about 0.7 MiB over 300 converters at r = 192
    for j, m in enumerate(moduli):
        try:
            rows.append(tuple(list(map(pow, moduli[:j], repeat(-1), repeat(m)))))
        except ValueError:
            a, _ = _first_shared_factor(moduli[:j], repeat(m))
            raise _not_invertible(a, m) from None
    inverses = tuple(rows)
    return GarnerConverter(base, inverses, sum(map(len, inverses)))


def reconstruct(vector: CrrVector, coefficients: CrtCoefficients) -> int:
    """The unique integer in [0, product) with the vector's residues."""
    _require_same_base(vector.base, coefficients.base)
    base = coefficients.base
    weighted = map(operator.mul, vector.residues, coefficients.weights)
    return base._tree.combine(weighted) % base.product


class LinearFormSample(NamedTuple):
    """Outcome of one successful random-linear-form draw."""

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


def check_form_bounds(base: ModuliBase, n2_bound: int | None, max_attempts: int) -> int:
    """Reject draw bounds under which no attempt is made or none can succeed.

    Returns ``n2_bound``, or ``default_n2_bound(base)`` when it is None.  With
    more than one modulus, ``n2_bound`` 1 forces s == t, so the two forms are
    equal and larger than 1, never coprime.  The draw takes the bit length of
    ``n2_bound`` and counts attempts up to ``max_attempts``, so both must be
    ints.
    """
    if n2_bound is None:
        n2_bound = default_n2_bound(base)
    _require_int(n2_bound, "n2_bound")
    if n2_bound < 1:
        raise ValueError("n2_bound must be positive")
    _require_int(max_attempts, "max_attempts")
    if max_attempts < 1:
        raise ValueError("max_attempts must be positive")
    if n2_bound < 2 and len(base.moduli) > 1:
        raise ValueError(
            "n2_bound must be at least 2 for more than one modulus: "
            "with 1 the two forms are always equal and never coprime"
        )
    return n2_bound


def _draw_coefficients(rng, n2_bound: int, r: int) -> tuple[int, ...]:
    """r values in [1, n2_bound]: what r calls of ``rng.randint(1, n2_bound)`` give.

    CPython's ``randint`` calls ``getrandbits(k)``, k = n2_bound.bit_length(),
    until a value falls below n2_bound, and adds 1.  Each round here makes one
    such call per value still missing, mapped in C, and keeps those below
    n2_bound.  A round never calls more often than values are missing, so the
    calls, their order and the generator's final state are ``randint``'s.
    """
    k = n2_bound.bit_length()
    kept = []
    while len(kept) < r:
        kept += filter(n2_bound.__gt__, map(rng.getrandbits, repeat(k, r - len(kept))))
    return tuple([v + 1 for v in kept])


def _first_coprime_draw(base: ModuliBase, rng, n2_bound: int, max_attempts: int):
    """Draw s then t over the cofactors until the form sums are coprime.

    Returns (attempt, s, t, form_s, form_t) for the first coprime draw, or
    None once max_attempts draws have failed.  The caller resolves and checks
    the bounds with :func:`check_form_bounds` first.
    """
    r = len(base.moduli)
    tree = base._tree
    for attempt in range(1, max_attempts + 1):
        s = _draw_coefficients(rng, n2_bound, r)
        t = _draw_coefficients(rng, n2_bound, r)
        form_s = tree.combine(s)
        form_t = tree.combine(t)
        if math.gcd(form_s, form_t) == 1:
            return attempt, s, t, form_s, form_t
    return None


def _bezout_pair(a: int, b: int) -> tuple[int, int]:
    """The pair (u, v) that extended Euclid returns for coprime a, b >= 1.

    u is the inverse of a mod b taken in (-b/2, b/2], and v follows from
    u*a + v*b == 1.  Euclid's own coefficients satisfy |u| <= b/2 (Knuth,
    TAOCP vol. 2, 4.5.2), so this is the same pair, from one ``pow``.  The
    inverse is taken modulo the smaller argument: for a < b, v is b^-1 mod a
    in (-a/2, a/2], which holds exactly when u lies in (-b/2, b/2], and u
    follows.  ValueError when a and b share a factor.
    """
    try:
        if a < b:
            v = pow(b, -1, a)
            if 2 * v > a:
                v -= a
            return (1 - v * b) // a, v
        u = pow(a, -1, b)
    except ValueError:
        raise _not_invertible(b, a) from None
    if 2 * u > b:
        u -= b
    return u, (1 - u * a) // b


def probabilistic_reconstruct(
    vector: CrrVector, rng, n2_bound: int | None = None, max_attempts: int = 64
) -> tuple[int, LinearFormSample]:
    """Reconstruct via random linear forms over the cofactors.

    Both coefficient vectors are drawn fresh on every attempt.  Once the form
    sums S and T are coprime, one Bezout pair u*S + v*T == 1 gives the value:
    (u*s_i + v*t_i) * product / m_i is 1 mod m_i, so x is u * sum(x_i * s_i *
    product / m_i) + v * sum(x_i * t_i * product / m_i), mod the product.
    """
    base = vector.base
    n2_bound = check_form_bounds(base, n2_bound, max_attempts)
    found = _first_coprime_draw(base, rng, n2_bound, max_attempts)
    if found is None:
        raise AttemptsExhaustedError(max_attempts, n2_bound)
    attempt, s, t, form_s, form_t = found
    u, v = _bezout_pair(form_s, form_t)
    if u * form_s + v * form_t != 1:
        raise RuntimeError("invalid Bezout pair for the linear forms")
    tree, residues = base._tree, vector.residues
    value = (
        u * tree.combine(map(operator.mul, residues, s))
        + v * tree.combine(map(operator.mul, residues, t))
    ) % base.product
    sample = LinearFormSample(
        s=s,
        t=t,
        form_s=form_s,
        form_t=form_t,
        bezout_u=u,
        bezout_v=v,
        attempts=attempt,
        n2_bound=n2_bound,
    )
    return value, sample


def coprime_form_stats(
    base: ModuliBase, rngs, n2_bound: int | None = None, max_attempts: int = 64
) -> tuple[int, int, int]:
    """One coprime-form trial per generator in ``rngs``.

    Each trial draws form pairs as :func:`probabilistic_reconstruct` does,
    until their sums are coprime.  The bounds are checked once, before the
    first draw.  Returns (first-draw hits, total attempts, exhausted trials);
    an exhausted trial counts ``max_attempts`` attempts.
    """
    n2_bound = check_form_bounds(base, n2_bound, max_attempts)
    hits = attempts_total = exhausted = 0
    for rng in rngs:
        found = _first_coprime_draw(base, rng, n2_bound, max_attempts)
        if found is None:
            exhausted += 1
            attempts_total += max_attempts
        else:
            hits += found[0] == 1
            attempts_total += found[0]
    return hits, attempts_total, exhausted


def _require_same_base(a: ModuliBase, b: ModuliBase):
    if a is not b and a.moduli != b.moduli:
        raise BaseMismatchError("vector and converter use different moduli bases")
