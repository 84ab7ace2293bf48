"""Turning residue vectors back into integers.

Four routes are provided:

* classical inverse coefficients, one modular inverse per modulus;
* a sequential chain of Bezout identities over growing prefix products,
  one inversion per modulus after the first, walked one leaf of the
  product tree at a time;
* a Garner mixed-radix converter that makes every pairwise inverse, the
  quadratic-count baseline, and keeps one radix inverse per modulus;
* a randomized route that draws integer linear forms over the cofactors
  until the two sums are coprime, then reads the value off a single Bezout
  pair.

Every inversion is one C ``pow(a, -1, m)``, and one counted call is one
such inversion; a Bezout pair is one inversion (see :func:`_bezout_pair`).
The classical and sequential counts are read off the weights they built:
one inversion per weight, less the chain's first, whose prefix is 1.
Garner's row j is one mapped ``pow`` pass over the j moduli before m_j,
which completes or raises, so its r rows make r(r-1)/2 inversions.  The
random route's count is its ``attempts``: one ``math.gcd`` screen per
attempt, and only the coprime draw pays for its Bezout pair.  So the four
compare directly: r, r - 1, r(r-1)/2, and one call per random attempt.

The classical weights and each row of Garner's inverses are one ``pow``
mapped over the row in C.  Garner's converter costs r(r-1)/2 inversions,
keeps r ints, one radix inverse per modulus, and decodes in O(r) big-int
steps (see :class:`GarnerConverter`).

One random attempt draws 2r coefficients with ``rng.getrandbits``, mapped in
C (see :func:`_draw_coefficients`), which is faster than 2r ``randint``
calls, combines the two forms down the product tree and takes one
``math.gcd``.  The one Bezout pair of the coprime draw costs more than any
other step: the draw, a combine, the gcd, or the value step after it (two
more combines and two form-sized products).

Every route but the classical one refuses a base whose cost, read from r,
its total bits and its widest modulus (for the random route, its total and
an explicit coefficient bound's whole words), is past ``COST_BUDGET``, with
a ValueError before any other work; the command line prints that message as
it is.
"""

import math
import operator
from itertools import accumulate, islice, repeat, zip_longest
from typing import NamedTuple

from .errors import AttemptsExhaustedError, BaseMismatchError, excerpt_int, type_error
from .moduli import ModuliBase, pairwise_coprime, require_base, require_positive
from .vectors import CrrVector, require_vector

__all__ = [
    "CrtCoefficients",
    "GarnerConverter",
    "LinearFormSample",
    "classical_coefficients",
    "coprime_form_stats",
    "default_n2_bound",
    "garner_converter",
    "probabilistic_reconstruct",
    "reconstruct",
    "sequential_coefficients",
]


def _not_invertible(a: int, m: int) -> ValueError:
    a, m, shared = map(excerpt_int, (a, m, math.gcd(a, m)))
    return ValueError(f"{a} has no inverse modulo {m}: both are divisible by {shared}")


def _first_shared_factor(values, moduli) -> int:
    """The index of the first pair (a, m) with gcd(a, m) > 1: which inverse a
    pow pass lacks.

    Only the error path of a mapped ``pow(a, -1, m)`` pass calls this, after
    the pass raised ValueError, so such a pair exists.
    """
    pairs = enumerate(zip(values, moduli))
    return next(i for i, (a, m) in pairs if math.gcd(a, m) != 1)


# The one budget, in units of about 0.6 us: one inversion modulo a one-word
# modulus (2-vCPU VM, Python 3.11.7), so about 1.3 s.  Each route whose cost
# grows faster than its input checks it as its first step, before its product
# tree, any inversion, Bezout pair or draw; so does prob-stats, before it
# sieves a prime.
COST_BUDGET = 2**21


def _cost(command: str, r: int, t: int, w: int) -> int:
    """Units for ``command`` on r moduli of t whole 64-bit words in all, the
    widest of w words; for prob, t is the forms' words, the base's plus the
    coefficient bound's; for prob-stats, one trial at a bound of t words."""
    inversion = 1 + 10 * w + w * w  # one pow modulo a w-word modulus
    if command == "garner":
        return r * (r - 1) // 2 * inversion
    if command == "sequential":  # the inversions, then the prefix products
        return (r - 1) * inversion + t * t // 16
    if command == "prob":  # the gcd and Bezout pair of two t-word forms
        return (t * t + 32 * r) // 2
    # prob-stats: draws, combines and a gcd of two forms of 16r + 64t bits
    return 4 * (16 + r + r * t // 8 + (r + 4 * t) ** 2 // 2048)


def require_affordable(command: str, r: int, bits: int, widest=0, runs=1):
    """ValueError when ``runs`` runs of ``command`` cost more than ``COST_BUDGET``;
    sizes in bits, a prob-stats trial's those of its bound.  Not in ``__all__``."""
    cost = runs * _cost(command, r, bits >> 6, widest >> 6)
    if cost > COST_BUDGET:
        raise ValueError(
            f"{command} on {r} moduli costs {cost} units, "
            f"above the budget of {COST_BUDGET}"
        )


def _require_base_affordable(command: str, base: ModuliBase, extra_words=0):
    """The type of ``base``, then ``command``'s cost on its r, total and widest
    bits, the total grown by ``extra_words`` whole words."""
    bits = list(map(int.bit_length, require_base(base).moduli))
    require_affordable(command, len(bits), sum(bits) + (extra_words << 6), max(bits))


class CrtCoefficients(NamedTuple):
    """Reconstruction weights: weights[i] * (product / m_i) == 1 mod m_i.

    A caller may build one; :func:`reconstruct` checks only the length of its
    ``weights``.
    """

    base: ModuliBase
    weights: tuple[int, ...]
    egcd_calls: int


def classical_coefficients(base: ModuliBase) -> CrtCoefficients:
    """One modular inverse per modulus: r counted calls.

    Each cofactor product / m is taken mod m as S mod m, for S the sum of all
    the cofactors, summed up the base's product tree from its leaves' own
    cofactor sums and reduced down it: every other cofactor has m as a
    factor.  That holds whether or not the moduli are coprime, so an
    unchecked base fails only at its inversion.
    Only a failure computes the full cofactor, to name it in the message.
    """
    tree = require_base(base)._tree
    cofactors = tree.remainders(tree.cofactor_sum())
    try:
        weights = tuple(list(map(pow, cofactors, repeat(-1), base.moduli)))
    except ValueError:
        m = base.moduli[_first_shared_factor(cofactors, base.moduli)]
        raise _not_invertible(base.product // m, m) from None
    return CrtCoefficients(base, weights, len(weights))


def sequential_coefficients(base: ModuliBase) -> CrtCoefficients:
    """Weights from the chain of Bezout identities: r - 1 counted calls.

    Step j of the chain pairs m_j with P_j, the product of the moduli before
    it, through alpha_j*m_j + beta_j*P_j == 1.  The weight for position i is
    beta_i times the product of the later alphas, mod m_i.  Only beta_j mod
    m_j, the inverse of P_j mod m_j, is ever read, and the alphas only
    through the invariant below, so neither the pairs nor any product of
    them, O(r^3) bits for all r weights, is kept.

    The chain is walked one leaf of the base's product tree at a time.  For
    the leaf over the moduli at indices s to e - 1, let p be its product, P_s
    the product of the moduli before it, and R_i = m_s * ... * m_i, with
    R_{s-1} = 1.

    Forward, per leaf: one remainder q = P_s mod p and one product P_s * p.
    Then c_j = R_{j-1} * (q mod m_j) for each of the leaf's moduli, and
    beta_j = c_j^-1 mod m_j, one mapped ``pow``; index 0 has P_0 = 1, so
    beta_0 = 1 and makes no call.  The c_j, each below R_j, are kept for the
    back walk.

    Back, from the last leaf, A (``suffix``) is congruent to the product of
    the alphas from index e on, modulo P_e.  A walk of one step per modulus
    would go on from A_{e-1} = A by A_{i-1} = (A_i - w_i*P_i) / m_i, with
    w_i = beta_i*(A_i mod m_i) mod m_i: beta_i*P_i == 1 (mod m_i) makes the
    division exact, and alpha_i*m_i == 1 (mod P_i) keeps A_{i-1} congruent
    to the product of the alphas after i - 1, modulo P_i.  Here the leaf
    starts from x = A mod p, and for i from e - 1 down to s takes
    w_i = beta_i*(x mod m_i) mod m_i and
    x <- (x - w_i * R_{i-1} * (P_s mod m_i)) / m_i, also exact.  On entering
    step i, x is congruent to A_i modulo R_i, so w_i is the same, and m_i
    is prime to R_{i-1}, so the step keeps x congruent to A_{i-1} modulo
    R_{i-1}.  The step's R_{i-1} * (P_s mod m_i) is the forward pass's c_i.
    Every number in these steps is leaf-sized.  Then
    A <- (A - P_s * sum(w_i * p / m_i)) / p is A_{s-1}, the leaf's steps
    taken at once, and exact; A may go negative and stays below r * P_s in
    absolute value.

    Cost: per leaf, the prefix-sized P_s meets the leaf-sized p in two
    products and four divisions, where a walk per modulus made four or five
    one-digit passes over the prefix for each of the leaf's 32 moduli.  So
    the time still grows as the square of the product's bits, at a smaller
    constant, plus leaf-sized work per modulus.  Memory is linear: r weights,
    the prefix and the r leaf-sized c_j.  On ``prime_base(2048)``, on top of
    its product tree, the call peaked at 0.22 MiB traced by ``tracemalloc``,
    0.10 MiB of it without the c_j.
    """
    _require_base_affordable("sequential", base)
    tree = base._tree
    # weights[j] holds beta_j until the back walk replaces it with w_j;
    # beta_0 = 1 is the inverse of P_0 = 1, so the first leaf skips m_0
    weights = [1]
    leaf_terms = []  # the c_j of each leaf
    prefix = 1
    for chunk, p in zip(tree.chunks, tree.levels[0]):
        q = prefix % p
        runs = accumulate(chunk, operator.mul, initial=1)
        terms = [run * (q % m) for m, run in zip(chunk, runs)]
        values = list(map(operator.mod, terms, chunk))
        skip = 0 if leaf_terms else 1
        try:
            weights += map(pow, values[skip:], repeat(-1), chunk[skip:])
        except ValueError:
            # the first P_j sharing a factor with m_j, as the chain would name;
            # values[0] is 1 in the first leaf, so skipped or not it is no match
            j = _first_shared_factor(values, chunk)
            raise _not_invertible(prefix * math.prod(chunk[:j]), chunk[j]) from None
        leaf_terms.append(terms)
        prefix *= p
    suffix = 1
    e = len(weights)
    for chunk, p, terms, cofactors in zip(
        reversed(tree.chunks),
        reversed(tree.levels[0]),
        reversed(leaf_terms),
        reversed(tree.chunk_cofactors),
    ):
        s = e - len(chunk)
        prefix //= p
        x = suffix % p
        for i in range(len(chunk) - 1, -1, -1):
            m = chunk[i]
            w = weights[s + i] = weights[s + i] * (x % m) % m
            x = (x - w * terms[i]) // m
        if s:
            total = sum(map(operator.mul, weights[s:e], cofactors))
            suffix, rest = divmod(suffix - prefix * total, p)
            if rest:
                raise RuntimeError("inexact division in the sequential back walk")
        e = s
    return CrtCoefficients(base, tuple(weights), len(weights) - 1)


class GarnerConverter(NamedTuple):
    """Mixed-radix decoder over one radix inverse per modulus.

    ``radix_inverses[j]`` is C_j = (m_0 * ... * m_{j-1})^-1 mod m_j, the
    product of the pairwise inverses m_i^-1 mod m_j for i < j; C_0 = 1.
    Building it costs r(r-1)/2 inversions, the converter keeps these r ints,
    and a decode takes O(r) big-int steps.  A caller may build one;
    :meth:`decode` checks only the length of its ``radix_inverses``.
    """

    base: ModuliBase
    radix_inverses: tuple[int, ...]
    egcd_calls: int

    def decode(self, vector: CrrVector) -> int:
        """The integer in [0, product) with the vector's residues.

        With V the value of the digits so far and P_j = m_0 * ... * m_{j-1},
        digit j is d_j = (x_j - V mod m_j) * C_j mod m_j, and V grows by
        d_j * P_j.
        """
        _require_same_base(require_vector(vector).base, self.base)
        _require_one_per_modulus(self.radix_inverses, "radix inverses", self.base)
        value, radix = 0, 1
        for x, m, c in zip(vector.residues, self.base.moduli, self.radix_inverses):
            value += (x - value % m) * c % m * radix
            radix *= m
        return value


def _radix_inverses(moduli):
    """Yield C_j for each m_j, from one mapped pow pass over the moduli before it.

    The pass's inverses stream into C_j, reduced mod m_j after every 8 of
    them so that the running product stays a few words; no row is kept.
    """
    for j, m in enumerate(moduli):
        row = map(pow, islice(moduli, j), repeat(-1), repeat(m))
        c = 1
        try:
            for product in map(math.prod, zip_longest(*[row] * 8, fillvalue=1)):
                c = c * product % m
        except ValueError:
            i = _first_shared_factor(islice(moduli, j), repeat(m))
            raise _not_invertible(moduli[i], m) from None
        yield c


def garner_converter(base: ModuliBase) -> GarnerConverter:
    """Every pairwise inverse m_i^-1 mod m_j, i < j: r(r-1)/2 counted calls."""
    _require_base_affordable("garner", base)
    # a tuple grown from the generator, not a list copied into one: the copy
    # would be a second array of r pointers at the peak
    radix_inverses = tuple(_radix_inverses(base.moduli))
    r = len(radix_inverses)
    return GarnerConverter(base, radix_inverses, r * (r - 1) // 2)


def reconstruct(vector: CrrVector, coefficients: CrtCoefficients) -> int:
    """The unique integer in [0, product) with the vector's residues."""
    if not isinstance(coefficients, CrtCoefficients):
        raise type_error(coefficients, "coefficients", "a CrtCoefficients")
    _require_same_base(require_vector(vector).base, coefficients.base)
    base = coefficients.base
    _require_one_per_modulus(coefficients.weights, "weights", base)
    weighted = map(operator.mul, vector.residues, coefficients.weights)
    return base._tree.combine(weighted) % base.product


class LinearFormSample(NamedTuple):
    """Outcome of one successful random-linear-form draw.

    :func:`probabilistic_reconstruct` returns one with its value.  A caller
    may build one, but no function takes one back.
    """

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
    log_product = math.ceil(math.log(require_base(base).product))
    return max(1 << 16, 64 * (len(base.moduli) + log_product))


def _form_bounds(base: ModuliBase, rng, n2_bound: int | None, max_attempts: int):
    """``n2_bound``, or ``default_n2_bound(base)`` for None, checked with the rest.

    Refuses what rules out a draw or a success: with r > 1, n2_bound 1 makes
    s == t, and a prime shared by two moduli divides every form.  A base that
    nothing has checked is walked for coprimality here, once.
    """
    if n2_bound is None:
        n2_bound = default_n2_bound(base)
    require_positive(n2_bound, "n2_bound")
    require_positive(max_attempts, "max_attempts")
    if n2_bound < 2 and len(base.moduli) > 1:
        raise ValueError(
            "n2_bound must be at least 2 for more than one modulus: "
            "with 1 the two forms are always equal and never coprime"
        )
    if not callable(getattr(rng, "getrandbits", None)):
        raise type_error(rng, "rng", "a generator with a getrandbits method")
    if not pairwise_coprime(base):
        raise ValueError("moduli share a factor, which divides every linear form")
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
    the bounds and the base with :func:`_form_bounds` first.
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

    The random route takes one for its two forms, its one caller here;
    :func:`sequential_coefficients` needs only v mod a of each step of its
    chain, so it inverts without building the pairs.

    u is the inverse of a mod b taken in (-b/2, b/2], and v follows from
    u*a + v*b == 1.  Euclid's own coefficients satisfy |u| <= b/2 (Knuth,
    TAOCP vol. 2, 4.5.2), so this is the same pair, from one ``pow``.
    ValueError when a and b share a factor.
    """
    try:
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

    ValueError before any draw if the moduli share a factor, which divides
    every form; a base that nothing has checked is walked once for that.
    AttemptsExhaustedError once every attempt fails.
    """
    base = require_vector(vector).base
    # the forms' words: the base's and the coefficient bound's; the default
    # bound, at most max(2**16, 64 * (r + total bits)), stays under one word
    bound_bits = 0
    if n2_bound is not None:
        bound_bits = require_positive(n2_bound, "n2_bound").bit_length()
    _require_base_affordable("prob", base, bound_bits >> 6)
    n2_bound = _form_bounds(base, rng, n2_bound, max_attempts)
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
    return value, LinearFormSample(s, t, form_s, form_t, u, v, attempt, n2_bound)


def coprime_form_stats(
    base: ModuliBase,
    rng,
    trials: int,
    n2_bound: int | None = None,
    max_attempts: int = 64,
) -> tuple[int, int, int]:
    """``trials`` coprime-form trials in turn, all drawn from ``rng``.

    Each trial draws form pairs as :func:`probabilistic_reconstruct` does,
    until their sums are coprime.  The same checks, with ``trials`` an int of
    at least 1, come before the first draw: a base that nothing has checked
    is walked once.  Returns (first-draw hits, total attempts, exhausted
    trials); an exhausted trial counts ``max_attempts`` attempts.
    """
    require_positive(trials, "trials")
    n2_bound = _form_bounds(require_base(base), rng, n2_bound, max_attempts)
    hits = attempts_total = exhausted = 0
    for _ in range(trials):
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


def _require_one_per_modulus(values: tuple, what: str, base: ModuliBase):
    """ValueError unless a tuple zipped with the residues has one value per modulus."""
    r, n = len(base), len(values)
    if n != r:
        raise ValueError(f"expected {r} {what}, one per modulus, not {n}")
