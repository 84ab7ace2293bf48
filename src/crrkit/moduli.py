"""Prime moduli bases: generation, validation, and the product tree.

A base is an ordered tuple of pairwise-coprime moduli.  The canonical
generated base consists of consecutive primes starting at 5, so that every
modulus is odd and coprime to 3.  Each base builds one product tree on first
use; its root is the product M.  Two walks of it serve every caller: up, to
a CRT combine sum(v_i * M / m_i), and down, to the remainders of encode.  The
cofactor sum sum(M / m_j), congruent to M / m_i modulo m_i, goes up from the
leaves' own cofactor sums and down to the classical cofactors; leaf by leaf,
those sums also give the coprimality check.  A base that nothing asks for
its product never multiplies its moduli.
"""

import itertools
import math
import operator
import threading
from array import array
from functools import cached_property

from .errors import PrimeLimitError, excerpt_int, int_repr, type_error

__all__ = [
    "PRIME_INDEX_CEILING",
    "ModuliBase",
    "nth_prime",
    "pairwise_coprime",
    "prime_base",
]

PRIME_INDEX_CEILING = 10_000_000

# 4 bytes per prime: the 10**7-th prime, 179,424,673, and every prime the
# sieve's last segment can reach stay below 2**32.
_primes = array("I", [2, 3, 5, 7, 11, 13])
_primes_lock = threading.Lock()


def _extend_primes():
    # Sieve the next segment, roughly doubling the covered range.  The cache
    # always reaches past sqrt of the new upper bound, so the cached primes
    # are enough to strike every composite in the segment.  Only its odd
    # numbers are flagged, flag i standing for first + 2i; 2 is cached.
    last = _primes[-1]
    first, hi = last + 2, 2 * last + 1
    flags = bytearray([1]) * len(range(first, hi, 2))
    for p in itertools.islice(_primes, 1, None):
        if p * p >= hi:
            break
        # the first odd multiple of p from max(p * p, first); odd multiples
        # of p lie 2p apart, so p flags apart
        start = max(p * p, (first + p - 1) // p * p)
        if start % 2 == 0:
            start += p
        flags[(start - first) // 2 :: p] = bytes(len(range(start, hi, 2 * p)))
    _primes.extend(itertools.compress(range(first, hi, 2), flags))


def require_prime_index(index: int):
    """Raise PrimeLimitError when the index-th prime is past the ceiling."""
    if index > PRIME_INDEX_CEILING:
        shown = excerpt_int(index)
        raise PrimeLimitError(f"prime index {shown} above ceiling {PRIME_INDEX_CEILING}")


def nth_prime(index: int) -> int:
    """The index-th prime, 1-indexed: 1 -> 2, 2 -> 3, 3 -> 5, ..."""
    # adaptive_group_size calls this once per prime, and the benchmark's
    # CLI base pool once for each of its 48 x 192 primes, so plain ints skip
    # the call
    if type(index) is not int:
        index = _require_int(index, "prime index")
    if index < 1:
        raise ValueError("prime index must be positive")
    require_prime_index(index)
    if index > len(_primes):
        with _primes_lock:
            while index > len(_primes):
                _extend_primes()
    return _primes[index - 1]


def _require_int(value, what: str) -> int:
    """value as a plain int; TypeError naming it unless it is an int (not bool)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise type_error(value, what, "an int")
    return operator.index(value)


def require_base(base) -> "ModuliBase":
    """``base``; TypeError naming it unless it is a :class:`ModuliBase`.

    Not in ``__all__``.
    """
    if not isinstance(base, ModuliBase):
        raise type_error(base, "base", "a ModuliBase")
    return base


def require_positive(value, what: str) -> int:
    """:func:`_require_int`, then ValueError unless it is at least 1; not in __all__."""
    value = _require_int(value, what)
    if value < 1:
        raise ValueError(f"{what} must be positive")
    return value


class ModuliBase:
    """Ordered moduli, each an int >= 2; ``product`` is their product tree's root.

    Only :meth:`from_moduli` checks that the moduli are pairwise coprime.
    Immutable, and equal to another base with the same moduli.  It keeps an
    instance ``__dict__`` for its cached properties and, on a base that
    ``crrkit.vectors`` parsed, the base line it was parsed from.
    """

    __match_args__ = ("moduli",)
    moduli: tuple[int, ...]

    def __init__(self, moduli: tuple[int, ...]):
        mods = tuple(moduli)
        # every parsed or generated base builds one, so one pass tests the
        # types and only a base with another type walks its moduli
        if set(map(type, mods)) != {int}:
            for m in mods:
                if type(m) is not int:
                    _require_int(m, "modulus")
            # an int subclass may override its arithmetic, which the product
            # tree and the unchecked vectors of ``crrkit.vectors`` trust
            mods = tuple(map(operator.index, mods))
        if not mods:
            raise ValueError("at least one modulus required")
        if min(mods) < 2:
            raise ValueError("moduli must be at least 2")
        object.__setattr__(self, "moduli", mods)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    @cached_property
    def _tree(self) -> "_ProductTree":
        return _ProductTree(self.moduli)

    @cached_property
    def product(self) -> int:
        return self._tree.levels[-1][0]

    @classmethod
    def from_moduli(cls, moduli) -> "ModuliBase":
        base = cls(moduli)
        if not pairwise_coprime(base):
            raise ValueError("moduli must be pairwise coprime")
        return base

    def __len__(self) -> int:
        return len(self.moduli)

    def __repr__(self) -> str:
        if len(self.moduli) <= 8:
            return f"ModuliBase([{', '.join(map(int_repr, self.moduli))}])"
        first, last = int_repr(self.moduli[0]), int_repr(self.moduli[-1])
        return f"ModuliBase(r={len(self.moduli)}, {first}..{last})"


# Consecutive moduli per leaf of the product tree.  A sweep of the tree's
# operations over widths 8 to 48 at r = 64 to 4096 moduli picked 32: wider
# leaves leave fewer Python-level node steps and gcds, and from 48 up the
# leaf steps (chunk product // m, value % m) grow with the leaf's size.
_CHUNK = 32


class _ProductTree:
    """Product tree over a base's moduli (von zur Gathen & Gerhard, 10.1-10.3).

    The moduli are cut into chunks of ``_CHUNK``; each chunk's product is a
    leaf, and ``levels`` pairs them up to the single root, the base product.
    An odd last node is carried up unchanged, so node i of a level has parent
    i >> 1 and sibling i ^ 1 when that exists.  ``chunk_cofactors`` holds each
    chunk's in-chunk cofactors, chunk product / m, and ``leaf_sums`` each
    chunk's sum of them, sum(p / m).  The tree costs O(bits * log r) memory,
    against O(r * bits) for the full cofactors.

    It has two walks: up, from one sum per leaf to the root, and
    :meth:`remainders` down.  :meth:`combine` starts the up-walk from each
    chunk's weighted cofactor sum, and :meth:`cofactor_sum` from the leaf
    sums, to S = sum(product / m_j).  S is congruent to product / m_i modulo
    m_i, so ``remainders(cofactor_sum())`` gives every cofactor mod its
    modulus; and :meth:`pairwise_coprime` tests each leaf against its own
    leaf sum.  A parsed base takes both: its coprimality check, then the
    classical weights read the same leaf sums.
    """

    __slots__ = ("chunks", "chunk_cofactors", "leaf_sums", "levels")

    def __init__(self, moduli: tuple[int, ...]):
        self.chunks = [moduli[i : i + _CHUNK] for i in range(0, len(moduli), _CHUNK)]
        level = list(map(math.prod, self.chunks))
        self.chunk_cofactors = [
            [p // m for m in chunk] for p, chunk in zip(level, self.chunks)
        ]
        self.leaf_sums = list(map(sum, self.chunk_cofactors))
        self.levels = [level]
        while len(level) > 1:
            pairs = list(map(operator.mul, level[::2], level[1::2]))
            level = pairs + level[len(pairs) * 2 :]
            self.levels.append(level)

    def pairwise_coprime(self) -> bool:
        """True iff the moduli are pairwise coprime (Bernstein, "Factoring into
        coprimes in essentially linear time", 2005).

        Each chunk product p must be coprime to its leaf sum, sum(p / m), and
        each node to its sibling: two moduli of different chunks lie under
        the two children of their lowest common node.  A carried odd node has
        no sibling.  The chunk test is exact: a prime that divides two moduli
        of the chunk divides every p / m, so the sum; a prime that divides
        only the modulus m and the sum divides every other p / m', so p / m,
        which the other moduli make up.
        """
        leaves = (self.levels[0], self.leaf_sums)
        # map stops at the shorter side, so a carried node is skipped
        siblings = ((level[::2], level[1::2]) for level in self.levels[:-1])
        return all(
            max(map(math.gcd, a, b)) == 1
            for a, b in itertools.chain([leaves], siblings)
        )

    def remainders(self, x: int) -> tuple[int, ...]:
        """x mod each modulus, from x mod the root down one remainder tree."""
        values = [x % self.levels[-1][0]]
        for level in reversed(self.levels[:-1]):
            values = [values[i >> 1] % node for i, node in enumerate(level)]
        return tuple([v % m for v, chunk in zip(values, self.chunks) for m in chunk])

    def combine(self, values) -> int:
        """sum(v_i * product / m_i), the exact integer, bottom-up."""
        # map stops on the chunk's cofactors before it draws from ``values``,
        # so each chunk takes exactly its own values
        values = iter(values)
        sums = [sum(map(operator.mul, cofs, values)) for cofs in self.chunk_cofactors]
        return self._up(sums)

    def cofactor_sum(self) -> int:
        """S = sum(product / m_i), what ``combine`` gives for all ones."""
        return self._up(self.leaf_sums)

    def _up(self, sums: list[int]) -> int:
        """The root's sum from one sum per leaf.

        A node's sum is left sum * right product + right sum * left product.
        """
        for level in self.levels[:-1]:
            sums = [
                sums[i] * level[i + 1] + sums[i + 1] * level[i]
                if i + 1 < len(level)
                else sums[i]
                for i in range(0, len(level), 2)
            ]
        return sums[0]


def pairwise_coprime(moduli) -> bool:
    """True iff every pair of the given moduli has gcd 1.

    Checked on the base's product tree; a plain sequence becomes a transient
    :class:`ModuliBase` first, so each modulus must be an int >= 2.
    """
    if not isinstance(moduli, ModuliBase):
        moduli = ModuliBase(moduli)
    return moduli._tree.pairwise_coprime()


def prime_base(count: int) -> ModuliBase:
    """Base of ``count`` consecutive primes starting at 5 (skipping 2 and 3).

    Each call builds a new base, with a product tree of its own, so a caller
    that decodes many vectors keeps the base it made.
    """
    count = require_positive(count, "count")
    nth_prime(count + 2)  # checks the ceiling and sieves far enough
    return ModuliBase(tuple(_primes[2 : count + 2]))


# Primes per slice of :func:`prime_base_chunks`: 16 KiB of the sieve cache.
_CHUNK_PRIMES = 4096


def prime_base_chunks(count: int):
    """The moduli of ``prime_base(count)`` as arrays of ``_CHUNK_PRIMES``,
    sliced from the sieve cache; the last may be shorter.  Not in ``__all__``.

    The ceiling is checked and the sieve run before this returns, so a
    caller can refuse a count before it writes anything.
    """
    stop = count + 2
    nth_prime(stop)
    return (
        _primes[i : min(i + _CHUNK_PRIMES, stop)]
        for i in range(2, stop, _CHUNK_PRIMES)
    )
