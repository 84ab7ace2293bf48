"""Prime moduli bases: generation, validation, and the base text line.

A base is an ordered tuple of pairwise-coprime moduli.  The canonical
generated base consists of consecutive primes starting at 5, so that every
modulus is odd and coprime to 3.  Each base builds one product tree on first
use; its root is the product, and the coprimality check, encode, the
classical weights and every CRT combine walk it.  A base that nothing asks
for its product never multiplies its moduli.
"""

import itertools
import math
import operator
import re
import threading
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import ParseError, PrimeLimitError

PRIME_INDEX_CEILING = 10_000_000

# 4 bytes per prime: the 10**7-th prime, 179,424,673, and every prime the
# sieve's last segment can reach stay below 2**32.
_primes = array("I", [2, 3, 5, 7, 11, 13])
_primes_lock = threading.Lock()


def _extend_primes():
    # Sieve the next segment, roughly doubling the covered range.  The cache
    # always reaches past sqrt of the new upper bound, so the cached primes
    # are enough to strike every composite in the segment.
    last = _primes[-1]
    lo, hi = last + 1, 2 * last + 1
    flags = bytearray([1]) * (hi - lo)
    for p in _primes:
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = bytes(len(range(start, hi, p)))
    _primes.extend(itertools.compress(range(lo, hi), flags))


def nth_prime(index: int) -> int:
    """The index-th prime, 1-indexed: 1 -> 2, 2 -> 3, 3 -> 5, ..."""
    if index < 1:
        raise ValueError("prime index must be positive")
    if index > PRIME_INDEX_CEILING:
        raise PrimeLimitError(
            f"prime index {index} above ceiling {PRIME_INDEX_CEILING}"
        )
    if index > len(_primes):
        with _primes_lock:
            while index > len(_primes):
                _extend_primes()
    return _primes[index - 1]


def _require_int(value, what: str):
    """TypeError unless value is an int; bool is excluded."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} {value!r} is not an int")


@dataclass(frozen=True, repr=False)
class ModuliBase:
    """Ordered moduli, each an int >= 2; ``product`` is their product tree's root.

    Only :meth:`from_moduli` checks that the moduli are pairwise coprime.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        mods = tuple(self.moduli)
        for m in mods:
            _require_int(m, "modulus")
        if not mods:
            raise ValueError("at least one modulus required")
        if any(m < 2 for m in mods):
            raise ValueError("moduli must be at least 2")
        object.__setattr__(self, "moduli", mods)

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
            return f"ModuliBase({list(self.moduli)})"
        return (
            f"ModuliBase(r={len(self.moduli)}, "
            f"{self.moduli[0]}..{self.moduli[-1]})"
        )


_CHUNK = 8  # consecutive moduli per leaf of the product tree


class _ProductTree:
    """Product tree over a base's moduli (von zur Gathen & Gerhard, 10.1-10.3).

    The moduli are cut into chunks of ``_CHUNK``; each chunk's product is a
    leaf, and ``levels`` pairs them up to the single root, the base product.
    An odd last node is carried up unchanged, so node i of a level has parent
    i >> 1 and sibling i ^ 1 when that exists.  ``chunk_cofactors`` holds each
    chunk's in-chunk cofactors, chunk product / m.  The tree costs
    O(bits * log r) memory, against O(r * bits) for the full cofactors.
    """

    __slots__ = ("chunks", "chunk_cofactors", "levels")

    def __init__(self, moduli: tuple[int, ...]):
        self.chunks = [moduli[i : i + _CHUNK] for i in range(0, len(moduli), _CHUNK)]
        level = [math.prod(chunk) for chunk in self.chunks]
        self.chunk_cofactors = [
            [p // m for m in chunk] for p, chunk in zip(level, self.chunks)
        ]
        self.levels = [level]
        while len(level) > 1:
            level = [math.prod(level[i : i + 2]) for i in range(0, len(level), 2)]
            self.levels.append(level)

    def pairwise_coprime(self) -> bool:
        """True iff the moduli are pairwise coprime (Bernstein, "Factoring into
        coprimes in essentially linear time", 2005).

        Each modulus must be coprime to its in-chunk cofactor, and each node to
        its sibling: two moduli of different chunks lie under the two children
        of their lowest common node.  A carried odd node has no sibling.
        """
        pairs = zip(self.chunks, self.chunk_cofactors)
        # zip stops at the shorter side, so a carried node is skipped
        siblings = ((level[::2], level[1::2]) for level in self.levels[:-1])
        return all(
            max(map(math.gcd, a, b)) == 1
            for a, b in itertools.chain(pairs, siblings)
        )

    def _down(self, root_value, step) -> list:
        """Per-chunk values from the root down: child = step(parent value, i, level)."""
        values = [root_value]
        for level in reversed(self.levels[:-1]):
            values = [step(values[i >> 1], i, level) for i in range(len(level))]
        return values

    def remainders(self, x: int) -> tuple[int, ...]:
        """x mod each modulus, from x mod the root down one remainder tree."""
        values = self._down(x % self.levels[-1][0], lambda v, i, level: v % level[i])
        return tuple([v % m for v, chunk in zip(values, self.chunks) for m in chunk])

    def cofactors_mod(self) -> list[int]:
        """(product / m) mod m for each modulus m.

        A node's value is (product / node) mod node: the root's is 1, and a
        child's is its parent's times its sibling, mod the child.
        """

        def step(v, i, level):
            if i ^ 1 < len(level):
                v *= level[i ^ 1]
            return v % level[i]

        values = self._down(1, step)
        return [
            v * c % m
            for v, chunk, cofs in zip(values, self.chunks, self.chunk_cofactors)
            for m, c in zip(chunk, cofs)
        ]

    def combine(self, values) -> int:
        """sum(v_i * product / m_i), the exact integer, bottom-up.

        A node's sum is left sum * right product + right sum * left product.
        """
        # map stops on the chunk's cofactors before it draws from ``values``,
        # so each chunk takes exactly its own values
        values = iter(values)
        sums = [sum(map(operator.mul, cofs, values)) for cofs in self.chunk_cofactors]
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


@lru_cache(maxsize=64)
def prime_base(count: int) -> ModuliBase:
    """Base of ``count`` consecutive primes starting at 5 (skipping 2 and 3)."""
    if count < 1:
        raise ValueError("count must be positive")
    if count + 2 > PRIME_INDEX_CEILING:
        raise PrimeLimitError(
            f"prime index {count + 2} above ceiling {PRIME_INDEX_CEILING}"
        )
    mods = tuple(nth_prime(i + 2) for i in range(1, count + 1))
    return ModuliBase(mods)


# --- the one-line base text format: "base <r> <m_1> ... <m_r>" ---

_DECIMAL = re.compile(r"0|[1-9][0-9]*")


def _parse_uint(token: str, line_no: int, position: int) -> int:
    if not _DECIMAL.fullmatch(token):
        raise ParseError(f"malformed integer {token!r}", line_no, position)
    return int(token)


def _parse_base_tokens(tokens, line_no: int) -> ModuliBase:
    if not tokens or tokens[0] != "base":
        raise ParseError("expected 'base' keyword", line_no, 1)
    if len(tokens) < 2:
        raise ParseError("missing modulus count", line_no, 2)
    declared = _parse_uint(tokens[1], line_no, 2)
    if declared < 1:
        raise ParseError("modulus count must be positive", line_no, 2)
    if len(tokens) != 2 + declared:
        raise ParseError(
            f"expected {declared} moduli, found {len(tokens) - 2}", line_no, 2
        )
    mods = []
    for position, token in enumerate(tokens[2:], start=3):
        m = _parse_uint(token, line_no, position)
        if m < 2:
            raise ParseError(f"modulus {m} is below 2", line_no, position)
        mods.append(m)
    try:
        return ModuliBase.from_moduli(mods)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, 3) from exc


def format_base_line(base: ModuliBase) -> str:
    mods = " ".join(str(m) for m in base.moduli)
    return f"base {len(base.moduli)} {mods}"


def parse_base_line(text: str) -> ModuliBase:
    body = text[:-1] if text.endswith("\n") else text
    if "\n" in body or "\r" in body:
        raise ParseError("expected a single base line", 1)
    return _parse_base_tokens(body.split(" "), line_no=1)
