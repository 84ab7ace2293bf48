"""Prime moduli bases: generation, validation, and the base text line.

A base is an ordered tuple of pairwise-coprime moduli together with its
product.  The canonical generated base consists of consecutive primes
starting at 5, so that every modulus is odd and coprime to 3.
"""

import itertools
import math
import re
import threading
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ParseError, PrimeLimitError

PRIME_INDEX_CEILING = 10_000_000

_primes = [2, 3, 5, 7, 11, 13]
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
    """Ordered moduli, each an int >= 2, and their product (derived, not passed).

    Only :meth:`from_moduli` checks that the moduli are pairwise coprime.
    """

    moduli: tuple[int, ...]
    product: int = field(init=False, compare=False)

    def __post_init__(self):
        mods = tuple(self.moduli)
        for m in mods:
            _require_int(m, "modulus")
        if not mods:
            raise ValueError("at least one modulus required")
        if any(m < 2 for m in mods):
            raise ValueError("moduli must be at least 2")
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "product", math.prod(mods))

    @classmethod
    def from_moduli(cls, moduli, check_coprime: bool = True) -> "ModuliBase":
        base = cls(moduli)
        if check_coprime and not pairwise_coprime(base):
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


def pairwise_coprime(moduli) -> bool:
    """True iff every pair of the given moduli has gcd 1.

    Checked against the running product: a shared prime factor between any
    earlier modulus and a later one shows up as a nontrivial gcd.
    """
    if isinstance(moduli, ModuliBase):
        moduli = moduli.moduli
    running = 1
    for m in moduli:
        if math.gcd(m, running) != 1:
            return False
        running *= m
    return True


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
    return ModuliBase.from_moduli(mods, check_coprime=False)


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
