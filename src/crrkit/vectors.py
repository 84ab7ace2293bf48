"""Residue vectors over a moduli base, ring operations, and the CRR1 text format.

File format (UTF-8, LF line endings, bit-exact):

    CRR1
    base <r> <m_1> ... <m_r>
    res <x_1> ... <x_r>

Decimal integers, single spaces, no leading zeros, trailing newline required.
"""

import operator
from dataclasses import dataclass
from typing import NoReturn

from .errors import BaseMismatchError, ParseError
from .moduli import (
    ModuliBase,
    _line_uints,
    _parse_base_fields,
    _parse_uint,
    _require_int,
)

MAGIC = "CRR1"


@dataclass(frozen=True, repr=False)
class CrrVector:
    """Residues of one integer, componentwise below the matching modulus."""

    base: ModuliBase
    residues: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "residues", tuple(self.residues))
        if len(self.residues) != len(self.base.moduli):
            raise ValueError("residue count does not match base length")
        for x, m in zip(self.residues, self.base.moduli):
            # every ring op builds a vector, so plain ints skip the call
            if type(x) is not int:
                _require_int(x, "residue")
            if not 0 <= x < m:
                raise ValueError(f"residue {x} out of range for modulus {m}")

    def __add__(self, other):
        return _combine(self, other, operator.add)

    def __sub__(self, other):
        return _combine(self, other, operator.sub)

    def __mul__(self, other):
        return _combine(self, other, operator.mul)

    def __repr__(self):
        if len(self.residues) <= 8:
            return f"CrrVector({list(self.residues)} over {self.base!r})"
        return f"CrrVector(r={len(self.residues)} over {self.base!r})"


def _combine(a: CrrVector, b, op) -> CrrVector:
    if not isinstance(b, CrrVector):
        return NotImplemented
    if a.base is not b.base and a.base.moduli != b.base.moduli:
        raise BaseMismatchError("vectors use different moduli bases")
    residues = tuple(
        op(x, y) % m for x, y, m in zip(a.residues, b.residues, a.base.moduli)
    )
    return CrrVector(a.base, residues)


def encode(value: int, base: ModuliBase) -> CrrVector:
    """Residue vector of ``value`` reduced into [0, product)."""
    _require_int(value, "value")
    return CrrVector(base, base._tree.remainders(value))


def serialize(vector: CrrVector) -> str:
    mods = " ".join(map(str, vector.base.moduli))
    res = " ".join(map(str, vector.residues))
    return f"{MAGIC}\nbase {len(vector.base.moduli)} {mods}\nres {res}\n"


def parse(text: str) -> CrrVector:
    """Inverse of :func:`serialize`; rejects any deviation from the format."""
    if "\r" in text:
        line = text[: text.index("\r")].count("\n") + 1
        raise ParseError("carriage returns are not allowed", line)
    if not text.endswith("\n"):
        raise ParseError("missing trailing newline", text.count("\n") + 1)
    lines = text.split("\n")
    if len(lines) != 4:
        raise ParseError("expected exactly three lines", min(len(lines), 4))
    if lines[0] != MAGIC:
        raise ParseError(f"expected header {MAGIC!r}", 1, 1)
    base = _parse_base_fields(lines[1], line_no=2)
    residues = _parse_res_fields(lines[2], base, line_no=3)
    return CrrVector(base, residues)


def _raise_res_error(tokens, base: ModuliBase, line_no: int) -> NoReturn:
    """Raise the ParseError for the first bad token of a residue line."""
    if tokens[0] != "res":
        raise ParseError("expected 'res' keyword", line_no, 1)
    if len(tokens) != 1 + len(base.moduli):
        raise ParseError(
            f"expected {len(base.moduli)} residues, found {len(tokens) - 1}",
            line_no,
            1,
        )
    for position, (token, m) in enumerate(zip(tokens[1:], base.moduli), start=2):
        x = _parse_uint(token, line_no, position)
        if x >= m:
            raise ParseError(f"residue {x} not below modulus {m}", line_no, position)
    raise RuntimeError(f"line {line_no} failed its one-pass check on no token")


def _parse_res_fields(line: str, base: ModuliBase, line_no: int) -> list[int]:
    values = _line_uints(line, "res")
    if (
        values is None
        or len(values) != len(base.moduli)
        or any(map(operator.ge, values, base.moduli))
    ):
        _raise_res_error(line.split(" "), base, line_no)
    return values
