"""Residue vectors over a moduli base, ring operations, and the text formats.

Both formats are UTF-8 and bit-exact.  A base line stands alone:

    base <r> <m_1> ... <m_r>

and a CRR1 file is three LF-terminated lines, its second a base line:

    CRR1
    base <r> <m_1> ... <m_r>
    res <x_1> ... <x_r>

Decimal integers, single spaces, no leading zeros, trailing newline required.

The public ``CrrVector`` constructor checks every residue; the vectors that
``encode``, the ring operations and ``parse`` build are valid by construction
and skip that check.
"""

import operator
import re
import sys
from typing import Iterator, NoReturn

from .errors import BaseMismatchError, ParseError, excerpt, excerpt_int, int_repr, type_error
from .moduli import ModuliBase, _require_int, require_base

__all__ = [
    "CrrVector",
    "encode",
    "format_base_line",
    "parse",
    "parse_base_line",
    "serialize",
]

MAGIC = "CRR1"


class CrrVector:
    """Residues of one integer, componentwise below the matching modulus.

    An int subclass is stored as its plain int: the ring operations trust
    every vector's residues to be exact ints and do not check their results.
    Immutable, and equal to another vector with an equal base and residues.
    """

    __slots__ = ("base", "residues")
    __match_args__ = __slots__
    base: ModuliBase
    residues: tuple[int, ...]

    def __init__(self, base: ModuliBase, residues: tuple[int, ...]):
        residues = tuple(residues)
        if len(residues) != len(require_base(base).moduli):
            raise ValueError("residue count does not match base length")
        plain = True
        for x, m in zip(residues, base.moduli):
            if type(x) is not int:
                x, plain = _require_int(x, "residue"), False
            if not 0 <= x < m:
                raise ValueError(
                    f"residue {excerpt_int(x)} out of range for modulus {excerpt_int(m)}"
                )
        if not plain:
            residues = tuple(map(operator.index, residues))
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "residues", residues)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base, self.residues) == (other.base, other.residues)

    def __hash__(self):
        return hash((self.base, self.residues))

    def __reduce__(self):
        # the default reduce of a slotted class restores through __setattr__
        return CrrVector, (self.base, self.residues)

    def __add__(self, other):
        return _combine(self, other, operator.add)

    def __sub__(self, other):
        return _combine(self, other, operator.sub)

    def __mul__(self, other):
        return _combine(self, other, operator.mul)

    def __repr__(self):
        if len(self.residues) <= 8:
            shown = ", ".join(map(int_repr, self.residues))
            return f"CrrVector([{shown}] over {self.base!r})"
        return f"CrrVector(r={len(self.residues)} over {self.base!r})"


def require_vector(vector) -> CrrVector:
    """``vector``; TypeError naming it unless it is a :class:`CrrVector`.

    Not in ``__all__``.
    """
    if not isinstance(vector, CrrVector):
        raise type_error(vector, "vector", "a CrrVector")
    return vector


def _require_text(text) -> str:
    """``text``; TypeError unless it is a str, the one type the parsers read."""
    if not isinstance(text, str):
        raise type_error(text, "text", "a str")
    return text


def _combine(a: CrrVector, b, op) -> CrrVector:
    if not isinstance(b, CrrVector):
        return NotImplemented
    if a.base is not b.base and a.base.moduli != b.base.moduli:
        raise BaseMismatchError("vectors use different moduli bases")
    combined = map(op, a.residues, b.residues)
    return _built(a.base, tuple(map(operator.mod, combined, a.base.moduli)))


def _built(base: ModuliBase, residues: tuple[int, ...]) -> CrrVector:
    """A vector from a tuple of exact ints, each below its modulus; unchecked.

    Its callers here pass residues that are bounded by how they were made: a
    plain int mod its modulus, or a parsed token checked below its modulus.
    """
    vector = object.__new__(CrrVector)
    object.__setattr__(vector, "base", base)
    object.__setattr__(vector, "residues", residues)
    return vector


def encode(value: int, base: ModuliBase) -> CrrVector:
    """Residue vector of ``value`` reduced into [0, product)."""
    # an int subclass may override %, so the tree reduces its plain int
    value = _require_int(value, "value")
    return _built(base, require_base(base)._tree.remainders(value))


def serialize(vector: CrrVector) -> str:
    """The CRR1 text of ``vector``; its base line is :func:`format_base_line`'s.

    A residue past ``sys.get_int_max_str_digits()`` digits raises the
    interpreter's ``ValueError``, as ``str()`` does, and so does a modulus
    past it unless the base was parsed, whose line is reused as it is.
    """
    res = " ".join(map(str, require_vector(vector).residues))
    return f"{MAGIC}\n{format_base_line(vector.base)}\nres {res}\n"


def parse(text: str) -> CrrVector:
    """Inverse of :func:`serialize`; rejects any deviation from the format."""
    if "\r" in _require_text(text):
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
    return _built(base, _parse_res_fields(lines[2], base, line_no=3))


def format_base_line(base: ModuliBase) -> str:
    """The base line of ``base``, without its newline.

    A base that :func:`parse_base_line` or :func:`parse` built keeps the line
    it was parsed from, already canonical, and this returns it unconverted.
    Any other base formats its moduli, and there a modulus past
    ``sys.get_int_max_str_digits()`` digits raises the interpreter's
    ``ValueError``, as ``str()`` does.
    """
    line = vars(require_base(base)).get("_line")
    if line is None:
        line = "".join(base_line_pieces(len(base.moduli), [base.moduli]))
    return line


def base_line_pieces(count: int, chunks) -> Iterator[str]:
    """The base line of ``count`` moduli, without its newline, one piece per
    non-empty chunk of moduli after the head; not in ``__all__``.

    A writer takes the pieces in turn, so it never holds the decimals of more
    than one chunk.
    """
    yield f"base {count}"
    for chunk in chunks:
        yield " " + " ".join(map(str, chunk))


def parse_base_line(text: str) -> ModuliBase:
    body = text[:-1] if _require_text(text).endswith("\n") else text
    if "\n" in body or "\r" in body:
        raise ParseError("expected a single base line", 1)
    return _parse_base_fields(body, line_no=1)


# --- token checks: a line passes one regex and its bounds as text before its
# tokens are converted, once; a line that fails is walked token by token to
# name the first bad one.  The walks convert nothing, so an over-long token
# costs no quadratic int() or str(): its canonical text is its value. ---

_DECIMAL = re.compile(r"0|[1-9][0-9]*")
# the tokens after a line's keyword: single-space separated ASCII decimals
_DECIMALS = re.compile(r"(?:0|[1-9][0-9]*)(?: (?:0|[1-9][0-9]*))*")
# a base line's: a positive count, then one or more moduli of at least 2
_BASE_DECIMALS = re.compile(r"[1-9][0-9]*(?: (?:[1-9][0-9]+|[2-9]))+")


def _below(a: str, b: str) -> bool:
    """a < b for two canonical decimals, compared as text."""
    return (len(a), a) < (len(b), b)


def _check_decimal(token: str, line_no: int, position: int):
    if not _DECIMAL.fullmatch(token):
        raise ParseError(f"malformed integer {excerpt(token)}", line_no, position)


def _raise_base_error(tokens, line_no: int) -> NoReturn:
    """Raise the ParseError for the first bad token of a base line."""
    if tokens[0] != "base":
        raise ParseError("expected 'base' keyword", line_no, 1)
    if len(tokens) < 2:
        raise ParseError("missing modulus count", line_no, 2)
    declared, found = tokens[1], len(tokens) - 2
    _check_decimal(declared, line_no, 2)
    if declared == "0":
        raise ParseError("modulus count must be positive", line_no, 2)
    if declared != str(found):
        shown = excerpt(declared, str)
        raise ParseError(f"expected {shown} moduli, found {found}", line_no, 2)
    for position, token in enumerate(tokens[2:], start=3):
        _check_decimal(token, line_no, position)
        if _below(token, "2"):
            raise ParseError(f"modulus {token} is below 2", line_no, position)
    raise RuntimeError(f"line {line_no} failed its one-pass check on no token")


def _parse_base_fields(line: str, line_no: int) -> ModuliBase:
    head, _, rest = line.partition(" ")
    count, *fields = rest.split(" ")
    if (
        head != "base"
        or not _BASE_DECIMALS.fullmatch(rest)
        or count != str(len(fields))
    ):
        _raise_base_error(line.split(" "), line_no)
    try:
        moduli = list(map(int, fields))
    except ValueError:
        # every token is a canonical decimal, so int() refuses exactly those
        # longer than the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        position, token = next(
            (i, token) for i, token in enumerate(fields, start=3) if len(token) > limit
        )
        raise ParseError(
            f"modulus {excerpt(token)} exceeds the limit ({limit} digits) "
            "for integer string conversion",
            line_no,
            position,
        ) from None
    try:
        base = ModuliBase.from_moduli(moduli)
    except ValueError as exc:
        raise ParseError(str(exc), line_no, 3) from exc
    # the line passed as canonical, so it is what format_base_line would write
    vars(base)["_line"] = line
    return base


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
        _check_decimal(token, line_no, position)
        if not _below(token, str(m)):
            shown, modulus = excerpt(token, str), excerpt(str(m), str)
            raise ParseError(
                f"residue {shown} not below modulus {modulus}", line_no, position
            )
    raise RuntimeError(f"line {line_no} failed its one-pass check on no token")


def _parse_res_fields(line: str, base: ModuliBase, line_no: int) -> tuple[int, ...]:
    head, _, rest = line.partition(" ")
    fields = rest.split(" ")
    # a residue below its modulus is no longer than the longest modulus
    if (
        head != "res"
        or not _DECIMALS.fullmatch(rest)
        or len(fields) != len(base.moduli)
        or max(map(len, fields)) > len(str(max(base.moduli)))
    ):
        _raise_res_error(line.split(" "), base, line_no)
    # no longer than a modulus, so within the int digit limit
    values = tuple(map(int, fields))
    if any(map(operator.ge, values, base.moduli)):
        _raise_res_error(line.split(" "), base, line_no)
    return values
