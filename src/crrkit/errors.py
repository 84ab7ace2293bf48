"""Exception types shared across the toolkit."""

__all__ = [
    "AttemptsExhaustedError",
    "BaseMismatchError",
    "CrrError",
    "GroupBoundError",
    "ParseError",
    "PrimeLimitError",
]


def excerpt(token: str, show=repr) -> str:
    """``show(token)``, or for a token over 40 characters its first 20 and length.

    Every message that quotes an input token goes through this, so an
    over-long token costs a message of bounded length.
    """
    if len(token) <= 40:
        return show(token)
    return f"{show(token[:20])}... ({len(token)} chars)"


def excerpt_int(value: int) -> str:
    """``excerpt(str(value), str)``; an int too long for ``str()`` shows its bits.

    Python refuses decimal conversions above ``sys.get_int_max_str_digits()``
    digits (4300 by default), so such an int is named "of N bits".
    """
    try:
        text = str(value)
    except ValueError:
        return f"of {value.bit_length()} bits"
    return excerpt(text, str)


def int_repr(value: int) -> str:
    """``repr(value)``, or ``<int of N bits>`` for an int too long for ``str()``."""
    try:
        return repr(value)
    except ValueError:
        return f"<int {excerpt_int(value)}>"


class CrrError(Exception):
    """Base class for toolkit errors."""


class BaseMismatchError(CrrError):
    """Two residue vectors do not share a moduli base."""


class PrimeLimitError(CrrError):
    """Prime index beyond the configured generation ceiling."""


class ParseError(CrrError):
    """Malformed CRR text; carries the first offending position."""

    def __init__(self, message, line, token=None):
        self.line = line
        self.token = token
        where = f"line {line}" if token is None else f"line {line}, token {token}"
        super().__init__(f"{where}: {message}")


class AttemptsExhaustedError(CrrError):
    """Random linear forms never became coprime within the attempt cap."""

    def __init__(self, attempts, n2_bound):
        self.attempts = attempts
        self.n2_bound = n2_bound
        super().__init__(
            f"no coprime linear forms after {attempts} attempts "
            f"(coefficient bound {n2_bound})"
        )


class GroupBoundError(CrrError):
    """A moduli group product failed the required magnitude floor."""

    def __init__(self, index, product, bound):
        self.index = index
        self.product = product
        self.bound = bound
        super().__init__(f"group {index} product {product} does not exceed {bound}")
