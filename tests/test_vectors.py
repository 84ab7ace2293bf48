"""Residue vectors: encoding, ring operations, and the CRR1 format."""

import math
import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crrkit import (
    BaseMismatchError,
    CrrVector,
    ModuliBase,
    ParseError,
    encode,
    format_base_line,
    nth_prime,
    parse,
    parse_base_line,
    prime_base,
    serialize,
)
from crrkit.vectors import _parse_base_fields, _parse_res_fields
from _support import (
    brute_force_crt,
    random_coprime_base,
    reference_parse_base_tokens,
    reference_parse_res_tokens,
    shown_int,
)

BASE_357 = ModuliBase.from_moduli([3, 5, 7])
BASE_5_7_11 = prime_base(3)


def test_encode_frozen_examples():
    assert encode(23, BASE_5_7_11).residues == (3, 2, 1)
    assert encode(104, BASE_357).residues == (2, 4, 6)
    assert encode(0, BASE_5_7_11).residues == (0, 0, 0)


def test_encode_against_brute_force():
    residues = encode(23, BASE_5_7_11).residues
    assert brute_force_crt(residues, BASE_5_7_11.moduli) == 23


def test_encode_reduces_negative_and_oversized():
    assert encode(-2, BASE_357) == encode(103, BASE_357)
    assert encode(105 + 23, BASE_357) == encode(23, BASE_357)
    assert encode(-105, BASE_357) == encode(0, BASE_357)


@pytest.mark.parametrize("residues, named", [((1.5, 1, 2), "1.5"), ((1, True, 2), "True")])
def test_vector_rejects_non_int_residues(residues, named):
    with pytest.raises(TypeError, match=f"^residue {named} is not an int$"):
        CrrVector(BASE_5_7_11, residues)


@pytest.mark.parametrize("value, named", [(2.5, "2.5"), (False, "False"), ("7", "'7'")])
def test_encode_rejects_non_int(value, named):
    with pytest.raises(TypeError, match=f"^value {named} is not an int$"):
        encode(value, BASE_5_7_11)


def test_encode_injective_on_small_range():
    seen = set()
    for x in range(BASE_357.product):
        seen.add(encode(x, BASE_357).residues)
    assert len(seen) == BASE_357.product


def test_ring_operation_examples():
    assert (encode(9, BASE_5_7_11) * encode(13, BASE_5_7_11)).residues == (2, 5, 7)
    assert encode(9 * 13, BASE_5_7_11).residues == (2, 5, 7)
    assert (encode(3, BASE_357) - encode(5, BASE_357)).residues == (1, 3, 5)
    assert (encode(20, BASE_357) + encode(30, BASE_357)) == encode(50, BASE_357)


@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
)
def test_ring_homomorphism_small_base(a, b):
    assert encode(a, BASE_357) + encode(b, BASE_357) == encode(a + b, BASE_357)
    assert encode(a, BASE_357) - encode(b, BASE_357) == encode(a - b, BASE_357)
    assert encode(a, BASE_357) * encode(b, BASE_357) == encode(a * b, BASE_357)


@given(st.integers(min_value=0, max_value=10**40), st.integers(min_value=0, max_value=10**40))
def test_ring_homomorphism_wide_base(a, b):
    base = prime_base(16)
    assert encode(a, base) * encode(b, base) == encode(a * b, base)
    assert encode(a, base) - encode(b, base) == encode(a - b, base)


def test_mismatched_bases_raise():
    with pytest.raises(BaseMismatchError):
        encode(1, BASE_357) + encode(1, BASE_5_7_11)
    with pytest.raises(TypeError):
        encode(1, BASE_357) + 5  # an int is not a vector over any base
    with pytest.raises(TypeError, match="^vector None is not a CrrVector$"):
        serialize(None)
    with pytest.raises(TypeError, match="^base 5 is not a ModuliBase$"):
        format_base_line(5)
    # structurally equal bases are fine even when not the same object
    twin = ModuliBase.from_moduli([3, 5, 7])
    assert (encode(2, BASE_357) + encode(3, twin)) == encode(5, BASE_357)


def test_residue_order_independence():
    base = prime_base(12)
    x = 123456789
    forward = tuple(x % m for m in base.moduli)
    backward = tuple(x % m for m in reversed(base.moduli))[::-1]
    assert forward == backward == encode(x, base).residues


def test_vector_validation():
    with pytest.raises(ValueError, match="^residue count does not match base length$"):
        CrrVector(BASE_357, (0, 0))
    with pytest.raises(ValueError, match="^residue count does not match base length$"):
        CrrVector(BASE_357, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="^residue 3 out of range for modulus 3$"):
        CrrVector(BASE_357, (3, 0, 0))
    with pytest.raises(ValueError, match="^residue 7 out of range for modulus 7$"):
        CrrVector(BASE_357, (0, 0, 7))
    with pytest.raises(ValueError, match="^residue -1 out of range for modulus 7$"):
        CrrVector(BASE_357, (0, 0, -1))
    with pytest.raises(TypeError, match="^residue False is not an int$"):
        CrrVector(BASE_357, (0, False, 0))
    # the first bad residue is named, whichever check it fails
    with pytest.raises(ValueError, match="^residue 3 out of range for modulus 3$"):
        CrrVector(BASE_357, (3, True, 0))


class Unruly(int):
    """An int whose arithmetic leaves the integers and whose order lies."""

    def __add__(self, other):
        return 0.5

    def __mod__(self, other):
        return 0.5

    def __rmod__(self, other):
        return 0.5

    def __lt__(self, other):
        return True


def test_int_subclasses_act_as_plain_ints():
    # 52 is 1 mod 3, 2 mod 5 and 3 mod 7
    v = CrrVector(BASE_357, (Unruly(1), Unruly(2), 3))
    assert [type(x) for x in v.residues] == [int] * 3
    assert v + v == encode(104, BASE_357)
    assert encode(Unruly(52), BASE_357) == v
    base = ModuliBase.from_moduli([Unruly(3), 5, 7])
    assert [type(m) for m in base.moduli] == [int] * 3
    assert encode(52, base).residues == (1, 2, 3)
    with pytest.raises(ValueError, match="^residue 3 out of range for modulus 3$"):
        CrrVector(BASE_357, (Unruly(3), 0, 0))


SMALL_PRIMES = [nth_prime(i) for i in range(1, 60)]


@st.composite
def coprime_bases(draw):
    """Distinct small primes, r = 1 up to past a product-tree chunk, and at
    times one modulus of at least 2**64, 1 mod the others' product."""
    primes = st.sampled_from(SMALL_PRIMES)
    moduli = draw(st.lists(primes, min_size=1, max_size=19, unique=True))
    if draw(st.booleans()):
        others = math.prod(moduli)
        big = ((1 << 64) // others + draw(st.integers(1, 1 << 32))) * others + 1
        moduli.insert(draw(st.integers(0, len(moduli))), big)
    return ModuliBase.from_moduli(moduli)


@given(coprime_bases(), st.integers(), st.integers())
@example(ModuliBase.from_moduli([5]), 7, -3)
@example(ModuliBase.from_moduli([3, (1 << 64) + 1, 5]), 1 << 70, -(1 << 65))
@example(prime_base(13), 10**30, 7)
def test_built_vectors_pass_the_public_constructor(base, x, y):
    a, b = encode(x, base), encode(y, base)
    for v in (a, b, a + b, a - b, a * b, parse(serialize(a * b))):
        assert type(v.residues) is tuple
        assert {type(r) for r in v.residues} == {int}
        checked = CrrVector(v.base, v.residues)
        assert v == checked and hash(v) == hash(checked)


def test_serialize_frozen_example():
    assert serialize(encode(23, BASE_5_7_11)) == "CRR1\nbase 3 5 7 11\nres 3 2 1\n"


def test_parse_round_trip_random_vectors():
    rng = random.Random(11)
    for _ in range(1000):
        base = random_coprime_base(rng, max_len=12)
        vector = encode(rng.randrange(base.product), base)
        assert parse(serialize(vector)) == vector


@pytest.mark.parametrize("r", [1, 2, 31, 32, 33, 192])
def test_a_parsed_base_formats_to_its_own_line(r):
    # the line that passed the parser is canonical, so it is reused as the
    # line format_base_line would write for the same moduli
    fresh = ModuliBase(prime_base(r).moduli)
    line = format_base_line(fresh)
    text = serialize(encode(r * r + 1, fresh))
    for parsed in (parse_base_line(line), parse_base_line(line + "\n")):
        assert format_base_line(parsed) == line
        assert format_base_line(parsed) is vars(parsed)["_line"]
    vector = parse(text)
    assert format_base_line(vector.base) is vars(vector.base)["_line"]
    assert serialize(vector) == text
    assert "_line" not in vars(fresh)


def test_parse_rejects_bad_magic():
    with pytest.raises(ParseError) as info:
        parse("CRR2\nbase 1 5\nres 1\n")
    assert info.value.line == 1


def test_parse_rejects_residue_at_modulus():
    with pytest.raises(ParseError) as info:
        parse("CRR1\nbase 3 5 7 11\nres 5 2 1\n")
    assert info.value.line == 3
    assert info.value.token == 2


def test_parse_rejects_structural_damage():
    good = "CRR1\nbase 3 5 7 11\nres 3 2 1\n"
    with pytest.raises(ParseError):
        parse(good[:-1])  # trailing newline is mandatory
    with pytest.raises(ParseError):
        parse(good + "\n")  # extra blank line
    with pytest.raises(ParseError):
        parse(good.replace("\n", "\r\n"))
    with pytest.raises(ParseError):
        parse("CRR1\nbase 3 5 7 11\n")  # missing residue line


def test_parse_rejects_malformed_tokens():
    with pytest.raises(ParseError) as info:
        parse("CRR1\nbase 3 5 7 11\nres 3 02 1\n")
    assert info.value.line == 3 and info.value.token == 3
    with pytest.raises(ParseError) as info:
        parse("CRR1\nbase 3 5  7 11\nres 3 2 1\n")  # double space
    assert info.value.line == 2
    with pytest.raises(ParseError):
        parse("CRR1\nbase 3 5 7 11\nres 3 -2 1\n")
    with pytest.raises(ParseError) as info:
        parse("CRR1\nbase 2 6 10\nres 1 1\n")  # moduli share a factor
    assert info.value.line == 2


# --- one-pass line checks against the per-token reference ---

# an empty token comes from a double space; "\u0663" is ARABIC-INDIC DIGIT
# THREE, which int() accepts and the format does not
BAD_TOKENS = ("", "00", "05", "+5", "-2", "1_0", "\u0663", "5\t", "x", "5.0")
SMALL = st.integers(min_value=0, max_value=15).map(str)
TOKEN = st.one_of(SMALL, SMALL, st.sampled_from(BAD_TOKENS))
RES_BASE = ModuliBase.from_moduli([5, 7, 11, 13])


def outcome(fn, *args):
    """The parsed value, or the ParseError's message, line and token."""
    try:
        value = fn(*args)
    except ParseError as exc:
        return str(exc), exc.line, exc.token
    return value.moduli if isinstance(value, ModuliBase) else tuple(value)


@st.composite
def token_lines(draw, keyword: str, body):
    tokens = [draw(st.sampled_from((keyword,) * 6 + ("", "Base")))]
    tokens += draw(body)
    kept = draw(st.one_of(st.just(len(tokens)), st.integers(1, len(tokens))))
    return " ".join(tokens[:kept])


@st.composite
def base_bodies(draw):
    moduli = draw(st.lists(TOKEN, max_size=6))
    count = draw(st.one_of(st.just(str(len(moduli))), TOKEN))
    return [count, *moduli]


@given(token_lines("base", base_bodies()), st.integers(1, 3))
@example("base 3 5 7 11", 1)
@example("base 3 5  7 11", 2)  # double space
@example("base 2 00 7", 1)
@example("base 05 5 7 11 13 17", 1)
@example("base 2 +5 7", 1)
@example("base 2 5 1_0", 1)
@example("base 2 5 \u0663", 1)
@example("base 2 5\t 7", 1)
@example("base 2 5 0", 2)
@example("base 2 1 7", 2)
@example("base 2 6 10", 2)  # not coprime
@example("base 10 5 7", 1)  # count longer than the real count
@example("base 3 5 7", 1)  # count as long as the real count, and larger
@example("base 0", 1)
@example("base", 1)
@example("base ", 1)
def test_base_line_errors_match_per_token_reference(line, line_no):
    assert outcome(_parse_base_fields, line, line_no) == outcome(
        reference_parse_base_tokens, line.split(" "), line_no
    )


RES_BODIES = st.one_of(st.lists(TOKEN, min_size=4, max_size=4), st.lists(TOKEN))


@given(token_lines("res", RES_BODIES), st.integers(1, 3))
@example("res 3 2 1 0", 3)
@example("res 3 2 1 13", 3)  # residue equal to its modulus
@example("res 3 100 1 0", 3)  # residue longer than its modulus
@example("res 3 2 1 14", 3)  # residue as long as its modulus, and larger
@example("res 5 2 1 0", 3)
@example("res 3  1 0", 3)
@example("res 3 00 1 0", 3)
@example("res 3 05 1 0", 3)
@example("res 3 +5 1 0", 3)
@example("res 3 1_0 1 0", 3)
@example("res 3 \u0663 1 0", 3)
@example("res 3 5\t 1 0", 3)
@example("res 3 2 1", 3)
@example("res", 3)
def test_res_line_errors_match_per_token_reference(line, line_no):
    assert outcome(_parse_res_fields, line, RES_BASE, line_no) == outcome(
        reference_parse_res_tokens, line.split(" "), RES_BASE, line_no
    )


def test_token_past_int_digit_limit_is_located_like_the_reference():
    long_token = "1" + "0" * (sys.get_int_max_str_digits() + 1)
    # an earlier bad token is named first, as the per-token walk names it
    line = f"base 2 0 {long_token}"
    expected = outcome(reference_parse_base_tokens, line.split(" "), 1)
    assert expected[2] == 3
    assert outcome(_parse_base_fields, line, 1) == expected
    # a long token alone is a ParseError at its own position
    with pytest.raises(ParseError, match="^line 1, token 3: modulus '10{19}'"):
        _parse_base_fields(f"base 1 {long_token}", 1)


# --- one digit past sys.get_int_max_str_digits(): the parsers name the token,
# the reprs show the int by its bits, and the formatters keep str()'s error ---

LIMIT = sys.get_int_max_str_digits()
PAST_LIMIT = "1" * (LIMIT + 1)
PAST_LIMIT_MESSAGE = (
    rf"modulus '1{{20}}'\.\.\. \({LIMIT + 1} chars\) exceeds the limit "
    rf"\({LIMIT} digits\) for integer string conversion$"
)


def test_parse_base_line_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match=f"^line 1, token 4: {PAST_LIMIT_MESSAGE}"):
        parse_base_line(f"base 2 7 {PAST_LIMIT}\n")


def test_parse_past_the_digit_limit_is_a_parse_error():
    with pytest.raises(ParseError, match=f"^line 2, token 3: {PAST_LIMIT_MESSAGE}"):
        parse(f"CRR1\nbase 1 {PAST_LIMIT}\nres 0\n")


def test_moduli_base_repr_past_the_digit_limit_shows_bits():
    wide = 10**LIMIT + 1  # LIMIT + 1 digits
    bits = wide.bit_length()
    assert repr(ModuliBase([wide, 7])) == f"ModuliBase([<int of {bits} bits>, 7])"
    nine = ModuliBase([*prime_base(8).moduli, wide])
    assert repr(nine) == f"ModuliBase(r=9, 5..<int of {bits} bits>)"
    at_limit = 10 ** (LIMIT - 1) + 1  # LIMIT digits: shown in full, as before
    assert repr(ModuliBase([at_limit])) == f"ModuliBase([{at_limit}])"


def test_crr_vector_repr_past_eight_residues_shows_the_count():
    shown = repr(encode(1, prime_base(9)))
    assert shown == "CrrVector(r=9 over ModuliBase(r=9, 5..31))"


def test_crr_vector_repr_past_the_digit_limit_shows_bits():
    wide = 10**LIMIT + 1
    vector = CrrVector(ModuliBase([wide, 7]), (wide - 1, 3))
    bits = wide.bit_length()
    shown = f"<int of {(wide - 1).bit_length()} bits>"
    assert repr(vector) == (
        f"CrrVector([{shown}, 3] over ModuliBase([<int of {bits} bits>, 7]))"
    )


@pytest.mark.parametrize("digits", [LIMIT, LIMIT + 1])
def test_out_of_range_residue_of_many_digits_gets_a_short_message(digits):
    wide = 10 ** (digits - 1)  # ``digits`` digits
    with pytest.raises(ValueError) as info:
        CrrVector(BASE_5_7_11, (wide, 0, 0))
    assert str(info.value) == f"residue {shown_int(wide)} out of range for modulus 5"
    huge = ModuliBase([wide + 1, 7])
    with pytest.raises(ValueError) as info:
        CrrVector(huge, (wide + 1, 0))
    shown = shown_int(wide + 1)
    assert str(info.value) == f"residue {shown} out of range for modulus {shown}"
    assert len(str(info.value)) < 120


@pytest.mark.parametrize("length", [LIMIT, LIMIT + 1, 100_000])
def test_non_int_value_of_many_characters_gets_a_short_message(length):
    text = "7" * length
    with pytest.raises(TypeError) as info:
        encode(text, BASE_5_7_11)
    shown = f"'{'7' * 19}... ({length + 2} chars)"  # the repr, quotes included
    assert str(info.value) == f"value {shown} is not an int"
    for call, what, kind in (
        (serialize, "vector", "a CrrVector"),
        (format_base_line, "base", "a ModuliBase"),
    ):
        with pytest.raises(TypeError) as info:
            call(text)
        assert str(info.value) == f"{what} {shown} is not {kind}"


def test_formatters_past_the_digit_limit_keep_the_interpreters_error():
    wide = ModuliBase([10**LIMIT + 1])
    with pytest.raises(ValueError, match="Exceeds the limit"):
        format_base_line(wide)
    with pytest.raises(ValueError, match="Exceeds the limit"):
        serialize(encode(3, wide))


def test_a_parsed_base_formats_past_the_digit_limit():
    # parsed under a raised limit, as the command line does, then formatted
    # under the default one: the kept line needs no str()
    line = f"base 2 7 {PAST_LIMIT}"
    sys.set_int_max_str_digits(LIMIT + 1)
    try:
        base = parse_base_line(line)
    finally:
        sys.set_int_max_str_digits(LIMIT)
    assert format_base_line(base) == line
    assert serialize(CrrVector(base, (3, 0))) == f"CRR1\n{line}\nres 3 0\n"
    with pytest.raises(ValueError, match="Exceeds the limit"):
        format_base_line(ModuliBase(base.moduli))


def test_over_long_count_and_residue_are_parse_errors():
    # 5000 digits is past the default int digit limit; the tokens are
    # refused by their text before any conversion, so int() never sees them;
    # each message quotes the token's first 20 characters and its length
    zeros = "0" * 5000
    cut = rf"10{{19}}\.\.\. \(5001 chars\)"
    message = f"^line 3, token 2: residue {cut} not below modulus 5$"
    with pytest.raises(ParseError, match=message):
        parse(f"CRR1\nbase 1 5\nres 1{zeros}\n")
    with pytest.raises(
        ParseError, match=f"^line 1, token 2: expected {cut} moduli, found 1$"
    ):
        parse_base_line(f"base 1{zeros} 5")
