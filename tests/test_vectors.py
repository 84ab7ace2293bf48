"""Residue vectors: encoding, ring operations, and the CRR1 format."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crrkit import (
    BaseMismatchError,
    CrrVector,
    ModuliBase,
    ParseError,
    encode,
    parse,
    prime_base,
    serialize,
)
from _support import brute_force_crt, random_coprime_base

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
    with pytest.raises(ValueError):
        CrrVector(BASE_357, (0, 0))
    with pytest.raises(ValueError):
        CrrVector(BASE_357, (3, 0, 0))
    with pytest.raises(ValueError):
        CrrVector(BASE_357, (0, 0, -1))


def test_serialize_frozen_example():
    assert serialize(encode(23, BASE_5_7_11)) == "CRR1\nbase 3 5 7 11\nres 3 2 1\n"


def test_parse_round_trip_random_vectors():
    rng = random.Random(11)
    for _ in range(1000):
        base = random_coprime_base(rng, max_len=12)
        vector = encode(rng.randrange(base.product), base)
        assert parse(serialize(vector)) == vector


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
