"""Public calls refuse a wrong-typed argument with a TypeError that names it."""

import random
import re

import pytest

from crrkit import (
    CrrVector,
    classical_coefficients,
    coprime_form_stats,
    default_n2_bound,
    encode,
    garner_converter,
    parse,
    parse_base_line,
    prime_base,
    probabilistic_reconstruct,
    reconstruct,
    sequential_coefficients,
)

BASE = prime_base(3)
VECTOR = encode(7, BASE)
WEIGHTS = classical_coefficients(BASE)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: encode(3, None), "base None is not a ModuliBase", id="encode"
        ),
        pytest.param(
            lambda: classical_coefficients(5),
            "base 5 is not a ModuliBase",
            id="classical_coefficients",
        ),
        pytest.param(
            lambda: sequential_coefficients(None),
            "base None is not a ModuliBase",
            id="sequential_coefficients",
        ),
        pytest.param(
            lambda: garner_converter(None),
            "base None is not a ModuliBase",
            id="garner_converter",
        ),
        pytest.param(
            lambda: garner_converter(BASE).decode(None),
            "vector None is not a CrrVector",
            id="GarnerConverter.decode",
        ),
        pytest.param(
            lambda: reconstruct(None, WEIGHTS),
            "vector None is not a CrrVector",
            id="reconstruct-vector",
        ),
        pytest.param(
            lambda: reconstruct(VECTOR, None),
            "coefficients None is not a CrtCoefficients",
            id="reconstruct-coefficients",
        ),
        pytest.param(
            lambda: probabilistic_reconstruct(None, random.Random(0)),
            "vector None is not a CrrVector",
            id="probabilistic_reconstruct",
        ),
        pytest.param(
            lambda: coprime_form_stats(None, random.Random(0), 1),
            "base None is not a ModuliBase",
            id="coprime_form_stats",
        ),
        pytest.param(
            lambda: default_n2_bound(None),
            "base None is not a ModuliBase",
            id="default_n2_bound",
        ),
        pytest.param(
            lambda: CrrVector(None, (1,)),
            "base None is not a ModuliBase",
            id="CrrVector",
        ),
        pytest.param(
            lambda: parse_base_line(5), "text 5 is not a str", id="parse_base_line"
        ),
        pytest.param(lambda: parse(None), "text None is not a str", id="parse"),
    ],
)
def test_a_wrong_typed_base_vector_or_text_is_named(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()
