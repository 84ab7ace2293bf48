"""The nine public types keep one contract: positional and keyword
construction, immutability, equal fields giving equal objects and hashes,
and a fixed repr.  ``ModuliBase`` and ``CrrVector`` are plain classes; the
seven result records are tuples."""

import pickle

import pytest

from crrkit import (
    CrrVector,
    CrtCoefficients,
    DivideResult,
    DivisionPlan,
    GarnerConverter,
    GroupBoundReport,
    LinearFormSample,
    ModuliBase,
    Scaler,
    prime_base,
)

BASE = ModuliBase((5, 7, 11))
SCALER = Scaler(2, 2, 140)

# (type, its fields in order, repr as written before the records became tuples)
CASES = [
    (ModuliBase, dict(moduli=(5, 7, 11)), "ModuliBase([5, 7, 11])"),
    (
        CrrVector,
        dict(base=BASE, residues=(1, 2, 3)),
        "CrrVector([1, 2, 3] over ModuliBase([5, 7, 11]))",
    ),
    (
        CrtCoefficients,
        dict(base=BASE, weights=(3, 6, 6), egcd_calls=3),
        "CrtCoefficients(base=ModuliBase([5, 7, 11]), weights=(3, 6, 6), egcd_calls=3)",
    ),
    (
        GarnerConverter,
        dict(base=BASE, radix_inverses=(1, 3, 6), egcd_calls=3),
        "GarnerConverter(base=ModuliBase([5, 7, 11]), radix_inverses=(1, 3, 6), "
        "egcd_calls=3)",
    ),
    (
        LinearFormSample,
        dict(s=(1,), t=(2,), form_s=3, form_t=4, bezout_u=5, bezout_v=6, attempts=7,
             n2_bound=8),
        "LinearFormSample(s=(1,), t=(2,), form_s=3, form_t=4, bezout_u=5, "
        "bezout_v=6, attempts=7, n2_bound=8)",
    ),
    (
        GroupBoundReport,
        dict(n=64, group_size=10, next_modulus=331, holds=True),
        "GroupBoundReport(n=64, group_size=10, next_modulus=331, holds=True)",
    ),
    (
        Scaler,
        dict(prefix_len=2, pow2=2, value=140),
        "Scaler(prefix_len=2, pow2=2, value=140)",
    ),
    (
        DivisionPlan,
        dict(bit_size=8, base=prime_base(35), group_size=3, scaler=SCALER,
             groups=(1001,), numerators=(1,), series=(2, 1)),
        "DivisionPlan(bit_size=8, moduli=35, group_size=3, "
        "scaler=Scaler(prefix_len=2, pow2=2, value=140))",
    ),
    (
        DivideResult,
        dict(quotient=3, correction_applied=False, plan=None),
        "DivideResult(quotient=3, correction_applied=False, plan=None)",
    ),
]


@pytest.mark.parametrize(
    "cls, fields, golden", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_public_type_contract(cls, fields, golden):
    values = tuple(fields.values())
    made = cls(*values)
    again = cls(**fields)
    assert made is not again and made == again and hash(made) == hash(again)
    assert tuple(getattr(made, name) for name in fields) == values
    assert repr(made) == golden
    with pytest.raises(TypeError):
        cls(*values, None)
    for name in (next(iter(fields)), "extra"):
        with pytest.raises(AttributeError):
            setattr(made, name, values[0])
        with pytest.raises(AttributeError):
            delattr(made, name)
    match made:
        case cls(first):
            assert first == values[0]
        case _:
            pytest.fail("positional class pattern did not match")
    # the records are tuples: they unpack, and equal a plain tuple of their fields
    assert (made == values) is issubclass(cls, tuple)
    assert pickle.loads(pickle.dumps(made)) == made


def test_base_caches_its_tree_and_takes_one_argument():
    base = ModuliBase((5, 7))
    assert base._tree is base._tree
    with pytest.raises(TypeError):
        ModuliBase((5, 7), 36)


def test_plain_classes_tell_unequal_fields_apart():
    other = ModuliBase((5, 7, 13))
    assert BASE != other and BASE != (5, 7, 11)
    vector = CrrVector(BASE, (1, 2, 3))
    assert vector != CrrVector(BASE, (1, 2, 4))
    assert vector != CrrVector(other, (1, 2, 3))
