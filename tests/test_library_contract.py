"""Every public callable either returns what an oracle confirms or raises a
documented type with a short message; a wrong-typed argument is named."""

import math
import operator
import random
import re
import sys
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crrkit
from crrkit import (
    AttemptsExhaustedError,
    CrrError,
    CrrVector,
    CrtCoefficients,
    DivisionPlan,
    GarnerConverter,
    LinearFormSample,
    ModuliBase,
    Scaler,
    classical_coefficients,
    coprime_form_stats,
    default_n2_bound,
    encode,
    format_base_line,
    garner_converter,
    parse,
    parse_base_line,
    prime_base,
    probabilistic_reconstruct,
    reconstruct,
    sequential_coefficients,
    serialize,
)
from _support import (
    primes_by_trial,
    random_coprime_base,
    reference_crt_sum,
    reference_probabilistic_reconstruct,
)
from test_public_names import PUBLIC_NAMES

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


# --- the contract property: every public callable, over one strategy of
# hostile arguments; valid sizes stay small (r, counts and bit sizes <= 64) ---

# 2 divides 6 and 10: a base that every route but encode refuses
SHARED = ModuliBase((6, 35, 11, 10))
FOREIGN = ModuliBase.from_moduli((4, 9, 25))
# one digit past the int <-> str limit: no message may print it in full
HUGE = 10 ** sys.get_int_max_str_digits()
DOCUMENTED = (CrrError, ValueError, TypeError, ZeroDivisionError)

_SOME_BASE = st.sampled_from([BASE, FOREIGN, SHARED])
_SHORT_TUPLES = st.lists(st.integers(-9, 99), max_size=5).map(tuple)
HAND_BUILT_CONVERTERS = st.builds(
    GarnerConverter, _SOME_BASE, _SHORT_TUPLES, st.integers(0, 9)
)
HAND_BUILT = st.one_of(
    st.builds(CrtCoefficients, _SOME_BASE, _SHORT_TUPLES, st.integers(0, 9)),
    HAND_BUILT_CONVERTERS,
    st.builds(LinearFormSample, *[st.integers(0, 9)] * 8),
    st.just(Scaler(2, 2, 140)),
    st.just(DivisionPlan(64, FOREIGN, 10, Scaler(2, 2, 140), (), (), (1, 1))),
)
_HOSTILE_PARTS = (
    st.booleans(),
    st.floats(),
    st.integers(max_value=-1),
    st.none(),
    _SHORT_TUPLES,  # of the wrong length wherever a tuple is taken
    HAND_BUILT,
    st.sampled_from([FOREIGN, SHARED, encode(17, FOREIGN), encode(17, SHARED)]),
)
# built, not sampled: a strategy's repr would print HUGE, which str() refuses
HOSTILE = st.one_of(
    *_HOSTILE_PARTS, st.booleans().map(lambda negative: -HUGE if negative else HUGE)
)
# ``trials`` counts work that the caller asks for, so HUGE is a valid request
# there that nothing bounds
BOUNDED_HOSTILE = st.one_of(*_HOSTILE_PARTS, st.builds(lambda: -HUGE))

BASES = st.one_of(
    st.integers(1, 64).map(prime_base),
    st.integers(0, 2**32 - 1).map(
        lambda seed: random_coprime_base(random.Random(seed), max_len=16)
    ),
)
BITS = st.integers(4, 64)
GENERATORS = st.integers(0, 2**64 - 1).map(random.Random)
N2_BOUNDS = st.one_of(st.none(), st.integers(1, 2**70))


@st.composite
def _vectors(draw):
    base = draw(BASES)
    return encode(draw(st.integers(0, base.product - 1)), base)


@st.composite
def _division_args(draw):
    n = draw(BITS)
    x, y = draw(st.integers(0, 2**n - 1)), draw(st.integers(1, 2**n - 1))
    return x, y, n, draw(st.sampled_from(["strict", "adaptive"]))


@st.composite
def _reconstruct_args(draw):
    vector = draw(_vectors())
    route = draw(st.sampled_from([classical_coefficients, sequential_coefficients]))
    return vector, route(vector.base)


def _record_args(cls):
    return st.tuples(*[st.integers(0, 99)] * len(cls._fields))


def _hand_built_on(cls, base):
    """``cls`` records over ``base`` itself, with r - 2 to r + 2 ints."""
    r = len(base.moduli)
    ints = st.lists(st.integers(-9, 99), min_size=max(0, r - 2), max_size=r + 2)
    return st.builds(cls, st.just(base), ints.map(tuple), st.integers(0, 9))


def _either(a, b):
    """a or b, each half the time, however many branches a has."""
    return st.booleans().flatmap(lambda first: a if first else b)


def _weights_hold(base, weights) -> bool:
    cofactors = (base.product // m for m in base.moduli)
    return all(w * c % m == 1 % m for w, c, m in zip(weights, cofactors, base.moduli))


def _floor_log(value: int, n: int) -> int:
    """The largest k with n**k <= 2**value."""
    k = 0
    while n ** (k + 1) <= 2**value:
        k += 1
    return k


def _base_line(base) -> str:
    return " ".join(map(str, ("base", len(base.moduli), *base.moduli)))


def _all_pairs_coprime(moduli) -> bool:
    return all(math.gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[:i])


# The oracles: each returns True when ``result`` is right for ``args``.


def _is_record(args, result) -> bool:
    return len(result) == len(args) and all(map(operator.is_, result, args))


def _keeps_args(args, result) -> bool:
    return result.args == args


def _is_vector(args, result) -> bool:
    base, residues = args
    ranges = all(0 <= x < m for x, m in zip(result.residues, base.moduli))
    return result.base is base and result.residues == tuple(residues) and ranges


def _are_weights(calls):
    def check(args, result) -> bool:
        base = args[0]
        r = len(base.moduli)
        right = result.base is base and _weights_hold(base, result.weights)
        return right and len(result.weights) == r and result.egcd_calls == calls(r)

    return check


def _is_garner(args, result) -> bool:
    base, radix = args[0], 1
    r = len(base.moduli)
    for m, c in zip(base.moduli, result.radix_inverses):
        if c * radix % m != 1 % m:
            return False
        radix *= m
    top = base.product - 1
    right = len(result.radix_inverses) == r and result.egcd_calls == r * (r - 1) // 2
    return right and result.decode(encode(top, base)) == top


def _is_decoded(args, result) -> bool:
    converter, vector = args
    base, inverses = vector.base, converter.radix_inverses
    # the mixed-radix digits of the docstring, over the converter's inverses
    value, radix = 0, 1
    for x, m, c in zip(vector.residues, base.moduli, inverses):
        value += (x - value % m) * c % m * radix
        radix *= m
    genuine = converter == garner_converter(base)
    whole = len(inverses) == len(base.moduli) and result == value
    return whole and (not genuine or encode(result, base) == vector)


def _is_reconstructed(args, result) -> bool:
    vector, coefficients = args
    base, weights = vector.base, coefficients.weights
    exact = result == reference_crt_sum(vector.residues, weights, base)
    whole = len(weights) == len(base.moduli) and exact
    genuine = _weights_hold(base, weights)
    return whole and (not genuine or encode(result, base) == vector)


def _is_prob(args, result) -> bool:
    vector = args[0]
    right = result == reference_probabilistic_reconstruct(*args)
    return right and encode(result[0], vector.base) == vector


def _are_stats(args, result) -> bool:
    base, rng, trials, n2_bound, max_attempts = args
    vector = encode(0, base)
    hits = attempts = exhausted = 0
    for _ in range(trials):
        try:
            _, sample = reference_probabilistic_reconstruct(
                vector, rng, n2_bound, max_attempts
            )
        except AttemptsExhaustedError:
            exhausted += 1
            attempts += max_attempts
        else:
            hits += sample.attempts == 1
            attempts += sample.attempts
    return result == (hits, attempts, exhausted)


def _is_default_bound(args, result) -> bool:
    base = args[0]
    return result >= max(2**16, 64 * (len(base.moduli) + math.log(base.product)))


def _is_encoded(args, result) -> bool:
    value, base = args
    return result.residues == tuple(value % m for m in base.moduli)


def _is_plan(args, result) -> bool:
    y, n, _ = args
    numerator, denominator = result.series
    x = 2**n - 1
    candidate = x * numerator // (denominator * result.scaler.value)
    return result.bit_size == n and x // y - 1 <= candidate <= x // y


def _is_adaptive_size(args, result) -> bool:
    n = args[0]
    groups = primes_by_trial(n + 2 + result)[n + 2 :]
    return math.prod(groups) > 2 ** (n + 3) >= math.prod(groups[:-1])


def _is_report(args, result) -> bool:
    n = args[0]
    size, m = _floor_log(n, n), primes_by_trial(n + 3)[-1]
    return result == (n, size, m, m**size > 2 ** (n + 3))


def _is_strict_count(args, result) -> bool:
    n = args[0]
    return result == _floor_log(n * n, n) + 3 * n


def _is_coprime_verdict(args, result) -> bool:
    moduli = args[0].moduli if isinstance(args[0], ModuliBase) else args[0]
    return result == _all_pairs_coprime(moduli)


def _is_parsed(args, result) -> bool:
    base_line, res_line = args[0].split("\n")[1:3]
    moduli = tuple(map(int, base_line.split(" ")[2:]))
    residues = tuple(map(int, res_line.split(" ")[1:]))
    return (result.base.moduli, result.residues) == (moduli, residues)


def _is_serialized(args, result) -> bool:
    vector = args[0]
    residues = " ".join(map(str, vector.residues))
    text = f"CRR1\n{_base_line(vector.base)}\nres {residues}\n"
    coprime = _all_pairs_coprime(vector.base.moduli)
    return result == text and (not coprime or parse(result) == vector)


class Contract(NamedTuple):
    """A callable's valid arguments, its oracle, and its slots' hostile values.

    ``hostile`` maps a slot to a function from the valid arguments to that
    slot's hostile strategy; any other slot draws from HOSTILE.
    """

    valid: st.SearchStrategy
    oracle: object
    hostile: dict = {}


_MESSAGE_ERROR = Contract(st.tuples(st.text(max_size=9)), _keeps_args)

CONTRACTS = {
    "AttemptsExhaustedError": Contract(
        st.tuples(st.integers(1, 64), st.integers(1, 2**70)),
        lambda args, result: (result.attempts, result.n2_bound) == args,
    ),
    "BaseMismatchError": _MESSAGE_ERROR,
    "CrrError": _MESSAGE_ERROR,
    "CrrVector": Contract(_vectors().map(lambda v: (v.base, v.residues)), _is_vector),
    "CrtCoefficients": Contract(_record_args(CrtCoefficients), _is_record),
    "DivideResult": Contract(_record_args(crrkit.DivideResult), _is_record),
    "DivisionPlan": Contract(_record_args(DivisionPlan), _is_record),
    "GarnerConverter": Contract(_record_args(GarnerConverter), _is_record),
    "GarnerConverter.decode": Contract(
        _vectors().map(lambda v: (garner_converter(v.base), v)),
        _is_decoded,
        {
            0: lambda args: _either(
                HAND_BUILT_CONVERTERS, _hand_built_on(GarnerConverter, args[1].base)
            )
        },
    ),
    "GroupBoundError": Contract(
        st.tuples(*[st.integers(0, 2**70)] * 3),
        lambda args, result: (result.index, result.product, result.bound) == args,
    ),
    "GroupBoundReport": Contract(_record_args(crrkit.GroupBoundReport), _is_record),
    "LinearFormSample": Contract(_record_args(LinearFormSample), _is_record),
    "ModuliBase": Contract(
        st.tuples(st.lists(st.integers(2, 10**30), min_size=1, max_size=64)),
        lambda args, result: result.moduli == tuple(args[0]),
    ),
    "ParseError": Contract(
        st.tuples(st.text(max_size=9), st.integers(1, 3), st.integers(1, 9)),
        lambda args, result: (result.line, result.token) == args[1:],
    ),
    "PrimeLimitError": _MESSAGE_ERROR,
    "Scaler": Contract(_record_args(Scaler), _is_record),
    "adaptive_group_size": Contract(st.tuples(BITS), _is_adaptive_size),
    "build_plan": Contract(_division_args().map(lambda a: a[1:]), _is_plan),
    "classical_coefficients": Contract(st.tuples(BASES), _are_weights(lambda r: r)),
    "coprime_form_stats": Contract(
        st.tuples(BASES, GENERATORS, st.integers(1, 8), N2_BOUNDS, st.integers(1, 64)),
        _are_stats,
        {2: lambda args: BOUNDED_HOSTILE},
    ),
    "default_n2_bound": Contract(st.tuples(BASES), _is_default_bound),
    "divide": Contract(
        _division_args(), lambda args, result: result.quotient == args[0] // args[1]
    ),
    "encode": Contract(st.tuples(st.integers(-(2**70), 2**70), BASES), _is_encoded),
    "format_base_line": Contract(
        st.tuples(BASES), lambda args, result: result == _base_line(args[0])
    ),
    "garner_converter": Contract(st.tuples(BASES), _is_garner),
    "group_bound_report": Contract(st.tuples(BITS), _is_report),
    "group_size": Contract(
        st.tuples(BITS), lambda args, result: result == _floor_log(args[0], args[0])
    ),
    "nth_prime": Contract(
        st.tuples(st.integers(1, 64)),
        lambda args, result: result == primes_by_trial(args[0])[-1],
    ),
    "pairwise_coprime": Contract(
        st.tuples(st.lists(st.integers(2, 99), min_size=1, max_size=64)),
        _is_coprime_verdict,
    ),
    "parse": Contract(st.tuples(_vectors().map(serialize)), _is_parsed),
    "parse_base_line": Contract(
        st.tuples(BASES.map(format_base_line)),
        lambda args, result: _base_line(result) == args[0],
    ),
    "prime_base": Contract(
        st.tuples(st.integers(1, 64)),
        lambda args, result: list(result.moduli) == primes_by_trial(args[0] + 2)[2:],
    ),
    "probabilistic_reconstruct": Contract(
        st.tuples(_vectors(), GENERATORS, N2_BOUNDS, st.integers(1, 64)), _is_prob
    ),
    "reconstruct": Contract(
        _reconstruct_args(),
        _is_reconstructed,
        {
            1: lambda args: _either(
                HOSTILE, _hand_built_on(CrtCoefficients, args[0].base)
            )
        },
    ),
    "sequential_coefficients": Contract(
        st.tuples(BASES), _are_weights(lambda r: r - 1)
    ),
    "serialize": Contract(st.tuples(_vectors()), _is_serialized),
    "strict_moduli_count": Contract(st.tuples(BITS), _is_strict_count),
}


def _callable(name):
    if name == "GarnerConverter.decode":
        return lambda converter, vector: converter.decode(vector)
    return getattr(crrkit, name)


def _replayable(value):
    """A generator's copy in its present state; any other value as it is."""
    if isinstance(value, random.Random):
        copy = random.Random()
        copy.setstate(value.getstate())
        return copy
    return value


def test_the_contract_covers_every_public_callable():
    callables = {name for name in PUBLIC_NAMES if callable(getattr(crrkit, name))}
    assert callables | {"GarnerConverter.decode"} == set(CONTRACTS)


@pytest.mark.parametrize("name", sorted(CONTRACTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_every_public_call_is_confirmed_or_refused(name, data):
    # each slot keeps its valid argument or, half the time, takes a hostile one
    contract = CONTRACTS[name]
    valid = data.draw(contract.valid, label="valid")
    args = list(valid)
    for i in range(len(args)):
        if data.draw(st.booleans(), label=f"hostile {i}"):
            hostile = contract.hostile.get(i, lambda valid: HOSTILE)(valid)
            args[i] = data.draw(hostile, label=f"argument {i}")
    replay = tuple(map(_replayable, args))
    try:
        result = _callable(name)(*args)
    except DOCUMENTED as exc:
        assert len(str(exc)) < 200, str(exc)
    else:
        assert contract.oracle(replay, result), result
