"""Ring layer: primality, field arithmetic against plain big-int
references, and the magnitude cap."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubelab.cube import ADDITIVE, CubeSpec, FiniteSet
from cubelab.energy import energy_k, energy_pair, energy_tk
from cubelab.numeric import (
    DEFAULT_MAGNITUDE_CAP,
    DIFF,
    PROD,
    RATIO,
    SUM,
    AmbientRing,
    CapExceededError,
    _check,
    _scalar_op,
    is_prime,
)
from cubelab.setops import correlation, pairwise_size
from cubelab.structure import gmr_check, olmezov_sides

PRIMES_BELOW_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                    53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


def test_is_prime_small_range():
    for n in range(100):
        assert is_prime(n) == (n in PRIMES_BELOW_100)


def test_is_prime_carmichael_and_large():
    # Carmichael numbers fool Fermat but not Miller-Rabin.
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert is_prime(10**9 + 7)
    assert not is_prime((2**31 - 1) * (2**31 + 11))


def test_ring_validation():
    with pytest.raises(ValueError):
        AmbientRing.prime_field(2)
    with pytest.raises(ValueError):
        AmbientRing.prime_field(15)
    with pytest.raises(ValueError):
        AmbientRing("integers", modulus=7)
    with pytest.raises(ValueError):
        AmbientRing("gaussian")
    with pytest.raises(ValueError, match="too small"):
        AmbientRing.integers(magnitude_cap=1)
    assert AmbientRing.prime_field(7).is_field
    assert not AmbientRing.integers().is_field


def test_field_ops_match_bigint_reference():
    p = 10007
    ring = AmbientRing.prime_field(p)
    add, sub, mul = (_scalar_op(op, ring) for op in (SUM, DIFF, PROD))
    rng = random.Random(0)
    for _ in range(10**4):
        x = rng.randrange(-(10**12), 10**12)
        y = rng.randrange(-(10**12), 10**12)
        assert add(x, y) == (x + y) % p
        assert sub(x, y) == (x - y) % p
        assert mul(x, y) == (x * y) % p
        assert sub(0, x) == (-x) % p
        assert ring.normalize(x) == x % p


def test_field_inverse_exhaustive():
    for p in (3, 5, 7, 11, 101):
        ring = AmbientRing.prime_field(p)
        mul, ratio = _scalar_op(PROD, ring), _scalar_op(RATIO, ring)
        for x in range(1, p):
            assert mul(x, ratio(1, x)) == 1


def test_magnitude_cap_fires():
    ring = AmbientRing.integers(magnitude_cap=100)

    def size(op, a, b):
        return pairwise_size(op, FiniteSet.from_iterable(ring, [a]), FiniteSet.from_iterable(ring, [b]))

    assert size(PROD, 10, 10) == 1
    with pytest.raises(CapExceededError):
        size(PROD, 11, 10)
    with pytest.raises(CapExceededError):
        size(SUM, -90, -20)
    with pytest.raises(CapExceededError):
        ring.normalize(101)


def test_normalize_fractions():
    z = AmbientRing.integers()
    f = Fraction(3, 7)
    assert z.normalize(f) is f
    with pytest.raises(TypeError):
        AmbientRing.prime_field(7).normalize(f)


def test_json_round_trip():
    for ring in (AmbientRing.integers(), AmbientRing.prime_field(101)):
        assert AmbientRing.from_json_dict(ring.to_json_dict()) == ring


@given(st.integers(min_value=-(2**64), max_value=2**64),
       st.integers(min_value=-(2**64), max_value=2**64))
def test_field_ops_property(x, y):
    p = 2**31 - 1
    ring = AmbientRing.prime_field(p)
    add, sub, mul, ratio = (_scalar_op(op, ring) for op in (SUM, DIFF, PROD, RATIO))
    assert sub(add(x, y), y) == x % p
    if x % p != 0:
        assert mul(mul(x, y), ratio(1, x)) == y % p


def test_default_cap_allows_512_bits():
    ring = AmbientRing.integers()
    assert ring.normalize(DEFAULT_MAGNITUDE_CAP) == DEFAULT_MAGNITUDE_CAP
    top, two = (FiniteSet.from_iterable(ring, [x]) for x in (DEFAULT_MAGNITUDE_CAP, 2))
    with pytest.raises(CapExceededError):
        pairwise_size(PROD, top, two)


_S = FiniteSet.from_iterable(AmbientRing.integers(), [1, 2, 3])


@pytest.mark.parametrize(
    "call",
    [
        lambda mode: CubeSpec(ring=AmbientRing.integers(), a0=1, generators=(2,), mode=mode),
        lambda mode: energy_pair(mode, _S),
        lambda mode: energy_k(mode, _S, 2),
        lambda mode: energy_tk(mode, _S, 2),
        lambda mode: correlation(mode, [_S, _S]),
        lambda mode: olmezov_sides(_S, _S, _S, 2, 1, 1, mode),
    ],
    ids=["CubeSpec", "energy_pair", "energy_k", "energy_tk", "correlation", "olmezov_sides"],
)
@pytest.mark.parametrize("mode", ["bogus", ["additive"]])
def test_unknown_mode_is_a_value_error(call, mode):
    with pytest.raises(ValueError, match="unknown mode"):
        call(mode)


_F = FiniteSet.from_iterable(AmbientRing.prime_field(7), [1, 2, 3])


@pytest.mark.parametrize(
    "call",
    [
        lambda: pairwise_size(SUM, _S, _F),
        lambda: correlation(ADDITIVE, [_S, _F]),
        lambda: olmezov_sides(_S, _S, _F, 2, 1, 1),
        lambda: energy_pair(ADDITIVE, _S, _F),
        lambda: gmr_check([_S, _S, _F]),
    ],
    ids=["pairwise_size", "correlation", "olmezov_sides", "energy_pair", "gmr_check"],
)
def test_mixed_rings_are_a_value_error(call):
    with pytest.raises(ValueError, match="operands live in different rings"):
        call()


_SCHEMA = {"a": [(int, bool)], "b?": {str: float}, "c?": str}


def test_check_accepts_the_schema_and_ignores_unknown_keys():
    value = {"a": [[1, True], [-2, False]], "b": {"x": 1, "y": 0.5}, "extra": None}
    assert _check(value, _SCHEMA, "doc") is value
    assert _check({"a": []}, _SCHEMA, "doc") == {"a": []}


@pytest.mark.parametrize(
    "value, message",
    [
        ([], "doc: expected a JSON object, got []"),
        ({"b": {}}, "doc lacks a"),
        ({"a": {}}, "doc: a: expected an array, got {}"),
        ({"a": [[1]]}, "doc: a entry 0: expected an array of 2 entries, got [1]"),
        ({"a": [[1, True], [1, 1]]}, "doc: a entry 1 entry 1: expected true or false, got 1"),
        ({"a": [[True, True]]}, "doc: a entry 0 entry 0: expected an integer, got True"),
        ({"a": [[1.0, True]]}, "doc: a entry 0 entry 0: expected an integer, got 1.0"),
        ({"a": [], "b": {"x": False}}, "doc: b: x: expected a number, got False"),
        ({"a": [], "b": {"x": "1"}}, "doc: b: x: expected a number, got '1'"),
        ({"a": [], "c": None}, "doc: c: expected a string, got None"),
    ],
)
def test_check_names_the_path_of_a_mismatch(value, message):
    with pytest.raises(ValueError) as info:
        _check(value, _SCHEMA, "doc")
    assert str(info.value) == message
