"""Cube enumeration, properness, subcubes, symmetry, and balanced splits."""

import json
import math
import subprocess
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelab.cube import (
    ADDITIVE,
    MULTIPLICATIVE,
    CubeSpec,
    FiniteSet,
    enumerate_cube,
    is_proper,
    is_symmetric,
    split_balanced,
    subcube,
    symmetry_witness,
)
from cubelab.numeric import AmbientRing, CapExceededError

Z = AmbientRing.integers()
F13 = AmbientRing.prime_field(13)


def cube(gens, digits=(0, 1), a0=0, ring=Z, mode=ADDITIVE):
    return CubeSpec(ring=ring, a0=a0, generators=tuple(gens), digits=digits, mode=mode)


def test_binary_cube_enumeration():
    q = enumerate_cube(cube([1, 4]))
    assert q.elements == (0, 1, 4, 5)
    assert is_proper(cube([1, 4]))


def test_improper_cube_collapses():
    # 1 + 3 == 4 forces a collision at digit vectors (1,1,0) and (0,0,1).
    spec = cube([1, 3, 4])
    assert len(enumerate_cube(spec)) == 7 < 8
    assert not is_proper(spec)


def test_powers_cube_is_proper():
    spec = cube([3**j for j in range(6)], digits=(0, 1, 2))
    assert is_proper(spec)
    assert len(enumerate_cube(spec)) == 3**6


def test_multiplicative_cube():
    spec = cube([2, 3], a0=1, mode=MULTIPLICATIVE)
    assert enumerate_cube(spec).elements == (1, 2, 3, 6)
    assert is_proper(spec)
    collide = cube([2, 2], a0=1, mode=MULTIPLICATIVE)
    assert enumerate_cube(collide).elements == (1, 2, 4)
    assert not is_proper(collide)


def test_cube_over_prime_field_wraps():
    spec = cube([1, 4], ring=F13, a0=10)
    assert enumerate_cube(spec).elements == (1, 2, 10, 11)


def test_spec_validation():
    with pytest.raises(ValueError):
        cube([1, 4], digits=(1, 2))  # 0 missing
    with pytest.raises(ValueError):
        cube([1, 4], digits=(0,))
    with pytest.raises(ValueError):
        cube([0, 4])
    with pytest.raises(ValueError):
        cube([2, 3], a0=0, mode=MULTIPLICATIVE)
    with pytest.raises(ValueError, match="generators must be nonzero"):
        cube([2, 0], a0=1, mode=MULTIPLICATIVE)
    with pytest.raises(ValueError, match="strictly increasing"):
        FiniteSet(Z, (4, 1))
    with pytest.raises(ValueError):
        cube([2, 3], a0=1, digits=(0, 1, 2), mode=MULTIPLICATIVE)


def test_digits_are_canonicalized():
    spec = cube([5], digits=(1, 0, 1, 2))
    assert spec.digits == (0, 1, 2)
    assert spec.height == 2
    assert spec.has_interval_digits
    assert not cube([5], digits=(0, 2)).has_interval_digits


def test_subcube_recombination():
    # Q(X) + Q(Y) - a0 must reproduce Q exactly (both subcubes carry a0).
    spec = cube([1, 3, 9, 27], digits=(0, 1, 2), a0=5)
    full = set(enumerate_cube(spec).elements)
    qx = enumerate_cube(subcube(spec, [0, 2])).elements
    qy = enumerate_cube(subcube(spec, [1, 3])).elements
    assert {x + y - 5 for x in qx for y in qy} == full


def test_subcube_empty_and_bad_indices():
    spec = cube([1, 4])
    assert enumerate_cube(subcube(spec, [])).elements == (0,)
    with pytest.raises(ValueError):
        subcube(spec, [2])


def test_symmetry_small_witness():
    # h = 1, gens 1 and 4: reflection point is 1 + 4 = 5.
    spec = cube([1, 4])
    assert symmetry_witness(spec) == 5
    assert is_symmetric(spec)


def test_symmetry_height_two():
    spec = cube([1, 3], digits=(0, 1, 2))
    assert symmetry_witness(spec) == 8
    assert is_symmetric(spec)


def test_symmetry_rejects_missing_digits():
    with pytest.raises(ValueError):
        symmetry_witness(cube([1, 9], digits=(0, 2, 3)))
    with pytest.raises(ValueError):
        symmetry_witness(cube([2, 3], a0=1, mode=MULTIPLICATIVE))


def test_split_sandwich_decimal_cube():
    spec = cube([1, 10, 100])
    xs, ys = split_balanced(spec)
    sx = len(enumerate_cube(subcube(spec, xs)))
    sy = len(enumerate_cube(subcube(spec, ys)))
    assert set(xs) | set(ys) == {0, 1, 2} and not set(xs) & set(ys)
    assert sx <= sy <= 2 * sx
    assert (sx, sy) == (2, 4)


def test_split_sandwich_with_collisions():
    # Heavily improper: all generators equal.
    spec = cube([7] * 6)
    xs, ys = split_balanced(spec)
    sx = len(enumerate_cube(subcube(spec, xs)))
    sy = len(enumerate_cube(subcube(spec, ys)))
    assert sx <= sy <= 2 * sx


def test_json_round_trip():
    for spec in (
        cube([1, 4]),
        cube([1, 3], digits=(0, 1, 2), a0=-2),
        cube([2, 3], a0=1, mode=MULTIPLICATIVE),
        cube([1, 4], ring=F13, a0=5),
    ):
        assert CubeSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict()))) == spec


def test_enum_cap():
    with pytest.raises(CapExceededError):
        enumerate_cube(cube([1, 2, 3]), cap=7)
    tight = AmbientRing.integers(magnitude_cap=10)
    with pytest.raises(CapExceededError):
        enumerate_cube(CubeSpec(ring=tight, a0=0, generators=(9, 9), digits=(0, 1)))
    # The magnitude bound is the worst case |a0| + 4 * 123 > 500, though every
    # value fits; split_balanced grows its sides by the same step.
    capped = CubeSpec(ring=AmbientRing.integers(magnitude_cap=500), a0=-15, generators=(123,), digits=(0, 4))
    with pytest.raises(CapExceededError):
        enumerate_cube(capped)
    with pytest.raises(CapExceededError):
        split_balanced(capped)
    # Its subcubes may hold 2^2 = 4 values, past a cap of 3.
    with pytest.raises(CapExceededError):
        split_balanced(cube([1, 10]), cap=3)


def test_split_balance_check_survives_python_O():
    # A _grow that makes each side ten times larger unbalances the split.  The
    # check is a raise, not an assert, so python -O runs it too.
    code = ("from cubelab import cube; from cubelab.numeric import AmbientRing; "
            "cube._grow = lambda spec, values, g: values | set(range(len(values) * 10)); "
            "cube.split_balanced(cube.CubeSpec(AmbientRing.integers(), 0, (1, 2, 3), (0, 1)))")
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.strip().endswith("AssertionError: greedy split lost its balance")


def test_finite_set_lines_round_trip():
    s = FiniteSet.from_iterable(Z, [5, -3, 0, 5])
    assert s.elements == (-3, 0, 5)
    assert FiniteSet.from_lines(Z, s.to_lines()) == s
    parsed = FiniteSet.from_lines(Z, "1\n# comment\n3/2\n  \n-7  # tail\n")
    assert [str(x) for x in parsed.elements] == ["-7", "1", "3/2"]


F17 = AmbientRing.prime_field(17)


@st.composite
def small_cubes(draw, general=True):
    """Cubes of dimension 1-5: additive interval cubes over Z with positive
    generators, and with general also multiplicative cubes, cubes over F_17,
    negative generators and missing-digit sets."""
    d = draw(st.integers(min_value=1, max_value=5))
    if not general:
        gens = draw(st.lists(st.integers(min_value=1, max_value=50), min_size=d, max_size=d))
        h = draw(st.integers(min_value=1, max_value=3))
        a0 = draw(st.integers(min_value=-20, max_value=20))
        return cube(gens, digits=tuple(range(h + 1)), a0=a0)
    ring = draw(st.sampled_from([Z, F17]))
    nonzero = st.integers(min_value=-50, max_value=50).filter(lambda g: g % 17 if ring.is_field else g)
    gens = draw(st.lists(nonzero, min_size=d, max_size=d))
    if draw(st.booleans()):
        return cube(gens, a0=draw(nonzero), ring=ring, mode=MULTIPLICATIVE)
    digits = draw(st.sets(st.integers(min_value=1, max_value=4), min_size=1)) | {0}
    return cube(gens, digits=tuple(digits), a0=draw(st.integers(min_value=-20, max_value=20)), ring=ring)


def _digit_vector_values(spec):
    """The cube's value set by a walk over all |D|^d digit vectors."""
    p = spec.ring.modulus
    values = set()
    for eps in product(spec.digits, repeat=spec.dimension):
        if spec.mode == ADDITIVE:
            v = spec.a0 + sum(e * g for e, g in zip(eps, spec.generators))
        else:
            v = spec.a0 * math.prod(g**e for e, g in zip(eps, spec.generators))
        values.add(v if p is None else v % p)
    return values


@settings(max_examples=300, deadline=None)
@given(small_cubes())
def test_enumeration_matches_digit_vectors(spec):
    values = _digit_vector_values(spec)
    assert enumerate_cube(spec).elements == tuple(sorted(values))
    assert is_proper(spec) == (len(values) == len(spec.digits) ** spec.dimension)


@settings(max_examples=150, deadline=None)
@given(small_cubes(general=False))
def test_size_between_trivial_bounds(spec):
    q = len(enumerate_cube(spec))
    assert q <= len(spec.digits) ** spec.dimension
    # One nonzero generator already attains |D| distinct values over Z.
    assert q >= len(spec.digits)


@settings(max_examples=100, deadline=None)
@given(small_cubes(general=False))
def test_interval_cubes_always_symmetric(spec):
    assert is_symmetric(spec)


@settings(max_examples=200, deadline=None)
@given(small_cubes())
def test_split_sandwich_property(spec):
    xs, ys = split_balanced(spec)
    assert sorted(xs + ys) == list(range(spec.dimension))
    sx = len(enumerate_cube(subcube(spec, xs)))
    sy = len(enumerate_cube(subcube(spec, ys)))
    assert sx <= sy <= len(spec.digits) * sx
