"""Energy computations: dual-route identities, bounded-composition counts,
closed forms for non-interacting cubes, and the exponent bounds."""

import math
from collections import Counter
from fractions import Fraction
from itertools import product
from operator import add, mul
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelab import energy
from cubelab.cube import ADDITIVE, MULTIPLICATIVE, CubeSpec, FiniteSet
from cubelab.energy import (
    _brute_pair_energy,
    cube_energy_bounds,
    ek_closed_form,
    energy_k,
    energy_pair,
    energy_tk,
    partition_count,
    tk_closed_form,
)
from cubelab.numeric import AmbientRing, CapExceededError
from cubelab.setops import DIFF, iterate_prod, pairwise_set

Z = AmbientRing.integers()
F13 = AmbientRing.prime_field(13)
F101 = AmbientRing.prime_field(101)

Q0145 = FiniteSet.from_iterable(Z, [0, 1, 4, 5])


def partition_count_by_enumeration(k: int, h: int, m: int) -> int:
    """partition_count by walking all (h+1)^k digit tuples; its independent oracle."""
    return sum(1 for t in product(range(h + 1), repeat=k) if sum(t) == m)


def test_partition_formula_matches_enumeration():
    for k in range(1, 7):
        for h in range(1, 5):
            for m in range(-1, k * h + 3):
                assert partition_count(k, h, m) == partition_count_by_enumeration(k, h, m)


def test_partition_special_values():
    # Height 1 compositions are plain binomials.
    for k in range(1, 8):
        for m in range(k + 1):
            assert partition_count(k, 1, m) == math.comb(k, m)
    assert partition_count(2, 2, 2) == 3  # 0+2, 1+1, 2+0
    for k in range(1, 6):
        for h in range(1, 4):
            assert sum(partition_count(k, h, m) for m in range(k * h + 1)) == (h + 1) ** k


def test_pair_energy_frozen():
    report = energy_pair(ADDITIVE, Q0145)
    assert report.value == 36
    assert report.kind == "eplus"


def test_k_energy_frozen():
    assert energy_k(ADDITIVE, Q0145, 2).value == 36
    assert energy_k(ADDITIVE, Q0145, 3).value == 100


def test_tk_frozen():
    H = FiniteSet.from_iterable(Z, [0, 1, 2])
    assert energy_tk(ADDITIVE, H, 1).value == 3
    assert energy_tk(ADDITIVE, H, 2).value == 19


def test_e2_equals_pair_energy():
    rng = random.Random(11)
    for _ in range(20):
        A = FiniteSet.from_iterable(Z, (rng.randint(-25, 25) for _ in range(rng.randint(2, 15))))
        assert energy_k(ADDITIVE, A, 2).value == energy_pair(ADDITIVE, A).value
        assert energy_tk(ADDITIVE, A, 2).value == energy_pair(ADDITIVE, A).value


def test_multiplicative_energy_with_zero():
    # 0 in the set forces the product route; r(0) = 2|A| - 1.
    report = energy_pair(MULTIPLICATIVE, Q0145)
    assert report.value >= (2 * len(Q0145) - 1) ** 2
    with pytest.raises(ValueError):
        energy_k(MULTIPLICATIVE, Q0145, 2)


def test_multiplicative_energy_routes_agree():
    A = FiniteSet.from_iterable(Z, [1, 2, 3, 4, 6, 12])
    report = energy_pair(MULTIPLICATIVE, A)
    assert report.value == energy_k(MULTIPLICATIVE, A, 2).value
    assert report.value == energy_tk(MULTIPLICATIVE, A, 2).value


def test_tk_checks_the_magnitude_cap_once_per_step():
    # 13^3 passes the cap of 1000, so T_3 raises as Q^(3) and E^x of Q^(2) do.
    tight = AmbientRing.integers(magnitude_cap=1000)
    A = FiniteSet.from_iterable(tight, [7, 9, 11, 13])
    r = Counter(math.prod(t) for t in product(A.elements, repeat=2))
    assert energy_tk(MULTIPLICATIVE, A, 2).value == sum(c * c for c in r.values())
    for k in (3, 5):
        with pytest.raises(CapExceededError):
            energy_tk(MULTIPLICATIVE, A, k)
    with pytest.raises(CapExceededError):
        iterate_prod(A, 3)
    with pytest.raises(CapExceededError):
        energy_pair(MULTIPLICATIVE, iterate_prod(A, 2))
    # The bound is the largest value itself: 10 * 100 sits on the cap.
    ten = FiniteSet.from_iterable(tight, [-10, 10])
    assert energy_tk(MULTIPLICATIVE, ten, 3).value == 32
    assert energy_tk(ADDITIVE, ten, 100).value == math.comb(200, 100)
    with pytest.raises(CapExceededError):
        energy_tk(MULTIPLICATIVE, ten, 4)
    with pytest.raises(CapExceededError):
        energy_tk(ADDITIVE, ten, 101)


def test_energy_over_prime_field():
    # The brute-force oracle in both modes, against a sum of squares of
    # Counter(a op b mod p), with 0 in neither set, in A, in B and in both:
    # a1 b1 = 0 b2 holds for every b2 when a1 b1 = 0.
    for ring, xs, ys in ((F13, [1, 2, 3, 5, 8], [4, 7, 11]), (F101, [3, 17, 42, 64, 99, 100], [2, 5, 50, 77, 81])):
        p = ring.modulus
        for zero_in_a, zero_in_b in product((False, True), repeat=2):
            A = FiniteSet.from_iterable(ring, [0] * zero_in_a + xs)
            B = FiniteSet.from_iterable(ring, [0] * zero_in_b + ys)
            for mode, op in ((ADDITIVE, add), (MULTIPLICATIVE, mul)):
                r = Counter(op(a, b) % p for a in A.elements for b in B.elements)
                expect = sum(c * c for c in r.values())
                assert _brute_pair_energy(mode, A, B) == expect, (p, mode, A.elements, B.elements)
                assert energy_pair(mode, A, B).value == expect


def test_multiplicative_tk_over_prime_field_counts_k_tuples():
    # T_k over F_p multiplies residues: the F_p loop of the product convolution.
    A = FiniteSet.from_iterable(F13, [0, 1, 2, 5, 7])
    for k, expect in [(1, 5), (2, 117), (3, 4171)]:
        r = Counter(math.prod(t) % 13 for t in product(A.elements, repeat=k))
        assert energy_tk(MULTIPLICATIVE, A, k).value == sum(c * c for c in r.values()) == expect


def test_bad_k_rejected():
    with pytest.raises(ValueError):
        energy_k(ADDITIVE, Q0145, 1)
    with pytest.raises(ValueError):
        energy_tk(ADDITIVE, Q0145, 0)


def test_huge_k_is_refused_before_counting(monkeypatch):
    # E_k and T_k are at least |A|^k, refused past 14000 bits; T_k also past
    # k = 14000, as it folds in k - 1 steps.  A singleton's E_k is 1.
    one, two, three = (FiniteSet.from_iterable(Z, xs) for xs in ([0], [0, 1], [0, 1, 5]))
    r = Counter(a - b for a in three for b in three)
    assert energy_k(ADDITIVE, three, 8833).value == sum(c**8833 for c in r.values())  # 3^8833 < 2^14000
    assert energy_k(ADDITIVE, one, 10**8).value == 1
    assert energy_tk(ADDITIVE, one, 14000).value == 1

    def no_fold(*args):
        raise AssertionError("T_k folded before its caps were checked")

    monkeypatch.setattr(energy, "_fold_counts", no_fold)
    for A, k in ((one, 14001), (one, 10**8), (two, 14001), (three, 8834)):
        with pytest.raises(CapExceededError, match="exceeds"):
            energy_tk(ADDITIVE, A, k)
    for A, k in ((two, 14001), (three, 8834), (three, 10**5)):
        with pytest.raises(CapExceededError, match="bits"):
            energy_k(ADDITIVE, A, k)


def _power_cube(base, d, h=1):
    return CubeSpec(
        ring=Z, a0=0, generators=tuple(base**j for j in range(d)), digits=tuple(range(h + 1))
    )


def test_closed_forms_match_measured_energies():
    # Base 10 keeps digit sums independent for every k, h tried here.
    for d, k, h in [(2, 2, 1), (3, 3, 1), (2, 2, 2), (2, 3, 2)]:
        from cubelab.cube import enumerate_cube

        q_set = enumerate_cube(_power_cube(10, d, h))
        assert energy_tk(ADDITIVE, q_set, k).value == tk_closed_form(k, h, d)
        assert energy_k(ADDITIVE, q_set, k).value == ek_closed_form(k, h, d)


def test_closed_form_values():
    assert tk_closed_form(2, 1, 2) == 36
    assert tk_closed_form(3, 1, 3) == 8000  # (1 + 9 + 9 + 1)^3
    assert ek_closed_form(3, 1, 2) == 100  # (2^3 + 2)^2
    assert ek_closed_form(2, 2, 1) == 19


def test_power_mean_inequality():
    # sum r^k * |A-A|^(k-1) >= |A|^(2k), an exact integer comparison.
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 20)
        A = FiniteSet.from_iterable(Z, (rng.randint(-50, 50) for _ in range(n)))
        diff = pairwise_set(DIFF, A, A)
        for k in (2, 3, 4):
            ek = energy_k(ADDITIVE, A, k).value
            assert ek * len(diff) ** (k - 1) >= len(A) ** (2 * k)


def test_cube_energy_bounds_small():
    spec = _power_cube(10, 2)
    bounds = cube_energy_bounds(spec, 2)
    assert bounds.q_size == 4
    assert bounds.kq_upper == pytest.approx(4 ** math.log2(3), rel=1e-9)
    assert bounds.tk_floor == pytest.approx(32.0, rel=1e-9)
    assert bounds.ek_floor == pytest.approx(4**2.25, rel=1e-9)
    assert bounds.tk_closed_form == 36
    # The measured energies clear their floors.
    from cubelab.cube import enumerate_cube

    q_set = enumerate_cube(spec)
    assert energy_tk(ADDITIVE, q_set, 2).value >= bounds.tk_floor
    assert energy_k(ADDITIVE, q_set, 2).value >= bounds.ek_floor
    assert energy_k(ADDITIVE, q_set, 2).value >= bounds.energy_h_floor


def test_cube_energy_bounds_height_two_has_no_h1_floors():
    bounds = cube_energy_bounds(_power_cube(10, 2, h=2), 2)
    assert bounds.tk_floor is None and bounds.ek_floor is None
    assert bounds.energy_h_floor > 0


def test_cube_energy_bounds_rejections():
    with pytest.raises(ValueError):
        cube_energy_bounds(_power_cube(10, 2), 1)
    with pytest.raises(ValueError):
        cube_energy_bounds(
            CubeSpec(ring=Z, a0=1, generators=(2, 3), mode=MULTIPLICATIVE), 2
        )
    with pytest.raises(ValueError):
        cube_energy_bounds(
            CubeSpec(ring=Z, a0=0, generators=(1, 9), digits=(0, 2, 3)), 2
        )
    # q^(2k - 1 - log2(k)/2) and the other bounds pass the float range.
    for d, k in ((2, 10**5), (10, 400)):
        with pytest.raises(CapExceededError, match="float range"):
            cube_energy_bounds(_power_cube(3, d), k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=2, max_size=12),
    st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6), max_size=6),
)
def test_dual_routes_never_disagree(xs, fs):
    # energy_pair raises internally if any route disagrees.
    A = FiniteSet.from_iterable(Z, xs)
    energy_pair(ADDITIVE, A)
    energy_pair(MULTIPLICATIVE, A)
    for values in (fs, xs + fs, [Fraction(1, 2), 3]):
        Aq = FiniteSet.from_iterable(Z, values)
        energy_pair(ADDITIVE, Aq)
        energy_pair(MULTIPLICATIVE, Aq)
    Af = FiniteSet.from_iterable(F101, xs)
    energy_pair(ADDITIVE, Af)
    energy_pair(MULTIPLICATIVE, Af)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=-60, max_value=60), min_size=2, max_size=10),
    st.integers(min_value=2, max_value=4),
)
def test_k_energy_monotone_in_k(xs, k):
    # r >= 1 on the support, so E_{k+1} >= E_k always.
    A = FiniteSet.from_iterable(Z, xs)
    assert energy_k(ADDITIVE, A, k + 1).value >= energy_k(ADDITIVE, A, k).value
