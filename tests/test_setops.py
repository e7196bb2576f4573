"""Pairwise operations with multiplicities, iterated sums/products, and
higher correlations, checked against brute-force recounts."""

import math
import operator
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelab import experiments, setops
from cubelab.cube import ADDITIVE, MULTIPLICATIVE, CubeSpec, FiniteSet, enumerate_cube
from cubelab.energy import energy_tk, partition_count
from cubelab.numeric import AmbientRing, CapExceededError, mode_ops
from cubelab.setops import (
    _FINGERPRINT_PRIMES,
    _LANE_MIN_PAIRS,
    DEFAULT_PAIR_CAP,
    DIFF,
    PROD,
    RATIO,
    SUM,
    correlation,
    iterate_prod,
    iterate_sum,
    pairwise,
    pairwise_set,
    pairwise_size,
)
from routes import HAVE_NUMPY, counting_route

Z = AmbientRing.integers()
F13 = AmbientRing.prime_field(13)


def zset(*values):
    return FiniteSet.from_iterable(Z, values)


Q0145 = zset(0, 1, 4, 5)


def test_sumset_of_binary_cube():
    support, r = pairwise(SUM, Q0145, Q0145)
    assert support.elements == (0, 1, 2, 4, 5, 6, 8, 9, 10)
    assert r[5] == 4  # 0+5, 1+4, 4+1, 5+0
    assert r[0] == 1
    assert r.mass() == 16


def test_product_set_of_binary_cube():
    support, r = pairwise(PROD, Q0145, Q0145)
    assert support.elements == (0, 1, 4, 5, 16, 20, 25)
    assert r[0] == 7  # row a=0 plus column b=0, (0,0) once
    assert r[20] == 2
    assert r.mass() == 16


def test_difference_counts_are_symmetric():
    _, r = pairwise(DIFF, Q0145, Q0145)
    for x, c in r.items():
        assert r[-x] == c
    assert r[0] == 4


def test_ratio_over_integers():
    A = zset(1, 2, 4)
    support, r = pairwise(RATIO, A, A)
    assert support.elements == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
        Fraction(2),
        Fraction(4),
    )
    assert r[Fraction(1, 2)] == 2  # 1/2 and 2/4
    assert r.mass() == 9


def test_ratio_skips_zero_denominators():
    A = zset(0, 1, 2)
    support, r = pairwise(RATIO, A, A)
    assert support.elements == (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    assert r.mass() == len(A) * 2
    B = FiniteSet.from_iterable(F13, [0, 1, 2])
    _, rf = pairwise(RATIO, B, B)
    assert rf.mass() == len(B) * 2


def test_mass_conservation():
    A = zset(3, 7, 10, 11)
    B = zset(-2, 0, 5)
    for op in (SUM, DIFF, PROD):
        _, r = pairwise(op, A, B)
        assert r.mass() == len(A) * len(B)
    _, r = pairwise(RATIO, A, B)
    assert r.mass() == len(A) * 2


def test_prime_field_wraparound():
    A = FiniteSet.from_iterable(F13, [11, 12])
    support, r = pairwise(SUM, A, A)
    assert support.elements == (9, 10, 11)
    assert r[10] == 2  # 11+12 both ways


def _random_set(rng, ring, n, lo=-40, hi=40, fractions=0.0):
    """n draws from [lo, hi]; each becomes a Fraction v/k with probability
    `fractions` (so a set may hold ints, Fractions, or both)."""
    if ring.kind == "prime_field":
        lo, hi = 0, ring.modulus - 1
    values = [rng.randint(lo, hi) for _ in range(n)]
    values = [Fraction(v, rng.randint(2, 9)) if rng.random() < fractions else v for v in values]
    return FiniteSet.from_iterable(ring, values)


def _scalar(op, p=None):
    """a op b by plain arithmetic (a ratio a Fraction over Z), mod p if given."""
    if op == RATIO:
        return Fraction if p is None else lambda a, b: a * pow(b, -1, p) % p
    arith = {SUM: operator.add, DIFF: operator.sub, PROD: operator.mul}[op]
    return arith if p is None else lambda a, b: arith(a, b) % p


def _brute_force_counts(op, A, B):
    """r(x) by a plain double loop: the oracle for pairwise, pairwise_set
    and pairwise_size, which share one kernel."""
    value = _scalar(op, A.ring.modulus)
    return Counter(value(a, b) for a in A.elements for b in B.elements if op != RATIO or b)


def _assert_matches_oracle(A, B):
    for op in (SUM, DIFF, PROD, RATIO):
        for X, Y in ((A, B), (A, A)):
            expect = _brute_force_counts(op, X, Y)
            support, r = pairwise(op, X, Y)
            assert dict(r.items()) == expect, (op, X.elements, Y.elements)
            assert support.elements == tuple(sorted(expect))
            assert pairwise_set(op, X, Y) == support
            assert pairwise_size(op, X, Y) == len(expect), (op, X.elements, Y.elements)


# pairwise_size's lane threshold: the default, where these small sets take
# the Python route, and 0, where every int set takes the numpy lane.
_THRESHOLDS = pytest.mark.parametrize("force", [None, "lane"], ids=["default_threshold", "lane_from_0"])


@_THRESHOLDS
def test_fast_paths_agree_with_counting(force):
    # Ints over Z and F_13, then Fraction-only and mixed int/Fraction sets
    # over Z; the draws hold negatives and, now and then, 0.
    rng = random.Random(42)
    kinds = [(Z, 0.0), (F13, 0.0), (Z, 1.0), (Z, 0.5)]
    with counting_route(force) as ran:
        for trial in range(120):
            ring, fractions = kinds[trial % len(kinds)]
            A = _random_set(rng, ring, rng.randint(1, 12), fractions=fractions)
            B = _random_set(rng, ring, rng.randint(1, 12), fractions=fractions)
            _assert_matches_oracle(A, B)
        _assert_matches_oracle(zset(0, -3, Fraction(1, 2), Fraction(-7, 3), 5), zset(0, Fraction(-2, 5), 4))
        _assert_matches_oracle(zset(Fraction(-1, 2), Fraction(0), Fraction(3)), zset(0))
    assert ran["_python_power_sum"] and bool(ran["_lane_power_sum"]) == (HAVE_NUMPY and force == "lane")


@_THRESHOLDS
def test_size_shortcuts_on_one_sided_sets(force):
    # Same-operand sets whose nonzero elements share a sign count half the
    # pairs for RATIO, and all of A x A when they hold both signs; DIFF
    # always counts half.
    rng = random.Random(7)
    probes = [
        zset(),
        zset(3),
        zset(0),
        zset(1, 2),
        zset(*range(1, 15)),
        zset(*(rng.randint(1, 10**9) for _ in range(25))),
        zset(0, *(rng.randint(1, 50) for _ in range(12))),
        zset(*(rng.randint(-50, -1) for _ in range(12))),
        zset(0, *(rng.randint(-50, -1) for _ in range(12))),
        zset(*(rng.randint(-50, 50) for _ in range(12))),
        zset(*(Fraction(rng.randint(1, 30), rng.randint(1, 7)) for _ in range(12))),
    ]
    with counting_route(force) as ran:
        for A in probes:
            for op in (RATIO, DIFF):
                assert pairwise_size(op, A, A) == len(_brute_force_counts(op, A, A)), (op, A.elements)
    assert ran["_python_power_sum"] and bool(ran["_lane_power_sum"]) == (HAVE_NUMPY and force == "lane")


def test_pair_cap_raises():
    A = zset(*range(10))
    with pytest.raises(CapExceededError):
        pairwise(SUM, A, A, cap=99)
    with pytest.raises(CapExceededError):
        pairwise_size(RATIO, A, A, cap=99)
    # The op is checked with the cap, before any pair is formed.
    with pytest.raises(ValueError, match="unknown pairwise op"):
        pairwise("pow", A, A)


def test_magnitude_cap_in_products():
    tight = AmbientRing.integers(magnitude_cap=1000)
    A = FiniteSet.from_iterable(tight, [30, 40])
    with pytest.raises(CapExceededError):
        pairwise(PROD, A, A)


def _cube(gens, digits=(0, 1), a0=0):
    return CubeSpec(ring=Z, a0=a0, generators=tuple(gens), digits=digits)


def test_iterated_sum_frozen_counts():
    # Q = {0,1,3,4}; 4 = 0+4 = 4+0 = 1+3 = 3+1.
    kq, r = iterate_sum(_cube([1, 3]), 2)
    assert kq.elements == (0, 1, 2, 3, 4, 5, 6, 7, 8)
    assert r[4] == 4
    assert r.mass() == 16


def test_iterated_sum_matches_repeated_pairwise():
    # Each cube on the count map (the lane threshold lowered to 0) and on the
    # oracle's steps (numpy hidden).  The last cube is not proper, and its
    # 207^2 k-tuples pass _LANE_MIN_PAIRS.
    rng = random.Random(7)
    cases = []
    for _ in range(25):
        d = rng.randint(1, 4)
        spec = _cube(
            [rng.randint(1, 30) for _ in range(d)],
            digits=tuple(range(rng.randint(2, 4))),
            a0=rng.randint(-5, 5),
        )
        cases.append((spec, rng.randint(1, 3)))
    cases.append((_cube([1, 5, 11, 60, 200], digits=(0, 1, 2), a0=-7), 2))
    for spec, k in cases:
        base = enumerate_cube(spec)
        counts = Counter(base.elements)
        for _ in range(k - 1):
            counts = sum((Counter({x + b: c for x, c in counts.items()}) for b in base.elements), Counter())
        for force in ("lane", "python"):
            with counting_route(force) as ran:
                kq, r = iterate_sum(spec, k)
            assert dict(r.items()) == counts, (spec, k, force)
            assert set(kq.elements) == set(counts)
            assert ran == _steps(HAVE_NUMPY and force == "lane", k - 1), (spec, k, force)
    assert len(base) ** k >= _LANE_MIN_PAIRS


def test_iterated_sum_over_field():
    spec = CubeSpec(ring=F13, a0=0, generators=(1, 4), digits=(0, 1))
    kq, r = iterate_sum(spec, 3)
    assert r.mass() == 4**3
    assert all(0 <= x < 13 for x in kq.elements)


def test_type_bound_for_proper_cubes():
    # For a proper cube, r_kQ(x) is the sum over digit representations of
    # the product of bounded-composition counts; any single representation
    # is a lower bound, and a wide enough base leaves exactly one.
    for gens, digits, k in [
        ((1, 10, 100), (0, 1), 3),
        ((1, 9, 81), (0, 1, 2), 2),
        ((1, 5, 25), (0, 1), 2),
        ((1, 2, 4), (0, 1), 2),  # proper but too narrow for uniqueness
    ]:
        spec = _cube(gens, digits=digits)
        h = max(digits)
        _, r = iterate_sum(spec, k)
        base_wide = min(
            abs(gens[i + 1] // gens[i]) for i in range(len(gens) - 1)
        ) >= k * h + 1
        for cbar in iter_product(range(k * h + 1), repeat=len(gens)):
            x = sum(c * g for c, g in zip(cbar, gens))
            term = 1
            for c in cbar:
                term *= partition_count(k, h, c)
            if term == 0:
                continue
            assert r[x] >= term
            if base_wide:
                assert r[x] == term


def test_iterate_prod_powers_of_two():
    Q = zset(1, 2)
    assert iterate_prod(Q, 3).elements == (1, 2, 4, 8)
    assert iterate_prod(Q, 1) is Q


def test_iterate_prod_cap_carries_prefix():
    tight = AmbientRing.integers(magnitude_cap=100)
    Q = FiniteSet.from_iterable(tight, [2, 3, 5])
    with pytest.raises(CapExceededError) as exc_info:
        iterate_prod(Q, 9)
    # Q^(2) tops out at 25; Q^(3) would reach 125.
    assert exc_info.value.largest_n == 2
    assert exc_info.value.sizes == [3, 6]


def _pairwise_powers(Q, cap):
    """The oracle of setops._product_powers: Q, Q^(2), ... as steps of
    pairwise_set(PROD, last, Q), which check both caps on each step."""
    power = Q
    while True:
        yield power
        power = pairwise_set(PROD, power, Q, cap=cap)


def _walked(walk, Q, cap, n_max):
    """The sorted values of Q^(1..n_max) along a walk, then its cap error's
    message if it raised one."""
    steps = []
    try:
        for _, power in zip(range(n_max), walk(Q, cap)):
            steps.append(sorted(power))
    except CapExceededError as exc:
        steps.append(str(exc))
    return steps


def _with_walk(walk, run):
    """run() with iterate_prod and conjecture_probe walking walk; an error
    it raises is returned."""
    saved = setops._product_powers
    setops._product_powers = experiments._product_powers = walk
    try:
        return run()
    except CapExceededError as exc:
        return exc
    finally:
        setops._product_powers = experiments._product_powers = saved


_POWER_RINGS = [Z, AmbientRing.integers(magnitude_cap=60), AmbientRing.integers(magnitude_cap=2000),
                AmbientRing.prime_field(3), AmbientRing.prime_field(5), AmbientRing.prime_field(10007)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product_powers_match_pairwise_steps(data):
    # The multiset sweep against the steps it replaced: the same values at
    # every n, and the same cap error at the same n, over Z (0, negatives,
    # Fractions, tight magnitude caps) and over F_3, F_5 and F_10007.
    ring = data.draw(st.sampled_from(_POWER_RINGS))
    p = ring.modulus
    values = data.draw(st.lists(st.integers(-12, 12) if p is None else st.integers(0, p - 1), max_size=9))
    if p is None and data.draw(st.booleans()):
        values += data.draw(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=3))
    Q = FiniteSet.from_iterable(ring, values)
    cap = data.draw(st.sampled_from([1, 12, 60, 400, DEFAULT_PAIR_CAP]))
    assert _walked(setops._product_powers, Q, cap, 6) == _walked(_pairwise_powers, Q, cap, 6)
    n = data.draw(st.integers(1, 6))
    got, expect = (_with_walk(walk, lambda: iterate_prod(Q, n, cap=cap))
                   for walk in (setops._product_powers, _pairwise_powers))
    if isinstance(expect, CapExceededError):
        assert (str(got), got.largest_n, got.sizes) == (str(expect), expect.largest_n, expect.sizes)
    else:
        assert got.elements == expect.elements and (n > 1 or got is Q)
    m = data.draw(st.integers(1, 4))
    got, expect = (_with_walk(walk, lambda: experiments.conjecture_probe(Q, m, 6, pair_cap=cap))
                   for walk in (setops._product_powers, _pairwise_powers))
    assert (got.measured, got.flag) == (expect.measured, expect.flag)


def test_correlation_arity_two_is_difference_count():
    A = zset(0, 1, 4, 5)
    B = zset(1, 2, 6)
    table = correlation(ADDITIVE, [A, B])
    _, r = pairwise(DIFF, B, A)
    for (x,), c in table.items():
        assert r[x] == c
    # Supports agree as well: every positive difference count shows up.
    assert {x for (x,), _ in table.items()} == {x for x, c in r.items() if c}


def test_correlation_frozen_triple():
    table = correlation(ADDITIVE, [Q0145, Q0145, Q0145])
    assert table.count((1, 4)) == 1  # only z = 0 has z, z+1, z+4 all inside
    assert table.count((1, 1)) == 2
    assert table.count((0, 0)) == 4


def test_correlation_explicit_shifts():
    table = correlation(ADDITIVE, [Q0145, Q0145], shifts=[(1,), (3,), (100,)])
    assert table.count((1,)) == 2
    assert table.count((3,)) == 1
    assert table.count((100,)) == 0
    with pytest.raises(ValueError):
        correlation(ADDITIVE, [Q0145, Q0145], shifts=[(1, 2)])


def test_correlation_multiplicative():
    A = zset(1, 2, 4, 8)
    table = correlation(MULTIPLICATIVE, [A, A])
    assert table.count((Fraction(2),)) == 3  # 1->2, 2->4, 4->8
    assert table.count((Fraction(1, 4),)) == 2
    both_zero = zset(0, 1)
    with pytest.raises(ValueError):
        correlation(MULTIPLICATIVE, [both_zero, both_zero])


def test_correlation_multiplicative_field():
    A = FiniteSet.from_iterable(F13, [1, 2, 4, 8])
    table = correlation(MULTIPLICATIVE, [A, A])
    assert table.count((2,)) == 3
    # Shift 7 wraps: 2*7 = 1, 4*7 = 2, 8*7 = 4, all back inside.
    assert table.count((7,)) == 3


def test_correlation_grid_cap():
    A = zset(*range(30))
    with pytest.raises(CapExceededError):
        correlation(ADDITIVE, [A, A, A], grid_cap=100)


def test_correlation_cap_edges():
    # 30 tuples per base point and 59 live shifts: both within the cap of
    # 100, although the walk visits 900 tuples in all.
    A = zset(*range(30))
    assert len(correlation(ADDITIVE, [A, A], grid_cap=100).table) == 59
    # 10 tuples per base point, but the table reaches 16 entries at z = 6.
    with pytest.raises(CapExceededError, match="table of 16 entries"):
        correlation(ADDITIVE, [zset(*range(10))] * 2, grid_cap=15)
    # The walk skips z = 0, which has no inverse, before its 200 tuples
    # could be counted against the cap.
    assert correlation(MULTIPLICATIVE, [zset(0), zset(*range(1, 201))], grid_cap=100).table == {}


_CORRELATION_RINGS = [Z, AmbientRing.integers(magnitude_cap=40), AmbientRing.prime_field(7), F13,
                      AmbientRing.prime_field(101)]


def _grid_oracle(mode, sets):
    """The nonzero counts at every point of the grid prod_i (A_{i+1} op^-1 A_1),
    each counted one by one with explicit shifts over uncapped Z (or F_p): a
    shift past the magnitude cap cannot land in a set anyway."""
    inverse = mode_ops(mode)[1]
    grid = iter_product(*(pairwise_set(inverse, s, sets[0]).elements for s in sets[1:]))
    if sets[0].ring.modulus is None:
        sets = [FiniteSet(Z, s.elements) for s in sets]
    table = correlation(mode, sets, shifts=list(grid)).table
    return {x: c for x, c in table.items() if c}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_correlation_walk_matches_the_grid(data):
    ring = data.draw(st.sampled_from(_CORRELATION_RINGS))
    mode = data.draw(st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
    arity = data.draw(st.integers(1, 3))
    hi = 40 if ring.modulus is None else ring.modulus - 1
    values = st.lists(st.integers(-hi if ring.modulus is None else 0, hi), max_size=6)
    sets = [set(data.draw(values)) for _ in range(arity + 1)]
    if data.draw(st.booleans()):
        sets[data.draw(st.integers(0, arity))].add(0)
    if data.draw(st.integers(0, 9)) == 0:
        sets = [s | {0} for s in sets]
    if ring.modulus is None and data.draw(st.booleans()):
        num, den = data.draw(st.integers(-9, 9)), data.draw(st.integers(2, 5))
        sets[data.draw(st.integers(0, arity))].add(Fraction(num, den))
    sets = [FiniteSet.from_iterable(ring, s) for s in sets]
    if mode == MULTIPLICATIVE and all(0 in s for s in sets):
        with pytest.raises(ValueError):
            correlation(mode, sets)
        return
    try:
        expect = _grid_oracle(mode, sets)
    except CapExceededError:
        # The grid's own magnitude check: the walk makes the same one up front.
        with pytest.raises(CapExceededError):
            correlation(mode, sets)
        return
    assert correlation(mode, sets).table == expect


def test_correlation_shifts_past_the_cap_are_probes():
    # The walk's points 40 and -40 shift -20 and 20 past the cap of 40,
    # where no element can lie: they count as the walk counts them.
    capped = AmbientRing.integers(magnitude_cap=40)
    A = FiniteSet.from_iterable(capped, [-20, 20])
    walk = correlation(ADDITIVE, [A, A]).table
    assert walk == {(-40,): 1, (0,): 2, (40,): 1}
    assert correlation(ADDITIVE, [A, A], shifts=list(walk)).table == walk


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_correlation_walk_points_passed_back_as_shifts(data):
    cap = data.draw(st.sampled_from([40, 200]))
    ring = AmbientRing.integers(magnitude_cap=cap)
    mode = data.draw(st.sampled_from([ADDITIVE, MULTIPLICATIVE]))
    arity = data.draw(st.integers(1, 3))
    # Up to cap // 2 the walk's own check passes on int sets; up to cap it
    # may raise, and a Fraction bounds it by its magnitude like an int.
    hi = data.draw(st.sampled_from([cap // 2, cap]))
    values = st.lists(st.integers(-hi, hi), max_size=6)
    sets = [set(data.draw(values)) for _ in range(arity + 1)]
    if data.draw(st.booleans()):
        sets[data.draw(st.integers(0, arity))].add(0)
    if data.draw(st.booleans()):
        num, den = data.draw(st.integers(-9, 9)), data.draw(st.integers(2, 5))
        sets[data.draw(st.integers(0, arity))].add(Fraction(num, den))
    sets = [FiniteSet.from_iterable(ring, s) for s in sets]
    if mode == MULTIPLICATIVE and all(0 in s for s in sets):
        return
    try:
        walk = correlation(mode, sets).table
    except CapExceededError:
        return
    assert correlation(mode, sets, shifts=list(walk)).table == walk


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8),
    st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=8),
)
def test_sum_diff_duality(xs, ys):
    A = zset(*xs)
    B = zset(*ys)
    _, rsum = pairwise(SUM, A, B)
    neg_b = zset(*[-y for y in ys])
    _, rdiff = pairwise(DIFF, A, neg_b)
    assert dict(rsum.items()) == dict(rdiff.items())


# --- the numpy lane of _power_sum, against the Counter/set oracle -------------

OPS = (SUM, DIFF, PROD, RATIO)
KS = (0, 2, 3)
TINY_PRIMES = (101, 103)
P31 = 2**31 - 1
# The smallest prime above 2^31: its residues no longer fit the lane's keys.
P31_UP = 2147483659
F10007 = AmbientRing.prime_field(10007)


def _oracle(op, A, B, k):
    """Sum of r(x)^k over a Counter of every pair of A x B, with no halving."""
    return sum(c**k for c in Counter(setops._pair_keys(op, A, B, DEFAULT_PAIR_CAP)).values())


# The default block size, and blocks of 1 and 7 pairs: triangles that start
# mid-block, and recounts of runs that span blocks.
BLOCKS = (None, 1, 7)


def _assert_lane_matches(A, B, primes=None, blocks=(None,)):
    """Every op and k in KS, on A x B and on A x A (A is A: the halved count
    over Z), on the forced lane with each block size in blocks; returns the
    routes of the 24 len(blocks) counts, each one key pass or Python route."""
    ran = Counter()
    for op in OPS:
        for k in KS:
            for X, Y in ((A, B), (A, A)):
                expect = _oracle(op, X, Y, k)
                for block_pairs in blocks:
                    with counting_route("lane", block_pairs=block_pairs, primes=primes) as walks:
                        assert setops._power_sum(op, X, Y, DEFAULT_PAIR_CAP, k) == expect, (op, k, X, Y, block_pairs)
                    assert walks["_lane_power_sum"] <= HAVE_NUMPY and walks["_python_power_sum"] <= 1
                    ran += walks
    return ran


_lane_ints = st.one_of(
    st.integers(-40, 40), st.integers(-(2**31), 2**31), st.integers(-(2**70), 2**70),
    st.sampled_from([0, 101, -103, 101 * 103, P31, 2 * P31, 2**31, -(2**31), 2**32,
                     2**62, -(2**62), 2**63 - 1, -(2**63) + 1, 2**63, -(2**63)]),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_lane_ints, max_size=24),
    st.lists(_lane_ints, max_size=24),
    st.sampled_from([None, 7, 101, P31]),
    st.sampled_from([_FINGERPRINT_PRIMES, TINY_PRIMES]),
)
def test_count_lane_matches_python_route(xs, ys, p, primes):
    # Sizes (k = 0) and energies (k = 2, 3) of all four ops; negatives, 0,
    # mixed-sign ratio sets, values on both sides of 2^63 (lane A against
    # fingerprints) and of 2^31 (packed ratios), and, with the tiny primes,
    # fingerprint runs that are recounted with their pair weights; in
    # blocks of the default size, and of 1 and 7 pairs.
    ring = Z if p is None else AmbientRing.prime_field(p)
    A, B = FiniteSet.from_iterable(ring, xs), FiniteSet.from_iterable(ring, ys)
    ran = _assert_lane_matches(A, B, primes, BLOCKS)
    # With numpy every sum and product of nonempty sets takes the key pass.
    sums_and_prods = 2 * len(KS) * len(BLOCKS) * bool(A) * (1 + bool(B))
    assert ran["_lane_power_sum"] >= sums_and_prods if HAVE_NUMPY else ran == {"_python_power_sum": 24 * len(BLOCKS)}


def test_tiny_fingerprint_primes_are_recounted():
    # 70-bit values: every op over Z is fingerprinted.  Mod 101 and 103 the
    # 27 x 27 sums and products share keys that are not equal values, so
    # the count is right only because the repeated keys are recounted, in
    # blocks of every size in BLOCKS.
    rng = random.Random(5)
    A = zset(*(rng.randint(-(2**70), 2**70) for _ in range(27)))
    B = zset(*(b for b in (rng.randint(-(2**70), 2**70) for _ in range(30)) if b % 101 and b % 103))
    for op in OPS:
        pairs = [(a, b) for a in A.elements for b in B.elements if op != RATIO or b]
        prints = {tuple(_scalar(op, q)(a, b) for q in TINY_PRIMES) for a, b in pairs}
        assert len(prints) < _oracle(op, A, B, 0)
    n = 24 * len(BLOCKS)
    assert _assert_lane_matches(A, B, TINY_PRIMES, BLOCKS) == (
        {"_lane_power_sum": n, "recount": n} if HAVE_NUMPY else {"_python_power_sum": n})


def test_elements_divisible_by_a_fingerprint_prime():
    q1, q2, q3 = _FINGERPRINT_PRIMES[:3]
    A = zset(0, q1, -q1 * 2**40, q2 * q3, 2**70 + 1, -(2**65))
    B = zset(q1 * 7, 3, -(2**66), q2, 2**64 + q1)
    ran = _assert_lane_matches(A, B)
    assert ran == ({"_lane_power_sum": 24, "recount": 12} if HAVE_NUMPY else {"_python_power_sum": 24})
    # Every prime divides an element of C: no two serve ratios, so no key pass.
    C = zset(q1 * 2**40, q2, q3 * 5, 2**64 + 1)
    with counting_route("lane", primes=(q1, q2, q3)) as ran:
        assert setops._power_sum(RATIO, A, C, DEFAULT_PAIR_CAP, 0) == _oracle(RATIO, A, C, 0)
    assert ran == {"_python_power_sum": 1}


def test_values_at_the_int64_edge():
    # Lane A takes results below 2^63 as int64 keys; above, the keys are
    # fingerprints of Python ints, so no value passes through an int64:
    # 2^62 + 2^62 would wrap to -2^63 = (-2^62) + (-2^62).
    _assert_lane_matches(zset(2**62, -(2**62)), zset(2**62, -(2**62), 1))
    _assert_lane_matches(zset(0), zset(2**64, -(2**65)))
    _assert_lane_matches(zset(2**63 - 1, -(2**63) + 1, 0), zset(0, 1, -1))
    _assert_lane_matches(zset(2**31, -(2**31), 6), zset(2**31 - 2, 3, -4))
    _assert_lane_matches(zset(2**31 - 1, -(2**31) + 1, 6), zset(2**31 - 2, 3, -4, 2**31 - 1))


def test_prime_field_edge():
    for p in (P31, P31_UP):
        ring = AmbientRing.prime_field(p)
        rng = random.Random(p)
        A = FiniteSet.from_iterable(ring, [0, 1, p - 1] + [rng.randrange(p) for _ in range(20)])
        B = FiniteSet.from_iterable(ring, [0, 2, p - 2] + [rng.randrange(p) for _ in range(20)])
        # The lane keys residues mod 2^31 - 1; past 2^31 it is out of reach.
        lane = HAVE_NUMPY and p < 2**31
        assert _assert_lane_matches(A, B) == {"_lane_power_sum" if lane else "_python_power_sum": 24}, p


def _kernel_keys(op, xs, ys, p, exact, rows=slice(None), cols=slice(None)):
    """The lane kernel's int64 keys of xs[rows] op ys[cols], as lists."""
    import numpy as np

    keys = setops._lane_keys(np, op, xs, ys, p, exact)(rows, cols)
    assert keys.dtype == np.int64
    return keys.tolist()


_NEEDS_NUMPY = pytest.mark.skipif(not HAVE_NUMPY, reason="the lane kernel needs numpy")


@_NEEDS_NUMPY
@pytest.mark.parametrize("p", [3, 7, 101, P31])
def test_lane_keys_of_sums_and_differences_mod_p(p):
    # Residues 0 and p - 1 on both sides: sums reach 2p - 2, past 2^31 for
    # P31, and each must come back as (x +- y) mod p, on a sub-block too.
    rng = random.Random(p)
    xs = sorted({0, 1, p - 1, *(rng.randrange(p) for _ in range(30))})
    ys = sorted({0, p - 2, p - 1, *(rng.randrange(p) for _ in range(30))})
    for op, sign in ((SUM, 1), (DIFF, -1)):
        expect = [[(x + sign * y) % p for y in ys] for x in xs]
        assert _kernel_keys(op, xs, ys, p, True) == expect, op
        assert _kernel_keys(op, xs, ys, p, True, slice(1, 3), slice(2, None)) == [r[2:] for r in expect[1:3]], op


@_NEEDS_NUMPY
@pytest.mark.parametrize("primes", [_FINGERPRINT_PRIMES, TINY_PRIMES], ids=["primes", "tiny_primes"])
def test_lane_fingerprints_of_sums_and_differences(monkeypatch, primes):
    # Values past +-2^63, negatives, sums that repeat, and values that differ
    # by multiples of q1 q2: two pairs share a key exactly when their values
    # share (v mod q1, v mod q2).  (m - 1) + 5 and 4 + 0 agree only once
    # the sum is reduced.
    monkeypatch.setattr(setops, "_FINGERPRINT_PRIMES", primes)
    q1, q2 = primes[:2]
    m = q1 * q2
    rng = random.Random(q1)
    xs = [0, 4, m - 1, -1, 2**63, -(2**63) - 7, 2**64 + 1, m * 2**70 + 4, *(2**70 + 3 * i for i in range(10)),
          *(rng.randint(-(2**70), 2**70) for _ in range(20))]
    ys = [0, 5, 1 - m, 2**63 - 1, -(2**65), m * 2**66, *(5 * j for j in range(10)),
          *(rng.randint(-(2**70), 2**70) for _ in range(20))]
    for op, sign in ((SUM, 1), (DIFF, -1)):
        keys = [key for row in _kernel_keys(op, xs, ys, None, False) for key in row]
        prints = [((x + sign * y) % q1, (x + sign * y) % q2) for x in xs for y in ys]
        assert len(set(keys)) < len(keys), op
        assert len(set(zip(keys, prints))) == len(set(keys)) == len(set(prints)), op


def test_colliding_big_ints_are_handed_over():
    # Sums of an arithmetic progression: most pairs share their value, so
    # most keys repeat and the Python route takes over after the key pass.
    A = zset(*(2**70 + 3 * k for k in range(30)))
    for op, X, Y in ((SUM, A, A), (DIFF, A, zset(*A.elements))):
        for k in KS:
            with counting_route("lane") as ran:
                got = setops._power_sum(op, X, Y, DEFAULT_PAIR_CAP, k)
            assert got == _oracle(op, X, Y, k) and (k or got == 59), (op, k)
            assert ran == Counter(_lane_power_sum=HAVE_NUMPY, _python_power_sum=1), (op, k)


def test_interval_cube_counts_on_lane_a():
    # {0..255}, the interval cube at d=8: every result fits an int64 and
    # most pairs repeat a value, so only exact keys count it on the lane.
    Q = enumerate_cube(_cube([2**j for j in range(8)]))
    n = len(Q)
    assert Q.elements == tuple(range(n)) and n * n >= _LANE_MIN_PAIRS
    with counting_route() as ran:
        got = {(op, k): setops._power_sum(op, Q, Q, DEFAULT_PAIR_CAP, k) for op in OPS for k in (0, 2)}
    assert ran == {"_lane_power_sum" if HAVE_NUMPY else "_python_power_sum": len(got)}
    assert got[SUM, 0] == got[DIFF, 0] == 2 * n - 1
    assert got[SUM, 2] == got[DIFF, 2] == (2 * n**3 + n) // 3
    for (op, k), value in got.items():
        assert value == _oracle(op, Q, Q, k), (op, k)


def test_pairwise_size_takes_the_lane_from_the_threshold():
    # Products of distinct values: few keys repeat, so the lane keeps them.
    for d in (7, 8):
        Q = enumerate_cube(_cube([3**j for j in range(d)], a0=1))
        with counting_route() as ran:
            size = pairwise_size(PROD, Q, Q)
        assert size == len({a * b for a in Q.elements for b in Q.elements})
        lane = HAVE_NUMPY and len(Q) ** 2 >= _LANE_MIN_PAIRS
        assert ran == {"_lane_power_sum" if lane else "_python_power_sum": 1}, d


def test_mixed_sign_ratio_set_takes_the_lane():
    # Both signs: pairwise_size counts all of Q x Q, on the lane when numpy
    # is installed, which recounts the fingerprints of the 200 a / a = 1.
    rng = random.Random(11)
    Q = zset(*(rng.randint(-(2**40), 2**40) for _ in range(200)))
    assert Q.elements[0] < 0 < Q.elements[-1] and len(Q) ** 2 >= _LANE_MIN_PAIRS
    with counting_route() as ran:
        assert pairwise_size(RATIO, Q, Q) == len(_brute_force_counts(RATIO, Q, Q))
    assert ran == ({"_lane_power_sum": 1, "recount": 1} if HAVE_NUMPY else {"_python_power_sum": 1})


def test_sizes_without_numpy():
    cubes = [
        enumerate_cube(_cube([3**j for j in range(8)])),
        enumerate_cube(_cube([2**40 + 7**j for j in range(8)], a0=-(2**39))),
        enumerate_cube(CubeSpec(F10007, 1, (2, 3, 5, 7, 11, 13, 17, 19), (0, 1), MULTIPLICATIVE)),
    ]
    with counting_route() as lane:
        sizes = [pairwise_size(op, Q, Q) for Q in cubes for op in OPS]
    with counting_route("python") as python:
        assert [pairwise_size(op, Q, Q) for Q in cubes for op in OPS] == sizes
    # The mixed-sign ratios of the 2^40 cube recount their fingerprints.
    assert lane == ({"_lane_power_sum": 12, "recount": 1} if HAVE_NUMPY else {"_python_power_sum": 12})
    assert python == {"_python_power_sum": 12}


@_NEEDS_NUMPY
def test_lane_gate_at_each_edge(monkeypatch):
    # The one gate of the lane opens on one side of each edge and not on the
    # other: the pairs, the modulus, the bound on the values, a Fraction in
    # either set, and numpy itself.
    import numpy as np

    gate = setops._lane_numpy
    A = zset(1, 2, 3)
    assert gate(A, A, _LANE_MIN_PAIRS) is np
    assert gate(A, A, _LANE_MIN_PAIRS - 1) is None
    for p, expect in ((P31, np), (P31_UP, None)):
        F = FiniteSet.from_iterable(AmbientRing.prime_field(p), [1, 2, 3])
        assert gate(F, F, _LANE_MIN_PAIRS) is expect, p
    assert gate(A, A, _LANE_MIN_PAIRS, 2**63 - 1) is np
    assert gate(A, A, _LANE_MIN_PAIRS, 2**63) is None
    half = zset(1, Fraction(1, 2))
    assert gate(half, A, _LANE_MIN_PAIRS) is gate(A, half, _LANE_MIN_PAIRS) is None
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert gate(A, A, _LANE_MIN_PAIRS) is None


def test_import_cubelab_leaves_numpy_out():
    code = "import sys, cubelab; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# |{ab : 1 <= a, b <= 2^n}| for n = 0..11, the multiplication-table counts.
_PRODUCT_TABLE_SIZES = [1, 3, 9, 30, 97, 354, 1263, 4695, 17668, 67765, 260095, 1004977]


def test_product_set_sizes_of_intervals():
    for n, size in enumerate(_PRODUCT_TABLE_SIZES):
        A = zset(*range(1, 2**n + 1))
        assert pairwise_size(PROD, A, A) == size, n
        if n <= 6:
            assert len({a * b for a in A.elements for b in A.elements}) == size


@pytest.mark.parametrize("size", [20, 200], ids=["python_route", "lane"])
@pytest.mark.parametrize("bits", [8, 70])
def test_power_sum_seam_counts_every_pair(size, bits):
    # k = 1 counts every pair once, with the pairs' weights under the
    # same-operand halving; Cauchy-Schwarz ties k = 0, 1 and 2 together.
    # 200 x 200 pairs take the lane when numpy is installed.
    rng = random.Random(size * bits)
    A, B = set(), {0}
    for X in (A, B):
        while len(X) < size:
            X.add(rng.randint(-(2**bits), 2**bits))
    A, B = zset(*A), zset(*B)
    with counting_route() as ran:
        for op in OPS:
            for X, Y in ((A, B), (A, A), (B, B)):
                pairs = len(X) * (len(Y) - (op == RATIO and 0 in Y))
                s0, s1, s2 = (setops._power_sum(op, X, Y, DEFAULT_PAIR_CAP, k) for k in (0, 1, 2))
                assert s1 == pairs, (op, X is Y)
                assert s1 * s1 <= s0 * s2, (op, X is Y)
    lane = HAVE_NUMPY and size * size >= _LANE_MIN_PAIRS
    del ran["recount"]  # the 70-bit ratios of a set with both signs recount a / a = 1
    assert ran == {"_lane_power_sum" if lane else "_python_power_sum": len(OPS) * 3 * 3}


# --- the count map: folds, and ratio keys of rationals --------------------

F3, F101 = AmbientRing.prime_field(3), AmbientRing.prime_field(101)


def _convolved(A, op, k):
    """r_{kA} by k - 1 steps of _convolve_counts, the oracle of the fold."""
    keys, counts = list(A.elements), [1] * len(A)
    for _ in range(k - 1):
        keys, counts = setops._convolve_counts(A.ring, keys, counts, A.elements, op, DEFAULT_PAIR_CAP)
    return dict(zip(keys, counts))


def _fold(A, op, k, force="lane", block_pairs=None):
    """_fold_counts as a dict of Python ints, on the route forced, with the
    count map's block size set where given; and the routes of its steps."""
    with counting_route(force, block_pairs=block_pairs) as ran:
        keys, counts = setops._as_lists(*setops._fold_counts(A, op, k, DEFAULT_PAIR_CAP))
    assert keys == sorted(keys)
    assert all(type(x) is int for x in keys + counts)
    return dict(zip(keys, counts)), ran


def _steps(lane, n):
    return Counter({"_lane_map" if lane else "_convolve_counts": n})


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([Z, F3, F13, F101]),
    st.lists(st.integers(-40, 40), min_size=1, max_size=12),
    st.sampled_from([SUM, PROD]),
    st.integers(1, 4),
    st.sampled_from([None, 1, 5, 64]),
)
def test_fold_lane_matches_convolution(ring, xs, op, k, block_pairs):
    # Negatives and 0 over Z, residues over F_3, F_13 and F_101; blocks of a
    # single row up to the whole map, so that several blocks merge.
    A = FiniteSet.from_iterable(ring, xs)
    got, ran = _fold(A, op, k, block_pairs=block_pairs)
    assert got == _convolved(A, op, k)
    assert ran == _steps(HAVE_NUMPY, k - 1)
    mode = ADDITIVE if op == SUM else MULTIPLICATIVE
    assert energy_tk(mode, A, k).value == sum(c * c for c in got.values())


def test_fold_lane_from_the_threshold():
    # 181^2 pairs fall short of _LANE_MIN_PAIRS and 182^2 reach it.
    for n in (181, 182):
        A = zset(*range(-90, n - 90))
        got, ran = _fold(A, SUM, 2, force=None)
        assert got == _convolved(A, SUM, 2)
        assert ran == _steps(HAVE_NUMPY and n * n >= _LANE_MIN_PAIRS, 1), n


def test_fold_lane_hands_over_past_its_bounds():
    # F_p with p >= 2^31, counts of 2^62 k-tuples and more, values past an
    # int64: the oracle's steps run, with the same answers.
    up = AmbientRing.prime_field(P31_UP)
    cases = [
        (FiniteSet.from_iterable(up, [0, 1, P31_UP - 1, 2**31, 12345]), SUM, 3),
        (FiniteSet.from_iterable(up, [1, 2, P31_UP - 2, 2**31 + 7]), PROD, 3),
        (zset(-10, 10), SUM, 62),
        (zset(2**62, 2**62 - 1, -3), SUM, 2),
        (zset(2**21, 3, -(2**21)), PROD, 3),
    ]
    # Just inside the bounds the count map runs: residues mod 2^31 - 1 too.
    P = AmbientRing.prime_field(P31)
    inside = [(FiniteSet.from_iterable(P, [0, 1, P31 - 1, 2**30, 12345]), SUM, 3),
              (FiniteSet.from_iterable(P, [1, 2, P31 - 2, 2**30 + 7]), PROD, 3),
              (zset(-10, 10), SUM, 61), (zset(2**61, -(2**61), 1), SUM, 3), (zset(2**21 - 1, -5), PROD, 3)]
    for A, op, k in cases + inside:
        got, ran = _fold(A, op, k)
        assert ran == _steps(HAVE_NUMPY and (A, op, k) in inside, k - 1), (A.elements, op, k)
        assert got == _convolved(A, op, k)
    # Counts past 2^62 stay exact: the central binomial count of {-10, 10},
    # whose 2^100 tuples take the oracle's steps and 2^30 the count map.
    ten = FiniteSet.from_iterable(AmbientRing.integers(magnitude_cap=1000), [-10, 10])
    for k, lane in ((100, False), (30, HAVE_NUMPY)):
        with counting_route("lane") as ran:
            assert energy_tk(ADDITIVE, ten, k).value == math.comb(2 * k, k)
        assert ran == _steps(lane, k - 1), k


@pytest.mark.parametrize("route", ["lane", "python"])
def test_fold_lane_keeps_the_caps(route):
    # Each step checks the magnitude cap, then the pair cap, on the count
    # map and on the oracle's steps (numpy hidden).
    tight = AmbientRing.integers(magnitude_cap=1000)
    A = FiniteSet.from_iterable(tight, [7, 9, 11, 13])
    got, ran = _fold(A, PROD, 2, force=route)
    lane = HAVE_NUMPY and route == "lane"
    assert got == _convolved(A, PROD, 2) and ran == _steps(lane, 1)
    with counting_route(route) as ran:
        with pytest.raises(CapExceededError, match="magnitude"):
            setops._fold_counts(A, PROD, 3, DEFAULT_PAIR_CAP)
        # 2A reaches -800 at its low end, so 3A would reach -1200.
        with pytest.raises(CapExceededError, match="magnitude"):
            setops._fold_counts(FiniteSet.from_iterable(tight, [-400, 1]), SUM, 3, DEFAULT_PAIR_CAP)
        with pytest.raises(CapExceededError, match="pair cap"):
            setops._fold_counts(zset(*range(10)), SUM, 3, 99)
        assert len(setops._fold_counts(zset(*range(10)), SUM, 3, 190)[0]) == 28
    # One step before each magnitude error, and two in the fold that passes.
    assert ran == _steps(lane, 4)
    # The fold's own cap reaches its steps, not the default pair cap.
    with counting_route(route) as ran, pytest.MonkeyPatch.context() as mp:
        mp.setattr(setops, "DEFAULT_PAIR_CAP", 50)
        assert len(setops._fold_counts(zset(*range(10)), SUM, 3, 190)[0]) == 28
    assert ran == _steps(lane, 2)


_ratio_values = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.sampled_from([0, Fraction(0), Fraction(1, 2**40), Fraction(-(2**45), 7)]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ratio_values, max_size=14), st.lists(_ratio_values, max_size=14))
def test_ratio_keys_of_rationals_match_fractions(xs, ys):
    # Mixed int and Fraction sets of both signs with 0, for A is B (the
    # halved count) and A is not B: (num, den) keys against Fraction(a, b).
    A, B = zset(*xs), zset(*ys)
    for X, Y in ((A, B), (A, A), (B, A)):
        expect = _brute_force_counts(RATIO, X, Y)
        support, r = pairwise(RATIO, X, Y)
        assert dict(r.items()) == expect
        assert all(type(x) is Fraction for x in support.elements)
        assert pairwise_set(RATIO, X, Y) == support
        for k in (0, 1, 2, 3):
            assert setops._power_sum(RATIO, X, Y, DEFAULT_PAIR_CAP, k) == sum(c**k for c in expect.values())


def test_fractions_are_bounded_by_their_magnitudes():
    # A set holding a Fraction is capped like an int set: by the magnitudes
    # of its ends, and a ratio by |a| over the smallest nonzero |b|.
    capped = AmbientRing.integers(magnitude_cap=40)

    def qset(*values):
        return FiniteSet.from_iterable(capped, values)

    with pytest.raises(CapExceededError):
        pairwise_set(SUM, qset(Fraction(1, 2), 40), qset(40))
    with pytest.raises(CapExceededError):
        correlation(ADDITIVE, [qset(-30, Fraction(1, 2)), qset(30)])
    with pytest.raises(CapExceededError):
        pairwise_size(RATIO, qset(40), qset(-1, Fraction(1, 2), 1))
    with pytest.raises(CapExceededError):
        pairwise_set(PROD, qset(Fraction(-39, 2), 3), qset(3))
    assert pairwise_set(RATIO, qset(20), qset(0, Fraction(1, 2), 40)).elements == (Fraction(1, 2), 40)
    assert pairwise_set(SUM, qset(Fraction(1, 2), 20), qset(20)).elements == (Fraction(41, 2), 40)
