"""Structural results: popular sum/difference decompositions, the energy
floor for subsets of cubes, the Hoelder chain, projection bounds for
k-fold sumsets, and shifted intersections of ratio sets."""

import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product as iter_product

import pytest

from cubelab.cube import ADDITIVE, MULTIPLICATIVE, CubeSpec, FiniteSet, enumerate_cube, symmetry_witness
from cubelab.numeric import AmbientRing, CapExceededError
from cubelab.setops import DEFAULT_PAIR_CAP, DIFF, PROD, SUM, _fold_counts, _least_pair_count, pairwise_set
from cubelab.structure import (
    energy_lower_check,
    gmr_check,
    intersection_bound_verdict,
    olmezov_sides,
    sd_decompose,
    sd_popularity_ok,
    shifted_intersection_count,
)
from routes import HAVE_NUMPY, counting_route

Z = AmbientRing.integers()
F11 = AmbientRing.prime_field(11)
F13 = AmbientRing.prime_field(13)
F101 = AmbientRing.prime_field(101)


def zset(*values):
    return FiniteSet.from_iterable(Z, values)


def cube(gens, a0=0, ring=Z):
    return CubeSpec(ring=ring, a0=a0, generators=tuple(gens), digits=(0, 1))


# --- S/D decomposition ---------------------------------------------------


def test_sd_frozen_example():
    dec = sd_decompose(cube([1, 4]))
    assert dec.sums.elements == (1, 4, 5, 6, 9)
    assert dec.diffs.elements == (-4, -1, 0, 1, 4)
    assert dec.coverage_ok()
    assert dec.sizes_ok()


def test_sd_zero_dimensional_cube():
    dec = sd_decompose(cube([], a0=3))
    assert dec.sums.elements == (6,)
    assert dec.diffs.elements == (0,)
    assert dec.coverage_ok() and dec.sizes_ok()


def test_sd_powers_of_three():
    spec = cube([1, 3, 9, 27])
    dec = sd_decompose(spec)
    q = len(dec.cube_set)
    assert q == 16
    assert len(dec.sums) ** 2 <= q**3
    assert len(dec.diffs) ** 2 <= q**3
    assert dec.coverage_ok()
    assert sd_popularity_ok(spec)


def test_sd_improper_cube_still_covers():
    spec = cube([1, 2, 3])  # 1 + 2 = 3 collides
    dec = sd_decompose(spec)
    assert dec.coverage_ok() and dec.sizes_ok()
    with pytest.raises(ValueError):
        sd_popularity_ok(spec)  # the pointwise form needs properness


def test_sd_over_prime_field():
    spec = cube([1, 4], ring=F13, a0=2)
    dec = sd_decompose(spec)
    assert dec.coverage_ok() and dec.sizes_ok()


def test_sd_random_cubes():
    rng = random.Random(3)
    for _ in range(25):
        d = rng.randint(1, 6)
        spec = cube([rng.randint(1, 60) for _ in range(d)], a0=rng.randint(-10, 10))
        dec = sd_decompose(spec)
        assert dec.coverage_ok()
        assert dec.sizes_ok()


@pytest.mark.parametrize("ring", [Z, AmbientRing.prime_field(3), F13, F101], ids=["Z", "F3", "F13", "F101"])
def test_sd_diffs_are_the_brute_force_popular_differences(ring):
    # D is read off S through the reflection Q = w - Q; a brute-force Counter
    # of Q - Q is its oracle.  Small generators and repeats make improper
    # cubes, and negative ones and a0 keep the witness w off 0 (over F_p,
    # wrapped past p).  The split folds r_{Q+Q} alone on either route.
    rng = random.Random(23 + (ring.modulus or 0))
    hi = 30 if ring.modulus is None else ring.modulus - 1
    for _ in range(40):
        d = rng.randint(0, 6)
        gens = [rng.choice([-1, 1]) * rng.randint(1, hi) for _ in range(d)]
        if ring.modulus is not None:
            gens = [g for g in gens if g % ring.modulus]
        spec = cube(gens, a0=rng.randint(-hi, hi), ring=ring)
        Q = enumerate_cube(spec).elements
        r = Counter(ring.normalize(b1 - b2) for b1 in Q for b2 in Q)
        expect = tuple(sorted(x for x, c in r.items() if c * c >= len(Q)))
        for force in ("lane", "python"):
            with counting_route(force) as ran:
                assert sd_decompose(spec).diffs.elements == expect, (spec, force)
            assert ran == ({"_lane_map": 1} if HAVE_NUMPY and force == "lane" else {"_convolve_counts": 1}), spec


@pytest.mark.parametrize("ring", [Z, AmbientRing.prime_field(3), F13, F101, AmbientRing.prime_field(2**31 - 1)],
                         ids=["Z", "F3", "F13", "F101", "F_2^31-1"])
def test_least_pair_count_reads_differences_off_the_sums(ring):
    # sd_popularity_ok's walk: r_{Q-Q}(b1 - b2) is read from r_{Q+Q} at
    # b1 - b2 + w.  Its oracle is the least pointwise sum over the ordered
    # pairs from two brute-force Counters, on proper and improper cubes with
    # negative generators and a0, on both routes in blocks of 7 pairs.
    rng = random.Random(29 + (ring.modulus or 0))
    hi = 30 if ring.modulus is None else ring.modulus - 1
    for _ in range(24):
        gens = [rng.choice([-1, 1]) * rng.randint(1, hi) for _ in range(rng.randint(0, 6))]
        if ring.modulus is not None:
            gens = [g for g in gens if g % ring.modulus]
        spec = cube(gens, a0=rng.randint(-hi, hi), ring=ring)
        Q = enumerate_cube(spec)
        plus = Counter(ring.normalize(b1 + b2) for b1 in Q for b2 in Q)
        minus = Counter(ring.normalize(b1 - b2) for b1 in Q for b2 in Q)
        expect = min(plus[ring.normalize(b1 + b2)] + minus[ring.normalize(b1 - b2)] for b1 in Q for b2 in Q)
        for force in ("lane", "python"):
            with counting_route(force, block_pairs=7) as ran:
                sums = _fold_counts(Q, SUM, 2, DEFAULT_PAIR_CAP)
                assert _least_pair_count(Q, sums, sums, symmetry_witness(spec)) == expect, (spec, force)
            assert ran == _split_walks(HAVE_NUMPY and force == "lane", 1, 1), spec


def _split_walks(lane, folds, pair_walks):
    """What the split's one-step folds and pair walks run; a pair walk is seen
    only on the lane, where it walks the sum and the difference kernels."""
    return {"_lane_map": folds, "_least_pair_count": 2 * pair_walks} if lane else {"_convolve_counts": folds}


@pytest.mark.parametrize("ring", [Z, F101, AmbientRing.prime_field(2**31 - 1)], ids=["Z", "F101", "F_2^31-1"])
def test_sd_count_map_matches_counters(ring):
    # sd_decompose, coverage_ok and sd_popularity_ok (if proper) on the lane
    # (blocks of 7 pairs, so that several merge) and on the Python route.
    rng = random.Random(ring.modulus or 0)
    specs = [cube([1, 4], ring=ring), cube([], a0=3, ring=ring), cube([1, 2, 3], ring=ring)]
    hi = 2**40 if ring.modulus is None else ring.modulus - 1
    for _ in range(12):
        d = rng.randint(1, 7)
        specs.append(cube([rng.randint(1, hi) for _ in range(d)], a0=rng.randint(-hi, hi), ring=ring))
    edge = cube([2**61, 3, 2**60], a0=-(2**62), ring=ring)  # over Z, sums reach -2^63
    for spec in specs + [edge]:
        results = []
        for force in ("lane", "python"):
            with counting_route(force, block_pairs=7) as ran:
                dec = sd_decompose(spec)
                proper = len(dec.cube_set) == 2**spec.dimension
                results.append((dec, dec.coverage_ok(), sd_popularity_ok(spec) if proper else None))
            lane = HAVE_NUMPY and force == "lane" and (spec is not edge or ring.modulus)
            assert ran == _split_walks(lane, 1 + proper, 1 + proper), (spec, force)
        assert results[0] == results[1], spec
        assert results[0][1]


def test_sd_coverage_failure_on_both_routes():
    # Over Z, without its most popular difference, 0, the pairs (b, b) are
    # covered only if 2b is a popular sum: here it is not for b = 0.
    # An empty S or D looks up 0 for every value: the other set alone covers
    # when it holds every sum (or difference), and two empty sets cover nothing.
    for ring, force in iter_product((Z, F101), ("lane", "python")):
        with counting_route(force) as ran:
            dec = sd_decompose(cube([1, 10, 100], ring=ring))
            Q, empty = dec.cube_set, FiniteSet(ring, ())
            no_zero = FiniteSet(ring, tuple(x for x in dec.diffs.elements if x))
            assert dec.coverage_ok() and (ring is not Z or not replace(dec, diffs=no_zero).coverage_ok())
            assert replace(dec, sums=pairwise_set(SUM, Q, Q), diffs=empty).coverage_ok()
            assert replace(dec, sums=empty, diffs=pairwise_set(DIFF, Q, Q)).coverage_ok()
            assert not replace(dec, sums=empty, diffs=empty).coverage_ok()
        assert ran == _split_walks(HAVE_NUMPY and force == "lane", 1, 4 + (ring is Z)), (ring, force)


@pytest.mark.parametrize("route", ["lane", "python"])
def test_sd_split_keeps_the_magnitude_cap(route):
    # The cube reaches 511, so Q + Q reaches 1022, past the cap; the magnitude
    # rule bounds Q - Q by the same 511 + 511.  It is checked before any step.
    spec = CubeSpec(AmbientRing.integers(magnitude_cap=1000), 0, (1, 10, 100, 400), (0, 1))
    with counting_route(route) as ran:
        for check in (sd_decompose, sd_popularity_ok):
            with pytest.raises(CapExceededError, match="magnitude"):
                check(spec)
    assert not ran


def test_sd_rejects_higher_digits():
    with pytest.raises(ValueError):
        sd_decompose(CubeSpec(ring=Z, a0=0, generators=(1, 5), digits=(0, 1, 2)))


# --- energy floor for subsets --------------------------------------------


def test_energy_lower_frozen():
    spec = cube([1, 10, 100])
    verdict = energy_lower_check(zset(0, 1, 10), spec)
    assert verdict.passed
    # E >= |B|^2 sqrt(|Q|) squared: E^2 >= |B|^4 |Q|.
    assert verdict.lhs**2 >= 3**4 * 8


def test_energy_lower_random_subsets():
    rng = random.Random(9)
    spec = cube([1, 7, 55, 300])
    q_set = enumerate_cube(spec)
    for _ in range(30):
        size = rng.randint(1, len(q_set))
        B = FiniteSet.from_iterable(Z, rng.sample(q_set.elements, size))
        assert energy_lower_check(B, spec).passed


def test_energy_lower_requires_subset():
    with pytest.raises(ValueError):
        energy_lower_check(zset(99), cube([1, 4]))


# --- Hoelder chain ---------------------------------------------------------


def _brute_olmezov_rhs(A, B, D, n, s, m, mode):
    """Full-grid evaluation with no factorization tricks at all."""
    ring = A.ring
    p = ring.modulus
    if mode == ADDITIVE:

        def comb(a, b):
            return a + b if p is None else (a + b) % p

        shifts_x = pairwise_set("diff", A, A)
        shifts_y = pairwise_set("diff", B, A)
    else:

        def comb(a, b):
            return a * b if p is None else (a * b) % p

        shifts_x = pairwise_set("ratio", A, A)
        shifts_y = pairwise_set("ratio", B, A)

    def corr(base, others, point):
        total = 0
        for z in base.elements:
            for x, S in zip(point, others):
                if comb(z, x) not in S:
                    break
            else:
                total += 1
        return total

    grid = 0
    for xs in iter_product(shifts_x.elements, repeat=m - 1):
        cm = corr(B, [B] * (m - 1), xs)
        long_sets = [A] * (m - 1) + [B] * s
        for ys in iter_product(shifts_y.elements, repeat=s):
            dprod = 1
            for y in ys:
                if y not in D:
                    dprod = 0
                    break
                for x in xs:
                    # y - x in additive mode, y / x multiplicatively.
                    if mode == ADDITIVE:
                        val = y - x if p is None else (y - x) % p
                    elif ring.modulus is not None:
                        val = (y * pow(x, -1, ring.modulus)) % ring.modulus
                    else:
                        val = Fraction(y) / Fraction(x)
                    if val not in D:
                        dprod = 0
                        break
                if dprod == 0:
                    break
            if dprod == 0:
                continue
            clong = corr(A, long_sets, xs + ys)
            grid += cm ** (n - s) * clong
    coef = len(A) ** ((n - 1) * m) * len(B) ** (s * (m - 1)) * len(D) ** ((n - s) * (m - 1))
    return coef * grid


# Every set of the brute-grid tests fits this cap, while their shifts, sums
# and products pass it: a shift is a probe, and the capped ring counts as Z.
CAP8 = AmbientRing.integers(magnitude_cap=8)


def _on_capped_ring(A, B, D, n, s, m, mode):
    """olmezov_sides on copies of the sets in CAP8, as (lhs, rhs, passed)."""
    verdict = olmezov_sides(*(FiniteSet.from_iterable(CAP8, X.elements) for X in (A, B, D)), n, s, m, mode)
    return verdict.lhs, verdict.rhs, verdict.passed


def test_olmezov_matches_brute_grid_additive():
    rng = random.Random(21)
    for _ in range(12):
        A = zset(*(rng.randint(0, 8) for _ in range(rng.randint(2, 4))))
        B = zset(*(rng.randint(0, 8) for _ in range(rng.randint(2, 4))))
        D = zset(*(rng.randint(-4, 8) for _ in range(rng.randint(1, 4))))
        for n, s, m in [(2, 1, 1), (2, 1, 2), (3, 1, 2), (3, 2, 1), (3, 2, 2)]:
            verdict = olmezov_sides(A, B, D, n, s, m)
            assert verdict.rhs == _brute_olmezov_rhs(A, B, D, n, s, m, ADDITIVE)
            assert verdict.passed
            assert _on_capped_ring(A, B, D, n, s, m, ADDITIVE) == (verdict.lhs, verdict.rhs, True)


def test_olmezov_matches_brute_grid_multiplicative():
    rng = random.Random(22)
    cases = [[FiniteSet.from_iterable(F11, (rng.randint(lo, 10) for _ in range(3))) for lo in (1, 1, 0)]
             for _ in range(10)]
    # Over Z, A has elements of both signs and the shifts are Fractions.
    cases += [[zset(*(rng.choice([1, -1]) * rng.randint(1, 6) for _ in range(3)))]
              + [zset(*(rng.randint(lo, 6) for _ in range(3))) for lo in (-6, -7)] for _ in range(10)]
    for A, B, D in cases:
        for n, s, m in [(2, 1, 2), (3, 2, 2)]:
            verdict = olmezov_sides(A, B, D, n, s, m, mode=MULTIPLICATIVE)
            assert verdict.rhs == _brute_olmezov_rhs(A, B, D, n, s, m, MULTIPLICATIVE)
            assert verdict.passed
            if A.ring == Z:
                assert _on_capped_ring(A, B, D, n, s, m, MULTIPLICATIVE) == (verdict.lhs, verdict.rhs, True)


def test_olmezov_disjoint_gives_zero_lhs():
    verdict = olmezov_sides(zset(0, 1), zset(100, 200), zset(3), 2, 1, 2)
    assert verdict.lhs == 0
    assert verdict.passed


def test_olmezov_inverse_structured_instance():
    # B in F_13^*, A its pointwise inverses, D the popular ratios.
    B = FiniteSet.from_iterable(F13, [1, 2, 3, 5])
    A = FiniteSet.from_iterable(F13, [pow(b, -1, 13) for b in B.elements])
    D = pairwise_set("ratio", B, A)
    verdict = olmezov_sides(A, B, D, 3, 1, 2, mode=MULTIPLICATIVE)
    assert verdict.passed
    assert verdict.lhs > 0


def test_olmezov_validation():
    A, B, D = zset(1, 2), zset(1, 2), zset(0)
    with pytest.raises(ValueError):
        olmezov_sides(A, B, D, 2, 2, 1)  # s must stay below n
    with pytest.raises(ValueError):
        olmezov_sides(A, B, D, 2, 1, 0)
    with pytest.raises(ValueError):
        olmezov_sides(zset(0, 1), B, D, 2, 1, 1, mode=MULTIPLICATIVE)
    with pytest.raises(CapExceededError):
        olmezov_sides(zset(*range(100)), zset(*range(100)), D, 3, 2, 3, term_cap=10)


def test_olmezov_multiplicative_shifts_respect_the_magnitude_cap():
    # The shift 50 takes 20 in B to 1000, past the cap of 500: a probe, which
    # counts 0 there, as the brute grid does.
    capped = AmbientRing.integers(magnitude_cap=500)
    A, B, D = (FiniteSet.from_iterable(capped, v) for v in ([1, 50], [20], [1]))
    verdict = olmezov_sides(A, B, D, 2, 1, 2, MULTIPLICATIVE)
    assert (verdict.lhs, verdict.rhs, verdict.passed) == (0, 0, True)
    assert verdict.rhs == _brute_olmezov_rhs(*(FiniteSet(Z, X.elements) for X in (A, B, D)), 2, 1, 2, MULTIPLICATIVE)
    assert olmezov_sides(A, B, D, 2, 1, 1, MULTIPLICATIVE).passed


def test_olmezov_m_is_capped_for_singletons():
    one, pair = zset(1), zset(0, 1)
    # With D = {0, 1} the side cap already admits m up to 14001, and refuses 14002.
    assert olmezov_sides(one, one, pair, 2, 1, 14001).passed
    for D in (one, pair):
        with pytest.raises(CapExceededError):
            olmezov_sides(one, one, D, 2, 1, 14002)
    assert olmezov_sides(one, one, one, 2, 1, 14001).passed
    with pytest.raises(CapExceededError, match="m = 100000000 exceeds 14001"):
        olmezov_sides(one, one, one, 2, 1, 10**8)


# --- projection bound -------------------------------------------------------


def test_gmr_dissociated_triple():
    sets = [zset(0, 1), zset(0, 2), zset(0, 4)]
    verdict = gmr_check(sets)
    assert (verdict.lhs, verdict.rhs) == (64, 64)
    assert verdict.passed


def test_gmr_strict_instance():
    sets = [zset(0, 1, 2), zset(0, 1), zset(0, 5)]
    verdict = gmr_check(sets)
    assert verdict.passed
    assert verdict.lhs < verdict.rhs


def test_gmr_random_instances():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(2, 5)
        sets = [
            zset(*(rng.randint(-20, 20) for _ in range(rng.randint(1, 6))))
            for _ in range(k)
        ]
        verdict = gmr_check(sets)
        assert verdict.passed
        total = sets[0]
        for t in sets[1:]:
            total = pairwise_set(SUM, total, t)
        assert verdict.lhs == len(total) ** (k - 1)
        # Each leave-out sum, added up from scratch.
        sums = [{sum(t) for t in iter_product(*(sets[:j] + sets[j + 1:]))} for j in range(k)]
        assert verdict.params["leave_out"] == [len(s) for s in sums]
        assert verdict.rhs == math.prod(len(s) for s in sums)


def test_gmr_pairs_within_the_cap():
    # No pairing the bound needs has more than 59x30 = 1770 pairs; summing
    # all three sets from the last one (900x30) is not one of them.
    A = zset(*range(30))
    rng = random.Random(5)
    C = zset(*(rng.randrange(10**12) for _ in range(30)))
    verdict = gmr_check([A, A, C], cap=2000)
    assert (verdict.lhs, verdict.rhs, verdict.params["leave_out"]) == (3132900, 47790000, [900, 900, 59])
    assert gmr_check([A, A, C]) == verdict
    with pytest.raises(CapExceededError, match="59x30 pairs exceed the pair cap 1769"):
        gmr_check([A, A, C], cap=1769)


def test_gmr_needs_two_sets():
    with pytest.raises(ValueError):
        gmr_check([zset(1, 2)])


# --- shifted intersections of ratio sets ------------------------------------


def _brute_shift_count(S, Pi, x):
    p = S.ring.modulus
    total = 0
    for pi1 in Pi.elements:
        for q1 in S.elements:
            for pi2 in Pi.elements:
                for q2 in S.elements:
                    lhs = (pi1 * pow(q1, -1, p) - pi2 * pow(q2, -1, p)) % p
                    if lhs == x % p:
                        total += 1
    return total


def test_shifted_intersection_matches_brute():
    S = FiniteSet.from_iterable(F11, [1, 2, 4])
    Pi = FiniteSet.from_iterable(F11, [1, 3, 5, 9])
    for x in range(11):
        assert shifted_intersection_count(S, x, Pi) == _brute_shift_count(S, Pi, x)


def test_shifted_intersection_diagonal_floor():
    # At x = 0 the quadruples include all (pi, q, pi, q), and with Pi = SS
    # each product pi = s1 s2 admits |S| representations pi/q in S, so the
    # diagonal count already reaches |S|^3.
    S = FiniteSet.from_iterable(F13, [1, 2, 4, 7])
    Pi = pairwise_set(PROD, S, S)
    assert shifted_intersection_count(S, 0, Pi) >= len(S) ** 3


def test_intersection_bound_verdicts():
    S = FiniteSet.from_iterable(F11, [1, 2, 4])
    for x in range(11):
        verdict = intersection_bound_verdict(S, x)
        assert verdict.passed
        inter = sum(1 for u in S.elements if (u + x) % 11 in S)
        assert verdict.lhs == inter * len(S) ** 2


def test_shifted_intersection_rejects_zero_and_integers():
    with pytest.raises(ValueError):
        shifted_intersection_count(
            FiniteSet.from_iterable(F11, [0, 1]), 1, FiniteSet.from_iterable(F11, [1])
        )
    with pytest.raises(ValueError):
        shifted_intersection_count(zset(1, 2), 1, zset(1))
