"""Structural decompositions and inequality checkers.

Each checker evaluates both sides of a proven inequality exactly and
returns a Verdict; a False verdict on valid inputs would falsify the
statement (or expose a bug here), so the test suite asserts them wholesale.
Popularity thresholds of the form r >= sqrt(q) are compared as r^2 >= q,
never through floats.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, product as iter_product
from math import log2, prod, sqrt

from .cube import (
    ADDITIVE,
    DEFAULT_ENUM_CAP,
    MULTIPLICATIVE,
    CubeSpec,
    FiniteSet,
    enumerate_cube,
    symmetry_witness,
)
from .energy import energy_pair
from .numeric import _MAX_BITS, PRIME_FIELD, PROD, RATIO, SUM, CapExceededError, _scalar_op, mode_ops
from .setops import (DEFAULT_PAIR_CAP, _as_lists, _count_at, _fold_counts, _least_pair_count, _pair_keys,
                     _require_same_ring, pairwise_set)

OLMEZOV_TERM_CAP = 10**9
# olmezov_sides' cap on m, whose shift tuples hold m - 1 entries.  Where a
# set has two or more elements the side cap already bounds m by this (at
# worst through (n - s)(m - 1) log2|D|): it binds only where no set does.
_OLMEZOV_MAX_M = _MAX_BITS + 1


@dataclass(frozen=True)
class Verdict:
    """Outcome of one inequality check, both sides exact."""

    name: str
    params: dict
    lhs: int
    rhs: int | float
    passed: bool
    seed: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SDDecomposition:
    """Popular sums S and popular differences D of a height-1 cube Q.

    S collects x with r_{Q+Q}(x) >= sqrt(|Q|), D likewise for Q - Q.  Every
    pair (b1, b2) of cube elements lands in at least one of them: b1 + b2
    in S or b1 - b2 in D.
    """

    cube_set: FiniteSet
    sums: FiniteSet
    diffs: FiniteSet
    threshold: float

    def coverage_ok(self) -> bool:
        # A pair is covered when its sum is in S or its difference in D.
        S, D = self.sums.elements, self.diffs.elements
        return _least_pair_count(self.cube_set, (S, [1] * len(S)), (D, [1] * len(D)), 0) > 0

    def sizes_ok(self) -> bool:
        q = len(self.cube_set)
        return len(self.sums) ** 2 <= q**3 and len(self.diffs) ** 2 <= q**3


def _require_height1(spec: CubeSpec) -> None:
    if spec.mode != ADDITIVE:
        raise ValueError("decomposition is defined for additive cubes")
    if spec.digits != (0, 1):
        raise ValueError("decomposition needs height-1 digits {0, 1}")


def sd_decompose(spec: CubeSpec, *, cap: int = DEFAULT_ENUM_CAP) -> SDDecomposition:
    _require_height1(spec)
    q_set = enumerate_cube(spec, cap=cap)
    q = len(q_set)
    sums = [x for x, c in zip(*_as_lists(*_fold_counts(q_set, SUM, 2, DEFAULT_PAIR_CAP))) if c * c >= q]
    # Q = w - Q, so b1 - b2 = b1 + (w - b2) - w: r_{Q-Q}(x) = r_{Q+Q}(x + w).
    w = symmetry_witness(spec)
    return SDDecomposition(
        cube_set=q_set,
        sums=FiniteSet(spec.ring, tuple(sums)),
        diffs=FiniteSet.from_iterable(spec.ring, (s - w for s in sums)),
        threshold=sqrt(q),
    )


def sd_popularity_ok(spec: CubeSpec, *, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Pointwise form behind the coverage: for a proper height-1 cube,
    r_{Q+Q}(q1+q2) + r_{Q-Q}(q1-q2) >= 2 sqrt(|Q|) for every pair."""
    _require_height1(spec)
    q_set = enumerate_cube(spec, cap=cap)
    if len(q_set) != len(spec.digits) ** spec.dimension:
        raise ValueError("the pointwise popularity bound is stated for proper cubes")
    # r_{Q-Q}(x) = r_{Q+Q}(x + w), as in sd_decompose.
    sums = _fold_counts(q_set, SUM, 2, DEFAULT_PAIR_CAP)
    least = _least_pair_count(q_set, sums, sums, symmetry_witness(spec))
    return least * least >= 4 * len(q_set)


def energy_lower_check(B: FiniteSet, spec: CubeSpec, *, cap: int = DEFAULT_ENUM_CAP) -> Verdict:
    """E^+(B, Q) >= |B|^2 sqrt(|Q|) for any B inside a height-1 cube Q."""
    _require_height1(spec)
    q_set = enumerate_cube(spec, cap=cap)
    if any(b not in q_set for b in B.elements):
        raise ValueError("B must be a subset of the cube")
    value = energy_pair(ADDITIVE, B, q_set).value
    q = len(q_set)
    nb = len(B)
    return Verdict(
        name="energy_lower",
        params={"|B|": nb, "|Q|": q, "d": spec.dimension},
        lhs=value,
        rhs=nb * nb * sqrt(q),
        passed=value * value >= nb**4 * q,
    )


def olmezov_sides(
    A: FiniteSet,
    B: FiniteSet,
    D: FiniteSet,
    n: int,
    s: int,
    m: int,
    mode: str = ADDITIVE,
    *,
    term_cap: int = OLMEZOV_TERM_CAP,
    seed: int | None = None,
) -> Verdict:
    """Both sides of the Hoelder chain bounding sigma = #{(x, y) in A x B :
    y - x in D} (y x^{-1} in multiplicative mode).

    lhs = sigma^(mn).  rhs multiplies |A|^((n-1)m) |B|^(s(m-1))
    |D|^((n-s)(m-1)) into the grid sum over shift tuples (x_2..x_m,
    y_1..y_s) of C_m(B)(x)^(n-s) * C_{m+s}(A..A,B..B)(x, y) * prod_{i,j}
    D(y_i - x_j), with x_1 pinned to the identity.  The grid is walked
    through the base point z of the long correlation, so only tuples with
    a live C_{m+s} term are ever touched, and the D-product factorizes
    over the y_i.
    """
    if not (1 <= s < n):
        raise ValueError("need 1 <= s < n")
    if m < 1:
        raise ValueError("need m >= 1")
    op, inverse = mode_ops(mode)
    ring = _require_same_ring(A, B, D)
    if mode == MULTIPLICATIVE and 0 in A:
        raise ValueError("multiplicative mode needs 0 outside A")
    if m > _OLMEZOV_MAX_M:
        raise CapExceededError(f"m = {m} exceeds {_OLMEZOV_MAX_M}")
    # sigma <= |A||B|, and the grid sum has at most |A|^m terms of at most |B|^n.
    la, lb, ld = (log2(max(len(X), 1)) for X in (A, B, D))
    if max(m * n * (la + lb), n * m * la + (n + s * (m - 1)) * lb + (n - s) * (m - 1) * ld) > _MAX_BITS:
        raise CapExceededError(f"the sides would exceed {_MAX_BITS} bits")
    if len(A) ** m * max(len(B), 1) ** s * (m + s) > term_cap:
        raise CapExceededError("shift grid exceeds the term cap")
    comb, undo = _scalar_op(op, ring), _scalar_op(inverse, ring)
    # Each element of A is inverted once: every shift below is a product with
    # one of these, and a product is cheaper than a ratio over F_p.
    inv = {a: undo(0 if op == SUM else 1, a) for a in A.elements}
    d_members = D._members

    sigma = sum(comb(y, ix) in d_members for ix in inv.values() for y in B.elements)
    lhs = sigma ** (m * n)

    coef = len(A) ** ((n - 1) * m) * len(B) ** (s * (m - 1)) * len(D) ** ((n - s) * (m - 1))
    # C_m(B) at each shift tuple, counted once.
    corr_memo: dict = {}
    b_rows = [B._members] * (m - 1)
    grid_sum = 0
    power = n - s
    for z in A.elements:
        iz = inv[z]
        xs_cand = [comb(a, iz) for a in A.elements]
        # The inverse of a z^-1 is z a^-1, so the two products below run in step.
        inv_cand = [comb(z, inv[a]) for a in A.elements]
        ys_cand = [y for y in (comb(b, iz) for b in B.elements) if y in d_members]
        for xs, inv_xs in zip(iter_product(xs_cand, repeat=m - 1), iter_product(inv_cand, repeat=m - 1)):
            cm = corr_memo.get(xs)
            if cm is None:
                cm = corr_memo[xs] = _count_at(B.elements, xs, b_rows, comb)
            if cm == 0:
                continue
            live = 0
            for y in ys_cand:
                for ixj in inv_xs:
                    if comb(y, ixj) not in d_members:
                        break
                else:
                    live += 1
            if live:
                grid_sum += cm**power * live**s
    rhs = coef * grid_sum
    return Verdict(
        name="olmezov",
        params={"n": n, "s": s, "m": m, "mode": mode, "sizes": [len(A), len(B), len(D)]},
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        seed=seed,
    )


def gmr_check(sets, *, cap: int = DEFAULT_PAIR_CAP, seed: int | None = None) -> Verdict:
    """Projection bound for sumsets: with S = A_1 + ... + A_k and S_j the
    sum leaving out A_j, |S|^(k-1) <= prod_j |S_j|."""
    sets = list(sets)
    k = len(sets)
    if k < 2:
        raise ValueError("need at least two sets")
    # prefix[j] sums sets[:j + 1] and suffix[j] sums sets[j + 1:].
    add_sets = partial(pairwise_set, SUM, cap=cap)
    prefix = list(accumulate(sets, add_sets))
    suffix = list(accumulate(reversed(sets[1:]), add_sets))[::-1]
    middle = (add_sets(prefix[j - 1], suffix[j]) for j in range(1, k - 1))
    leave_out_sizes = [len(s_j) for s_j in (suffix[0], *middle, prefix[k - 2])]
    lhs = len(prefix[-1]) ** (k - 1)
    rhs = prod(leave_out_sizes)
    return Verdict(
        name="gmr",
        params={"k": k, "sizes": [len(t) for t in sets], "leave_out": leave_out_sizes},
        lhs=lhs,
        rhs=rhs,
        passed=lhs <= rhs,
        seed=seed,
    )


def shifted_intersection_count(
    S: FiniteSet, x: int, Pi: FiniteSet, *, cap: int = DEFAULT_PAIR_CAP
) -> int:
    """#{(pi1, pi2, q1, q2) in Pi^2 x S^2 : pi1/q1 - pi2/q2 = x} over F_p."""
    ring = S.ring
    if ring.kind != PRIME_FIELD:
        raise ValueError("shifted intersection counting needs field mode")
    if 0 in S:
        raise ValueError("S may not contain 0: its elements are denominators")
    p = ring.modulus
    x = x % p
    ratios = Counter(_pair_keys(RATIO, Pi, S, cap))
    return sum(c * ratios.get((t + x) % p, 0) for t, c in ratios.items())


def intersection_bound_verdict(S: FiniteSet, x: int, Pi: FiniteSet | None = None) -> Verdict:
    """|S and (S - x)| <= count / |S|^2 with Pi defaulting to the product
    set SS, compared without division."""
    ring = S.ring
    p = ring.modulus
    if Pi is None:
        Pi = pairwise_set(PROD, S, S)
    count = shifted_intersection_count(S, x, Pi)
    inter = sum(1 for u in S.elements if (u + x) % p in S)
    lhs = inter * len(S) ** 2
    return Verdict(
        name="shifted_intersection",
        params={"|S|": len(S), "|Pi|": len(Pi), "x": x % p, "p": p},
        lhs=lhs,
        rhs=count,
        passed=lhs <= count,
    )
