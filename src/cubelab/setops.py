"""Exact pairwise set operations, iterated sums/products, and correlations.

Everything here counts representations exactly: pairwise(op, A, B) returns
both the result set and the full multiplicity map r(x) = #{(a, b) : a op b
= x}.  Ratio sets over the integers are sets of Fractions in lowest terms;
over F_p they are residue sets (zero denominators are always excluded).

All pair arithmetic of the package runs through one kernel, _pair_keys,
which streams a op b over the pairs: a Counter of the stream gives
multiplicities, a set gives values and sizes.  Size-only variants
(pairwise_set, pairwise_size) skip the counting and use commutativity /
reflection shortcuts, which matters when the inputs have thousands of
elements.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product, repeat, starmap
from math import gcd
from operator import mod

from .cube import ADDITIVE, MULTIPLICATIVE, CubeSpec, DEFAULT_ENUM_CAP, FiniteSet, enumerate_cube
from .numeric import _ARITH, DIFF, INTEGERS, PROD, RATIO, SUM, AmbientRing, CapExceededError, mode_ops

DEFAULT_PAIR_CAP = 1 << 26
DEFAULT_GRID_CAP = 1 << 24


@dataclass(frozen=True)
class MultiplicityMap:
    """r(x): how many input pairs produced each element."""

    ring: AmbientRing
    counts: dict

    def mass(self) -> int:
        return sum(self.counts.values())

    def support(self) -> FiniteSet:
        return FiniteSet(self.ring, tuple(sorted(self.counts)))

    def __getitem__(self, x) -> int:
        return self.counts.get(x, 0)

    def items(self):
        return sorted(self.counts.items())

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["element", "count"])
        for x, c in self.items():
            writer.writerow([str(x), c])
        return buf.getvalue()


def _require_same_ring(A: FiniteSet, B: FiniteSet) -> AmbientRing:
    if A.ring != B.ring:
        raise ValueError("operands live in different rings")
    return A.ring


def _check_pair_cap(A: FiniteSet, B: FiniteSet, cap: int) -> None:
    if len(A) * len(B) > cap:
        raise CapExceededError(f"{len(A)}x{len(B)} pairs exceed cap {cap}")


def _check_magnitude(ring: AmbientRing, op: str, A: FiniteSet, B: FiniteSet) -> None:
    """One up-front bound check instead of one per pair."""
    if ring.kind != INTEGERS or not A.elements or not B.elements:
        return
    if any(isinstance(x, Fraction) for x in (A.elements[0], A.elements[-1], B.elements[0], B.elements[-1])):
        return
    ma = max(abs(A.elements[0]), abs(A.elements[-1]))
    mb = max(abs(B.elements[0]), abs(B.elements[-1]))
    worst = ma + mb if op in (SUM, DIFF) else ma * mb if op == PROD else 0
    if worst > ring.magnitude_cap:
        raise CapExceededError(f"{op} results would exceed the magnitude cap")


def _reduced_keys(op: str, A: FiniteSet, B: FiniteSet) -> bool:
    """True when ratio keys are (num, den) pairs: RATIO over Z, all ints."""
    return (
        op == RATIO
        and A.ring.kind == INTEGERS
        and set(map(type, chain(A.elements, B.elements))) <= {int}
    )


def _pair_keys(op: str, A: FiniteSet, B: FiniteSet, cap: int, same: bool = False):
    """The pair kernel: a lazy stream of the keys of a op b, one per pair.

    A key is the value a op b, except that a ratio over Z of int sets is
    keyed on (num, den) in lowest terms with den > 0: a gcd and a tuple
    cost a small part of a Fraction, so callers that need values build
    Fractions once per distinct key.  Sets holding a Fraction key ratios
    on Fraction(a, b).  Ratios skip zero denominators; over F_p they are
    products with the inverses of B.

    Pairs run over A x B, or with same=True (A is B over Z) over one pair
    of each mirrored couple: i <= j for sum and prod, i < j for diff and
    ratio, whose other halves _value_set restores.
    """
    ring = _require_same_ring(A, B)
    if op not in (SUM, DIFF, PROD, RATIO):
        raise ValueError(f"unknown pairwise op {op!r}")
    _check_pair_cap(A, B, cap)
    _check_magnitude(ring, op, A, B)
    p = ring.modulus
    ea, eb = A.elements, B.elements
    if op == RATIO and p is not None:
        op, eb = PROD, [pow(b, -1, p) for b in eb if b]
    if op != RATIO:
        if not same:
            pairs = product(ea, eb)
        elif op == DIFF:
            pairs = combinations(ea, 2)
        else:
            pairs = combinations_with_replacement(ea, 2)
        keys = starmap(_ARITH[op], pairs)
        return keys if p is None else map(mod, keys, repeat(p))
    # Ratios run in rows (a, bs), a list of keys per row being faster than a
    # generator step per pair; every b > 0, as (x, y) with y < 0 becomes (-x, -y).
    if same:
        neg = [-x for x in ea if x < 0]
        pos = [x for x in ea if x > 0]
        rows = chain(((a, neg[i + 1:]) for i, a in enumerate(neg)), ((-a, pos) for a in neg),
                     ((a, pos[i + 1:]) for i, a in enumerate(pos)))
    else:
        pos = [b for b in eb if b > 0]
        neg = [-b for b in eb if b < 0]
        rows = ((a, pos) for a in ea)
        if neg:
            rows = chain(rows, ((-a, neg) for a in ea))
    if _reduced_keys(RATIO, A, B):
        keys = ([(a // g, b // g) for b in bs for g in [gcd(a, b)]] for a, bs in rows)
    else:
        keys = ([Fraction(a, b) for b in bs] for a, bs in rows)
    return chain.from_iterable(keys)


def _value_set(op: str, A: FiniteSet, B: FiniteSet, cap: int, size_only: bool = False):
    """The distinct keys of A op B, or with size_only their number.

    The same operand on both sides over Z halves the work: sum and prod
    commute, and the pairs j < i of diff and ratio give the negations and
    reciprocals of the pairs i < j, the diagonal 0 or 1 (and 0 / x gives
    0).  The visited differences are all negative, and the visited ratios
    all lie on one side of 1 when the nonzero elements share a sign; then
    the size needs no mirror images.
    """
    same = A is B and A.ring.kind == INTEGERS
    keys = set(_pair_keys(op, A, B, cap, same))
    ea = A.elements
    if not (same and op in (DIFF, RATIO) and ea):
        return len(keys) if size_only else keys
    if op == DIFF:
        fixed, one_sided = [0], True
    else:
        has_zero = 0 in A
        fixed = ([1, 0] if has_zero else [1]) if len(ea) > has_zero else []
        one_sided = not ea[0] < 0 < ea[-1]
    if size_only and one_sided:
        return 2 * len(keys) + len(fixed)
    if op == DIFF:
        mirror = [-x for x in keys]
    elif _reduced_keys(RATIO, A, A):
        mirror = [(d, n) if n > 0 else (-d, -n) for n, d in keys]
        fixed = [(v, 1) for v in fixed]
    else:
        mirror = [1 / x for x in keys]
        fixed = [Fraction(v) for v in fixed]
    keys.update(mirror)
    keys.update(fixed)
    return len(keys) if size_only else keys


def pairwise(op: str, A: FiniteSet, B: FiniteSet, *, cap: int = DEFAULT_PAIR_CAP):
    """(result set, multiplicity map) for A op B, op in sum/diff/prod/ratio.

    Ratio skips pairs with zero denominator; its mass is |A| * |B \\ {0}|.
    """
    counts = Counter(_pair_keys(op, A, B, cap))
    if _reduced_keys(op, A, B):
        counts = {Fraction(n, d): c for (n, d), c in counts.items()}
    return FiniteSet(A.ring, tuple(sorted(counts))), MultiplicityMap(A.ring, counts)


def pairwise_set(op: str, A: FiniteSet, B: FiniteSet, *, cap: int = DEFAULT_PAIR_CAP) -> FiniteSet:
    """Result set only; multiplicities are not tracked."""
    values = _value_set(op, A, B, cap)
    if _reduced_keys(op, A, B):
        values = starmap(Fraction, values)
    return FiniteSet(A.ring, tuple(sorted(values)))


def pairwise_size(op: str, A: FiniteSet, B: FiniteSet, *, cap: int = DEFAULT_PAIR_CAP) -> int:
    """|A op B| without building a sorted set; the fast path for growth trials."""
    return _value_set(op, A, B, cap, size_only=True)


def _fold_digit_sumset(digits: tuple[int, ...], k: int) -> tuple[int, ...]:
    acc = {0}
    for _ in range(k):
        acc = {c + e for c in acc for e in digits}
    return tuple(sorted(acc))


def _convolve_counts(ring: AmbientRing, counts: dict, values: tuple, op: str, cap: int) -> dict:
    if len(counts) * len(values) > cap:
        raise CapExceededError("convolution step exceeds the pair cap")
    out: dict = {}
    get = out.get
    p = ring.modulus
    if op == SUM:
        if p is None:
            for x, c in counts.items():
                for v in values:
                    y = x + v
                    out[y] = get(y, 0) + c
        else:
            for x, c in counts.items():
                for v in values:
                    y = (x + v) % p
                    out[y] = get(y, 0) + c
    elif op == PROD:
        if p is None:
            for x, c in counts.items():
                for v in values:
                    y = x * v
                    out[y] = get(y, 0) + c
        else:
            for x, c in counts.items():
                for v in values:
                    y = (x * v) % p
                    out[y] = get(y, 0) + c
    else:
        raise ValueError(f"cannot convolve with op {op!r}")
    return out


def _fold_counts(ring: AmbientRing, values: tuple, op: str, k: int, cap: int) -> dict:
    """r_{kA}: how many k-tuples of values combine under op to each element."""
    counts = dict.fromkeys(values, 1)
    for _ in range(k - 1):
        counts = _convolve_counts(ring, counts, values, op, cap)
    return counts


def _scalar_op(op: str, ring: AmbientRing):
    """a op b on two elements of ring: the ring's cap-checked +, - and x over
    Z, where a ratio is a Fraction; residues over F_p, where a ratio
    multiplies by the inverse of b."""
    p = ring.modulus
    if p is None:
        return {SUM: ring.add, DIFF: ring.sub, PROD: ring.mul, RATIO: Fraction}[op]
    return {
        SUM: lambda a, b: (a + b) % p,
        DIFF: lambda a, b: (a - b) % p,
        PROD: lambda a, b: a * b % p,
        RATIO: lambda a, b: a * pow(b, -1, p) % p,
    }[op]


def iterate_sum(
    spec: CubeSpec,
    k: int,
    *,
    with_multiplicities: bool = True,
    enum_cap: int = DEFAULT_ENUM_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
):
    """k-fold sumset kQ of an additive cube, optionally with r_kQ counts.

    The value set needs no convolution: summing k digit vectors coordinate
    by coordinate shows kQ is itself a cube over the k-fold digit sumset,
    so it is enumerated directly.  Multiplicities (representation counts
    over the *set* Q) come from k-1 convolution steps with the indicator
    of Q.
    """
    if spec.mode != ADDITIVE:
        raise ValueError("iterated sumsets are defined for additive cubes")
    if k < 1:
        raise ValueError("k must be at least 1")
    ring = spec.ring
    kd = _fold_digit_sumset(spec.digits, k)
    folded = CubeSpec(
        ring=ring, a0=spec.a0 * k, generators=spec.generators, digits=kd, mode=ADDITIVE
    )
    value_set = enumerate_cube(folded, cap=enum_cap)
    if not with_multiplicities:
        return value_set, None
    counts = _fold_counts(ring, enumerate_cube(spec, cap=enum_cap).elements, SUM, k, pair_cap)
    if set(counts) != set(value_set.elements):
        raise AssertionError("convolution support disagrees with direct enumeration")
    return value_set, MultiplicityMap(ring, counts)


def iterate_prod(Q: FiniteSet, n: int, *, cap: int = DEFAULT_PAIR_CAP) -> FiniteSet:
    """n-fold product set Q^(n) = Q * ... * Q.

    On a cap overflow the raised error carries .largest_n and .sizes for
    the prefix that did complete.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    acc = Q
    sizes = [len(Q)]
    for step in range(2, n + 1):
        try:
            acc = pairwise_set(PROD, acc, Q, cap=cap)
        except CapExceededError as exc:
            exc.largest_n = step - 1
            exc.sizes = sizes
            raise
        sizes.append(len(acc))
    return acc


@dataclass(frozen=True)
class CorrelationTable:
    """Counts C(x_1..x_k) = #{z : z in A_1, z op x_i in A_{i+1} for all i}."""

    mode: str
    arity: int
    table: dict

    def count(self, shifts) -> int:
        return self.table.get(tuple(shifts), 0)

    def items(self):
        return sorted(self.table.items())


def correlation(mode: str, sets, shifts="all", *, grid_cap: int = DEFAULT_GRID_CAP) -> CorrelationTable:
    """Higher correlation of k+1 sets: sum over z of the shifted indicators.

    shifts: either a list of k-tuples to evaluate, or "all" to enumerate
    the whole (finite) support grid.  In multiplicative mode the support
    is infinite when every set contains 0, which is rejected.
    """
    op, inverse = mode_ops(mode)
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("correlation needs at least two sets")
    ring = sets[0].ring
    for s in sets[1:]:
        if s.ring != ring:
            raise ValueError("correlation sets live in different rings")
    k = len(sets) - 1
    base = sets[0]
    members = [s._members for s in sets]
    shift = _scalar_op(op, ring)

    def evaluate(point) -> int:
        total = 0
        for z in base.elements:
            for x, m in zip(point, members[1:]):
                if shift(z, x) not in m:
                    break
            else:
                total += 1
        return total

    table: dict = {}
    if shifts == "all":
        if mode == MULTIPLICATIVE and all(0 in m for m in members):
            raise ValueError("correlation support is not finite: 0 lies in every set")
        # The cap admits every pair: the grid cap below is the limit here.
        candidates = [pairwise_set(inverse, s, base, cap=len(s) * len(base)).elements for s in sets[1:]]
        grid = 1
        for cand in candidates:
            grid *= len(cand)
        if grid > grid_cap:
            raise CapExceededError(f"correlation grid of {grid} points exceeds cap {grid_cap}")
        for point in product(*candidates):
            c = evaluate(point)
            if c:
                table[point] = c
    else:
        for point in shifts:
            point = tuple(ring.normalize(x) for x in point)
            if len(point) != k:
                raise ValueError(f"shift tuple {point} has arity {len(point)}, expected {k}")
            table[point] = evaluate(point)
    return CorrelationTable(mode=mode, arity=k, table=table)
