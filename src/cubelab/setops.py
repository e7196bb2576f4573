"""Exact pairwise set operations, iterated sums/products, and correlations.

Everything here counts representations exactly: pairwise(op, A, B) returns
both the result set and the full multiplicity map r(x) = #{(a, b) : a op b
= x}.  Ratio sets over the integers are sets of Fractions in lowest terms;
over F_p they are residue sets (zero denominators are always excluded).

All pair arithmetic of the package runs through one kernel, _pair_keys,
which streams a op b over the pairs: a Counter of the stream gives
multiplicities, a set gives values.  Only pairwise_size, which needs no
values, halves the pairs of a same-operand count, by commutativity and
reflection.

Sizes (pairwise_size) are counted by _count_distinct, in one of two lanes:

- the Python lane, len(set(_pair_keys(...))): the oracle, and the only lane
  for small inputs, for sets holding a Fraction, for F_p with p >= 2^31 and
  when numpy is not installed;
- the numpy lane, for int sets of at least _LANE_MIN_PAIRS pairs: int64 keys
  built block by block, sorted, and their runs counted.  Over F_p (p < 2^31)
  a key is the residue itself; over Z it is a fingerprint, the value's
  residues mod two primes below 2^31 (Karp-Rabin), and every pair whose key
  repeats is recounted exactly with Python ints or Fractions.

Both lanes give the same size; numpy is imported only when the numpy lane
is tried, never by ``import cubelab``.
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

# The numpy lane of _count_distinct runs from this many pairs in A x B.  On
# proper growth cubes over Z (A is B, so about half the pairs are visited;
# Python set against numpy lane, best of 25 calls on a 2-vCPU VM) the four
# ops took 0.19-0.98 ms against 0.18-0.45 ms at d=6 (4096 pairs), 0.66-3.1 ms
# against 0.38-0.73 ms at d=7 and 3.2-13.7 ms against 1.4-2.3 ms at d=8.
# The lane's first call also imports numpy (about 0.07 s and 14 MB), which
# calls below d=8 cannot win back; height-1 cubes up to d=7 never pay it.
_LANE_MIN_PAIRS = 1 << 15
# The numpy lane builds its keys in blocks of rows of about this many pairs.
_BLOCK_PAIRS = 1 << 20
# Fingerprint moduli, the largest primes below 2^31: a product of two
# residues fits in int64, and two residues pack into one 62-bit key.
_FINGERPRINT_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549)


@dataclass(frozen=True)
class MultiplicityMap:
    """r(x): how many input pairs produced each element."""

    ring: AmbientRing
    counts: dict

    def mass(self) -> int:
        return sum(self.counts.values())

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


def _require_same_ring(*sets: FiniteSet) -> AmbientRing:
    ring = sets[0].ring
    if any(s.ring != ring for s in sets[1:]):
        raise ValueError("operands live in different rings")
    return ring


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


def _check_pairs(op: str, A: FiniteSet, B: FiniteSet, cap: int) -> AmbientRing:
    """The checks every pairing runs first: one ring, a known op, the pair
    cap and the magnitude cap."""
    ring = _require_same_ring(A, B)
    if op not in (SUM, DIFF, PROD, RATIO):
        raise ValueError(f"unknown pairwise op {op!r}")
    _check_pair_cap(A, B, cap)
    _check_magnitude(ring, op, A, B)
    return ring


def _all_ints(*sets: FiniteSet) -> bool:
    return set(map(type, chain.from_iterable(s.elements for s in sets))) <= {int}


def _reduced_keys(op: str, A: FiniteSet, B: FiniteSet) -> bool:
    """True when ratio keys are (num, den) pairs: RATIO over Z, all ints."""
    return op == RATIO and A.ring.kind == INTEGERS and _all_ints(A, B)


def _pair_keys(op: str, A: FiniteSet, B: FiniteSet, cap: int, same: bool = False):
    """The pair kernel: a lazy stream of the keys of a op b, one per pair.

    A key is the value a op b, except that a ratio over Z of int sets is
    keyed on (num, den) in lowest terms with den > 0: a gcd and a tuple
    cost a small part of a Fraction, so callers that need values build
    Fractions once per distinct key.  Sets holding a Fraction key ratios
    on Fraction(a, b).  Ratios skip zero denominators; over F_p they are
    products with the inverses of B.

    Pairs run over A x B, or with same=True (A is B over Z) over the half
    pairwise_size counts: i <= j for sum and prod, i < j for diff, and for
    ratios i < j over the absolute values of A's nonzero elements.
    """
    p = _check_pairs(op, A, B, cap).modulus
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
        pos = [abs(x) for x in ea if x]
        rows = ((a, pos[i + 1:]) for i, a in enumerate(pos))
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


def _count_distinct(op: str, A: FiniteSet, B: FiniteSet, cap: int, same: bool) -> int:
    """len(set(_pair_keys(op, A, B, cap, same))), on numpy keys where that
    lane applies (see the module docstring): int elements, Z or F_p with
    p < 2^31, at least _LANE_MIN_PAIRS pairs in A x B, and numpy importable.

    Over Z the keys are fingerprints mod two of _FINGERPRINT_PRIMES; the
    pairs whose fingerprint repeats are recounted exactly.  When they are
    more than half of the pairs, the Python lane is as fast, and takes the
    input.
    """
    ea, eb = A.elements, B.elements

    def python() -> int:
        return len(set(_pair_keys(op, A, B, cap, same)))

    if len(ea) * len(eb) < _LANE_MIN_PAIRS:
        return python()
    p = _check_pairs(op, A, B, cap).modulus
    if (p is not None and p >= 1 << 31) or not _all_ints(A, B):
        return python()
    try:
        import numpy as np
    except ImportError:
        return python()
    # Rows xs, columns ys, and with same the pairs j >= i + tri only, as in
    # _pair_keys.  A ratio's value keeps its sign however it is written, so
    # the lane needs no sign rows.
    if op == RATIO and same:
        xs = ys = [abs(x) for x in ea if x]
    else:
        xs, ys = ea, [y for y in eb if y] if op == RATIO else eb
    tri = (op in (DIFF, RATIO)) if same else None
    keys_of = _lane_keys(np, op, xs, ys, p)
    if keys_of is None:
        return python()
    n_rows, n_cols = len(xs), len(ys)
    total = n_rows * n_cols if tri is None else n_rows * (n_rows + 1 - 2 * tri) // 2
    if not total:
        return 0

    def blocks():
        """(i0, j0, keys, keep): keys[r, c] is the key of the pair
        (xs[i0 + r], ys[j0 + c]); keep marks the visited pairs, or is None."""
        step = max(1, _BLOCK_PAIRS // n_cols)
        for i0 in range(0, n_rows, step):
            rows = slice(i0, min(n_rows, i0 + step))
            if tri is None:
                yield i0, 0, keys_of(rows, slice(None)), None
                continue
            j0 = i0 + tri
            keys = keys_of(rows, slice(j0, None))
            r, c = np.indices(keys.shape, sparse=True)
            yield i0, j0, keys, c >= r

    flat = np.empty(total, np.int64)
    at = 0
    for _, _, keys, keep in blocks():
        keys = keys.ravel() if keep is None else keys[keep]
        flat[at:at + len(keys)] = keys
        at += len(keys)
    flat.sort()
    dup = flat[1:] == flat[:-1]
    n_dup = int(np.count_nonzero(dup))
    if p is not None or not n_dup:
        return total - n_dup
    # Pairs whose fingerprint repeats: n_dup + len(repeated) of them.
    repeated = np.unique(flat[1:][dup])
    del flat, dup
    if 2 * (n_dup + len(repeated)) > total:
        return python()
    exact = Fraction if op == RATIO else _ARITH[op]
    values = set()
    for i0, j0, keys, keep in blocks():
        hit = repeated[np.minimum(np.searchsorted(repeated, keys), len(repeated) - 1)] == keys
        if keep is not None:
            hit &= keep
        for r, c in zip(*np.nonzero(hit)):
            values.add(exact(xs[i0 + r], ys[j0 + c]))
    return total - n_dup - len(repeated) + len(values)


def _lane_keys(np, op: str, xs, ys, p):
    """keys_of(rows, cols), the int64 keys of the pairs xs[i] op ys[j] (ys
    nonzero for ratios) over a block of rows and columns (two slices) as a
    2-D array: residues mod p over F_p, fingerprints mod two primes over Z.
    None when fewer than two fingerprint primes are usable: a ratio's needs
    the inverse of every b.
    """
    if p is None:
        moduli = [q for q in _FINGERPRINT_PRIMES if op != RATIO or all(y % q for y in ys)][:2]
        if len(moduli) < 2:
            return None
    else:
        moduli = [p]
    arith = {SUM: np.add, DIFF: np.subtract, PROD: np.multiply, RATIO: np.multiply}[op]
    residues = [
        (q, np.array([x % q for x in xs], np.int64),
         np.array([pow(y, -1, q) if op == RATIO else y % q for y in ys], np.int64))
        for q in moduli
    ]

    def keys_of(rows, cols):
        keys = None
        for q, X, Y in residues:
            r = arith(X[rows, None], Y[cols])
            np.remainder(r, q, out=r)
            if keys is None:
                keys = r
            else:
                keys <<= 31
                keys |= r
        return keys

    return keys_of


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
    values = set(_pair_keys(op, A, B, cap))
    if _reduced_keys(op, A, B):
        values = starmap(Fraction, values)
    return FiniteSet(A.ring, tuple(sorted(values)))


def pairwise_size(op: str, A: FiniteSet, B: FiniteSet, *, cap: int = DEFAULT_PAIR_CAP) -> int:
    """|A op B| without building a sorted set; the fast path for growth trials.

    A is B over Z halves the work: sum and prod commute; the differences
    i < j are all negative, the pairs j < i their negations and 0 the
    diagonal.  When the nonzero elements share a sign, the ratios i < j of
    their absolute values lie on one side of 1 and their reciprocals on the
    other; 1 is the diagonal, and 0 / x = 0 when 0 is in A.  Ratios of a
    set with both signs count all of A x A.
    """
    ea = A.elements
    same = A is B and A.ring.kind == INTEGERS and not (op == RATIO and ea and ea[0] < 0 < ea[-1])
    c = _count_distinct(op, A, B, cap, same)
    if not same or op in (SUM, PROD):
        return c
    if op == DIFF:
        return 2 * c + bool(ea)
    has_zero = 0 in A
    return 2 * c + 1 + has_zero if len(ea) > has_zero else 0


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
    else:  # PROD, the only other op of iterate_sum and energy_tk
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
    sizes = []
    try:
        for power in _product_powers(Q, cap):
            sizes.append(len(power))
            if len(sizes) == n:
                return power
    except CapExceededError as exc:
        exc.largest_n = len(sizes)
        exc.sizes = sizes
        raise


def _product_powers(Q: FiniteSet, cap: int):
    """Q, Q^(2), Q^(3), ... without end: each step is pairwise_set(PROD, last,
    Q), so a step past the pair or magnitude cap raises CapExceededError."""
    power = Q
    while True:
        yield power
        power = pairwise_set(PROD, power, Q, cap=cap)


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
    ring = _require_same_ring(*sets)
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
