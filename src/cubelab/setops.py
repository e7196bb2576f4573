"""Exact pairwise set operations, iterated sums/products, and correlations.

Everything here counts representations exactly: pairwise(op, A, B) returns
both the result set and the full multiplicity map r(x) = #{(a, b) : a op b
= x}.  Ratio sets over the integers are sets of Fractions in lowest terms;
over F_p they are residue sets (zero denominators are always excluded).

All pair arithmetic of the package runs through one kernel, _pair_keys,
which streams a op b over the pairs: a Counter of the stream gives
multiplicities, a set gives values.  A ratio over Z is keyed on its
reduced (num, den), for rationals too: n/d over m/e is (n e, d m) reduced,
so no Fraction is built per pair, only one per distinct value by the
callers that need values.

Sizes and energies are counted by one seam, _power_sum(op, A, B, cap, k),
the sum over x of r(x)^k as an exact int: k = 0 is |A op B|
(pairwise_size), k = 2 the pair energy and k > 2 the k-energy (energy_pair
and energy_k).  When A is B over Z it visits half of the pairs, by
commutativity and reflection.  Either route below counts each visited
pair once; _power_sum alone turns the visited counts c(x) into r(x): for
a sum or product r = 2c - d, d the number of diagonal pairs a op a = x,
and a difference or ratio stands for its mirror image too.  It counts in
one of two ways:

- the Python route, a Counter (a set for k = 0) of _pair_keys: the oracle,
  and the only route for small inputs, for sets holding a Fraction, for
  F_p with p >= 2^31 and when numpy is not installed;
- the numpy lane, for int sets of at least _LANE_MIN_PAIRS pairs: int64
  keys, all sorted at once, each run of equal keys one value.  Over F_p
  (p < 2^31) a key is the residue itself.  Over Z it is the value itself
  where every result fits an int64 (lane A), a ratio's reduced (num, den)
  packed into one key where the elements are below 2^31, and elsewhere a
  fingerprint (lane B, Karp-Rabin): a sum or difference mod q1 q2, the CRT
  image of its residues mod two primes below 2^31, which a product or ratio
  packs into one key; every pair whose key repeats is recounted exactly,
  in Python ints or Fractions.  Sums and differences mod p or q1 q2 take
  one add of residues and no division.

Where a caller needs r(x) itself and not a power sum, the same lane keeps
a count map, _lane_map: sorted unique int64 values with int64 counts,
built from blocks of rows that are sorted and merged in.  It folds r_{kA}
for energy_tk (k >= 3) and iterate_sum: _fold_counts has one step loop,
each step either the count map or _convolve_counts, the oracle, and both
give the keys ascending.  At k = 2 it gives r_{Q+Q} of the popular
sum/difference split, whose checks walk the pairs of Q in _least_pair_count.
It takes int sets whose results fit an int64 (or F_p with p < 2^31) and,
for a fold, fewer than 2^62 k-tuples.

The lane has one gate, _lane_numpy, one pair kernel, _lane_keys, and one
block walk, _lane_blocks (blocks of rows of about _BLOCK_PAIRS pairs),
shared by the power sum, the fold and the split's pair walk.

Both routes give the same counts; numpy is imported only when the lane is
tried, never by ``import cubelab``.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, combinations_with_replacement, product, repeat, starmap
from math import gcd, prod
from operator import add, mod, sub

from .cube import ADDITIVE, MULTIPLICATIVE, CubeSpec, DEFAULT_ENUM_CAP, FiniteSet, enumerate_cube
from .numeric import (_ARITH, DIFF, INTEGERS, PROD, RATIO, SUM, AmbientRing, CapExceededError, _check_results,
                      _scalar_op, mode_ops)

DEFAULT_PAIR_CAP = 1 << 26
DEFAULT_GRID_CAP = 1 << 24

# The numpy lane of _power_sum runs from this many pairs in A x B.  On
# proper growth cubes over Z (A is B, so about half the pairs are visited;
# Python set against numpy lane, best of 25 calls on a 2-vCPU VM) the four
# ops took 0.19-0.98 ms against 0.18-0.45 ms at d=6 (4096 pairs), 0.66-3.1 ms
# against 0.38-0.73 ms at d=7 and 3.2-13.7 ms against 1.4-2.3 ms at d=8.
# The lane's first call also imports numpy (about 0.07 s and 14 MB), which
# calls below d=8 cannot win back; height-1 cubes up to d=7 never pay it.
_LANE_MIN_PAIRS = 1 << 15
# The lane's blocks of rows hold about this many pairs: the largest block at
# which a d=11 growth trial's process peak stays at its floor (fresh process,
# best of 7, 2-vCPU VM): 53.3 MB at 2^13-2^15 pairs, 53.8 at 2^16, 55.2 at
# 2^17, 79.0 at 2^20 (72, 70, 70, 88 ms).  Smaller blocks merge the count map
# more often: T_3 of a d=8 power cube took 53, 47 and 42 ms at 2^13-2^15.
_BLOCK_PAIRS = 1 << 15
# Fingerprint moduli, the largest primes below 2^31.  Sums and differences
# are keyed mod q1 q2 < 2^62, so two residues add within an int64; products
# and ratios pack two residues, whose product fits an int64, into one key.
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


def _check_pair_cap(n: int, m: int, cap: int) -> None:
    if n * m > cap:
        raise CapExceededError(f"{n}x{m} pairs exceed the pair cap {cap}")


def _check_magnitude(ring: AmbientRing, op: str, A: FiniteSet, B: FiniteSet):
    """One up-front bound check instead of one per pair, from the largest
    magnitudes of A and B, which sit at their sorted ends.  A ratio a/b is
    at most |a| over the smallest nonzero |b|, which is below 1 only when B
    holds a Fraction.  Returns _check_results' bound over Z (an int for
    int sets), None elsewhere."""
    if ring.kind != INTEGERS or not A.elements or not B.elements:
        return None
    ma = max(abs(A.elements[0]), abs(A.elements[-1]))
    mb = max(abs(B.elements[0]), abs(B.elements[-1]))
    if op == RATIO:
        least = min((abs(b) for b in B.elements if b), default=1)
        if least < 1:
            ma /= least
    return _check_results(ring, op, ma, mb)


def _check_pairs(op: str, A: FiniteSet, B: FiniteSet, cap: int) -> tuple[AmbientRing, int | None]:
    """The checks every pairing runs first: one ring, a known op, the pair
    cap and the magnitude cap.  Returns the ring and _check_magnitude's
    bound."""
    ring = _require_same_ring(A, B)
    if op not in (SUM, DIFF, PROD, RATIO):
        raise ValueError(f"unknown pairwise op {op!r}")
    _check_pair_cap(len(A), len(B), cap)
    return ring, _check_magnitude(ring, op, A, B)


def _all_ints(*sets: FiniteSet) -> bool:
    return set(map(type, chain.from_iterable(s.elements for s in sets))) <= {int}


def _reduced_keys(op: str, A: FiniteSet, B: FiniteSet) -> bool:
    """True when ratio keys are (num, den) pairs: RATIO over Z."""
    return op == RATIO and A.ring.kind == INTEGERS


def _pair_keys(op: str, A: FiniteSet, B: FiniteSet, cap: int, same: bool = False):
    """The pair kernel: a lazy stream of the keys of a op b, one per pair.

    A key is the value a op b, except that a ratio over Z is keyed on
    (num, den) in lowest terms with den > 0: a gcd and a tuple cost a small
    part of a Fraction, so callers that need values build Fractions once
    per distinct key.  For sets holding a Fraction, n/d over m/e (m > 0) is
    keyed on (n e, d m) reduced.  Ratios skip zero denominators; over F_p
    they are products with the inverses of B.

    Pairs run over A x B, or with same=True (A is B over Z) over the half
    _power_sum visits: i <= j for sum and prod, i < j for diff, and for
    ratios i < j over the absolute values of A's nonzero elements.
    """
    p = _check_pairs(op, A, B, cap)[0].modulus
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
    # generator step per pair; every b > 0, as (x, y) with y < 0 becomes
    # (-x, -y).  Where a set holds a Fraction, bs holds (num, den) pairs.
    ints = _all_ints(A, B)
    cols = list if ints else (lambda xs: [(x.numerator, x.denominator) for x in xs])
    if same:
        pos = [abs(x) for x in ea if x]
        bs = cols(pos)
        rows = ((a, bs[i + 1:]) for i, a in enumerate(pos))
    else:
        pos = cols([b for b in eb if b > 0])
        neg = cols([-b for b in eb if b < 0])
        rows = ((a, pos) for a in ea)
        if neg:
            rows = chain(rows, ((-a, neg) for a in ea))
    if ints:
        keys = ([(a // g, b // g) for b in bs for g in [gcd(a, b)]] for a, bs in rows)
    else:
        keys = ([(x // g, y // g) for m, e in bs for x in [n * e] for y in [d * m] for g in [gcd(x, y)]]
                for n, d, bs in ((a.numerator, a.denominator, bs) for a, bs in rows))
    return chain.from_iterable(keys)


def _power_sum(op: str, A: FiniteSet, B: FiniteSet, cap: int, k: int) -> int:
    """The counting seam: sum over x in A op B of r(x)^k as an exact int,
    r(x) = #{(a, b) : a op b = x}; k = 0 gives |A op B|.

    A is B over Z visits half of the pairs, and only here are the visited
    counts c(x) turned into r(x).  Sum and prod commute: they visit i <= j,
    so r(x) = 2 c(x) - d(x), d(x) the number of diagonal pairs a op a = x.
    Diff visits i < j, whose differences are all negative: r(-x) = r(x) and
    r(0) = |A|.  When the nonzero elements share a sign, ratio visits the
    ratios i < j of their absolute values, which lie on one side of 1:
    the reciprocals have the same counts, r(1) is the number n of nonzero
    elements, and r(0) = n when 0 is in A.  Ratios of a set with both
    signs visit all of A x A.

    The visited pairs are counted on numpy keys where _lane_power_sum
    applies, and by a Counter (a set for k = 0) of _pair_keys otherwise:
    each returns the sum of c(x)^k and c(x) of the diagonal values given.
    """
    ea = A.elements
    same = A is B and A.ring.kind == INTEGERS and not (op == RATIO and ea and ea[0] < 0 < ea[-1])
    # Sizes need no d(x): every value visited is one value of A op A.
    diagonal = Counter(map(_ARITH[op], ea, ea)) if same and k and op in (SUM, PROD) else {}
    power_sum, visited = (_lane_power_sum(op, A, B, cap, k, same, list(diagonal))
                          or _python_power_sum(op, A, B, cap, k, same, list(diagonal)))
    if diagonal:
        # Each (2c)^k of a diagonal value becomes (2c - d)^k.
        return (power_sum << k) + sum((2 * c - d) ** k - (2 * c) ** k for c, d in zip(visited, diagonal.values()))
    if not same or op in (SUM, PROD):
        return power_sum
    zero = op == RATIO and 0 in A
    n = len(ea) - zero
    return 2 * power_sum + (n**k if n else 0) * (1 + zero)


def _python_power_sum(op: str, A: FiniteSet, B: FiniteSet, cap: int, k: int, same: bool, diagonal: list):
    """The oracle route of _power_sum over the pairs it visits: (sum of
    c(x)^k, c(x) of each diagonal value); k = 0 needs only a set of keys."""
    keys = _pair_keys(op, A, B, cap, same)
    if not k:
        return len(set(keys)), []
    counts = Counter(keys)
    return sum(c**k for c in counts.values()), [counts[x] for x in diagonal]


def _lane_power_sum(op: str, A: FiniteSet, B: FiniteSet, cap: int, k: int, same: bool, diagonal: list):
    """_power_sum's route on numpy keys (see the module docstring) over the
    pairs it visits, one count per pair: (sum of c(x)^k, the c(x) of each
    diagonal value), where _lane_numpy opens the lane to the pairs of
    A x B, with no bound on the values: lane B fingerprints big ones.  None
    where the lane does not apply, or hands the input back.

    The keys are sorted; a run of equal keys is one value, whose c is the
    run's length.  Fingerprint runs longer than one pair are recounted
    exactly with Python ints or Fractions; when they hold more than half of
    the pairs, the Python route is as fast, and takes the input.
    """
    ea, eb = A.elements, B.elements
    np = _lane_numpy(A, B, len(ea) * len(eb))
    if np is None:
        return None
    ring, bound = _check_pairs(op, A, B, cap)
    p = ring.modulus
    # Rows xs, columns ys, and with same the pairs j >= i + tri only, as in
    # _pair_keys.  A ratio's value keeps its sign however it is written, so
    # the lane needs no sign rows.
    if op == RATIO and same:
        xs = ys = [abs(x) for x in ea if x]
    else:
        xs, ys = ea, [y for y in eb if y] if op == RATIO else eb
    tri = (op in (DIFF, RATIO)) if same else None
    n_rows, n_cols = len(xs), len(ys)
    total = n_rows * n_cols if tri is None else n_rows * (n_rows + 1 - 2 * tri) // 2
    if not total:
        return 0, []
    exact = p is not None or bound < (1 << 31 if op == RATIO else 1 << 63)
    keys_of = _lane_keys(np, op, xs, ys, p, exact)
    if keys_of is None:
        return None

    def recount(repeated) -> Counter:
        """c(x) of the values of the pairs whose key is in repeated."""
        value_of = Fraction if op == RATIO else _ARITH[op]
        values = Counter()
        for i0, j0, keys, keep in _lane_blocks(np, keys_of, n_rows, n_cols, tri) if len(repeated) else ():
            hit = _find(np, repeated, keys)[1]
            if keep is not None:
                hit &= keep
            values.update(value_of(xs[i0 + r], ys[j0 + c]) for r, c in zip(*(ix.tolist() for ix in np.nonzero(hit))))
        return values

    flat = np.empty(total, np.int64)
    at = 0
    for _, _, keys, keep in _lane_blocks(np, keys_of, n_rows, n_cols, tri):
        keys = keys.ravel() if keep is None else keys[keep]
        flat[at:at + len(keys)] = keys
        at += len(keys)
    flat.sort()
    # A run of L >= 2 equal keys leaves L - 1 of them in dups; a run of one
    # is a value visited once.
    dups = flat[1:][flat[1:] == flat[:-1]]
    del flat
    first = np.flatnonzero(np.concatenate(([True], dups[1:] != dups[:-1])))[:len(dups)]
    repeated, weights = dups[first], np.diff(first, append=len(dups)) + 1
    del dups, first
    in_runs = int(weights.sum())
    if not exact and 2 * in_runs > total:
        return None
    power_sum = total - in_runs
    if not exact:
        values = recount(repeated)
        return power_sum + sum(c**k for c in values.values()), [values.get(x, 1) for x in diagonal]
    visited = np.ones(len(diagonal), np.int64)
    if diagonal:
        at, found = _find(np, repeated, np.array(diagonal, np.int64))
        visited[found] = weights[at[found]]
    return power_sum + _count_power_sum(weights, k), visited.tolist()


def _count_power_sum(counts, k: int) -> int:
    """The sum of c^k over counts in Python ints, as c^k overflows an int64:
    a list, or an int64 array summed over its distinct counts (np.unique),
    with no int per count.  A fold's counts reach 2^62, too large for a
    bincount."""
    if isinstance(counts, list):
        return sum(c**k for c in counts)
    import numpy as np

    values, times = (x.tolist() for x in np.unique(counts, return_counts=True))
    return sum(c**k * t for c, t in zip(values, times))


def _lane_numpy(A: FiniteSet, B: FiniteSet, pairs: int, top=None):
    """The lane's one gate: numpy where the lane runs, else None.  It needs
    at least _LANE_MIN_PAIRS pairs, int elements, Z or F_p with p < 2^31,
    every |value| below 2^63 where top bounds them, and numpy importable."""
    p = A.ring.modulus
    if (pairs < _LANE_MIN_PAIRS or (p is not None and p >= 1 << 31) or (top is not None and top >= 1 << 63)
            or not _all_ints(A, B)):
        return None
    try:
        import numpy as np
    except ImportError:
        return None
    return np


def _lane_keys(np, op: str, xs, ys, p, exact: bool):
    """keys_of(rows, cols), the int64 keys of the pairs xs[i] op ys[j] (ys
    nonzero for ratios) over a block of rows and columns (two slices) as a
    2-D array: the lane's one pair kernel.  When exact, a key is the value
    itself over Z, the residue over F_p (p < 2^31, xs and ys residues), and
    for a ratio over Z the reduced (num, den), den > 0, packed into one
    key.  Otherwise it is a fingerprint: (x +- y) mod q1 q2 for a sum or
    difference, and for a product or ratio its residues mod two primes,
    packed.  None when fewer than two fingerprint primes are usable: a
    ratio's needs the inverse of every b.
    """
    arith = {SUM: np.add, DIFF: np.subtract, PROD: np.multiply, RATIO: np.multiply}[op]

    def outer(q, X, Y):
        """keys_of for X[i] op Y[j], reduced mod q unless q is None."""
        def keys_of(rows, cols):
            keys = arith(X[rows, None], Y[cols])
            return keys if q is None else np.remainder(keys, q, out=keys)

        return keys_of

    if exact and op == RATIO and p is None:
        X, Y = np.asarray(xs, np.int64), np.asarray(ys, np.int64)
        sign, Y = np.sign(Y), np.abs(Y)

        def ratio_keys(rows, cols):
            a, b = X[rows, None] * sign[cols], Y[cols]
            g = np.gcd(a, b)
            keys = a // g
            keys *= 1 << 32
            keys += b // g
            return keys

        return ratio_keys
    if op in (SUM, DIFF) and not (exact and p is None):
        # A sum k of residues lies below 2m < 2^63: as uint64, min(k, k - m) = k mod m.
        m = p or _FINGERPRINT_PRIMES[0] * _FINGERPRINT_PRIMES[1]
        X, Y = ((np.asarray(vs if exact else [v % m for v in vs], np.int64) * sign % m).astype(np.uint64)
                for vs, sign in ((xs, 1), (ys, 1 if op == SUM else -1)))
        m = np.uint64(m)

        def mod_keys(rows, cols):
            keys = X[rows, None] + Y[cols]
            return np.minimum(keys, keys - m, out=keys).view(np.int64)

        return mod_keys
    if exact:
        return outer(p, np.asarray(xs, np.int64),
                     np.asarray([pow(y, -1, p) for y in ys] if op == RATIO else ys, np.int64))
    moduli = [q for q in _FINGERPRINT_PRIMES if op != RATIO or all(y % q for y in ys)][:2]
    if len(moduli) < 2:
        return None
    high, low = (
        outer(q, np.array([x % q for x in xs], np.int64),
              np.array([pow(y, -1, q) if op == RATIO else y % q for y in ys], np.int64))
        for q in moduli
    )
    return lambda rows, cols: high(rows, cols) << 31 | low(rows, cols)


def _lane_blocks(np, keys_of, n_rows: int, n_cols: int, tri=None):
    """The lane's one block walk: (i0, j0, keys, keep) over blocks of rows of
    about _BLOCK_PAIRS pairs, keys[r, c] = keys_of's key of the pair
    (i0 + r, j0 + c).  With tri (0 or 1) only the pairs j >= i + tri are
    visited: j0 = i0 + tri and keep marks them; otherwise j0 = 0 and keep
    is None."""
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


def _lane_map(np, keys_of, n_rows: int, n_cols: int, weights):
    """The count map r(x) = the weight of the pairs (i, j) whose key is x, a
    pair weighing weights[i]: sorted unique int64 keys and their int64
    counts, which must not overflow.  Each block of _lane_blocks is sorted
    into a run of unique keys.  As in a merge sort, a run is merged into
    the one before it while it is at least half as long, so no run is
    sorted twice and each key is merged a logarithmic number of times."""
    runs = []
    for i0, _, block, _ in _lane_blocks(np, keys_of, n_rows, n_cols):
        order = np.argsort(block, axis=None)
        block = block.ravel()[order]
        # The rows of the sorted pairs, in place: temporaries made and freed
        # block after block are what the lane adds to a process's peak RSS.
        order //= n_cols
        order += i0
        first = np.flatnonzero(np.concatenate(([True], block[1:] != block[:-1])))
        runs.append((block[first], np.add.reduceat(weights.take(order), first)))
        while len(runs) > 1 and 2 * len(runs[-1][0]) >= len(runs[-2][0]):
            runs.append(_merge_runs(np, *runs.pop(-2), *runs.pop()))
    while len(runs) > 1:
        runs.append(_merge_runs(np, *runs.pop(-2), *runs.pop()))
    return runs[0]


def _merge_runs(np, keys, counts, more, more_counts):
    """Two runs of sorted unique keys with their counts as one, in time
    linear in their lengths: by searchsorted and insert."""
    at, found = _find(np, keys, more)
    counts[at[found]] += more_counts[found]
    new = ~found
    return np.insert(keys, at[new], more[new]), np.insert(counts, at[new], more_counts[new])


def _find(np, table, keys):
    """(at, found): where each key would go in the sorted table, and
    whether it is there."""
    at = np.searchsorted(table, keys)
    if not len(table):
        return at, np.zeros(at.shape, bool)
    return at, table[np.minimum(at, len(table) - 1)] == keys


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
    """|A op B| without building a sorted set; the fast path for growth trials."""
    return _power_sum(op, A, B, cap, 0)


def _fold_digit_sumset(digits: tuple[int, ...], k: int) -> tuple[int, ...]:
    acc = {0}
    for _ in range(k):
        acc = {c + e for c in acc for e in digits}
    return tuple(sorted(acc))


def _convolve_counts(ring: AmbientRing, keys, counts, values, op: str, cap: int):
    """One step of _fold_counts on the Python route, the count map's oracle:
    the weight of each x op v (mod p over F_p), x of weight count and v in
    values, as two lists, keys ascending.  The pairs come from _pair_keys,
    one row of len(values) keys per x."""
    out: dict = {}
    get = out.get
    pairs = _pair_keys(op, FiniteSet(ring, tuple(keys)), FiniteSet(ring, values), cap)
    for c, row in zip(counts, zip(*[pairs] * len(values))):
        for y in row:
            out[y] = get(y, 0) + c
    keys = sorted(out)
    return keys, [out[y] for y in keys]


def _fold_counts(A: FiniteSet, op: str, k: int, cap: int):
    """r_{kA}: how many k-tuples of elements of A combine under op (sum or
    prod) to each element, as (elements, counts), elements ascending, in
    one loop of k - 1 steps.  A step is the
    count map where the lane opens to the |A|^k k-tuples, which bound every
    step's pairs and counts (fewer than 2^62; 1 < k < 63 keeps the powers
    small where |A| = 1), and over Z to the largest |value| of kA: two
    int64 arrays.  Elsewhere it is _convolve_counts, the oracle: two lists.
    Each step checks, over Z, the magnitude cap first, from the ends of the
    elements, then the pair cap."""
    ring, values, p = A.ring, A.elements, A.ring.modulus
    top = max(map(abs, values)) if ring.kind == INTEGERS and values else None
    tuples = len(values) ** k if 1 < k < 63 else 0
    np = None
    if 0 < tuples < 1 << 62:
        np = _lane_numpy(A, A, tuples, None if top is None else top**k if op == PROD else k * top)
    keys, counts = list(values), [1] * len(values)
    if np is not None:
        keys = values = np.array(values, np.int64)
        counts = np.ones(len(values), np.int64)
    for _ in range(k - 1):
        if top is not None:
            end = max(-keys[0], keys[-1])
            _check_results(ring, op, end if np is None else int(end), top)
        _check_pair_cap(len(keys), len(values), cap)
        if np is None:
            keys, counts = _convolve_counts(ring, keys, counts, values, op, cap)
        else:
            keys, counts = _lane_map(np, _lane_keys(np, op, keys, values, p, True), len(keys), len(values), counts)
    return keys, counts


def _as_lists(keys, counts):
    """A fold's (keys, counts), int64 arrays or sequences, as Python ints."""
    return (keys.tolist(), counts.tolist()) if hasattr(keys, "tolist") else (keys, counts)


def _least_pair_count(Q: FiniteSet, plus, minus, shift) -> int:
    """The least plus(b1 + b2) + minus(b1 - b2 + shift) over the ordered
    pairs of Q (mod p over F_p): the popular sum/difference split's one pair
    walk.  A table is (values ascending, counts), and a value missing from
    it counts 0.  The lane walks _lane_blocks of the sum and difference
    kernels, with columns b2 - shift, and looks up with _find; the Python
    route looks the _pair_keys streams up in dicts, minus's values moved by
    -shift."""
    n, p = len(Q), Q.ring.modulus
    np = _lane_numpy(Q, Q, n * n, _check_pairs(SUM, Q, Q, DEFAULT_PAIR_CAP)[1])
    if np is None:
        (values, counts), (moved, more) = (_as_lists(*table) for table in (plus, minus))
        moved = map(sub, moved, repeat(shift))
        if p is not None:
            moved = map(mod, moved, repeat(p))
        plus, minus = dict(zip(values, counts)).get, dict(zip(moved, more)).get
        sums, diffs = (_pair_keys(op, Q, Q, DEFAULT_PAIR_CAP) for op in (SUM, DIFF))
        return min(map(add, map(plus, sums, repeat(0)), map(minus, diffs, repeat(0))))
    # found zeroes a missing value's count; a key past the last value, or any
    # key of an empty table, takes the 0 appended to the counts.
    tables = [(np.asarray(values, np.int64), np.append(np.asarray(counts, np.int64), 0))
              for values, counts in (plus, minus)]

    def counts_of(table, keys):
        at, found = _find(np, table[0], keys)
        return table[1].take(at) * found

    # b1 - b2 + shift = b1 - (b2 - shift): the difference kernel takes the
    # columns moved.  Over Z the split's b2 - w = -(w - b2) lies in -Q.
    moved = [y - shift if p is None else (y - shift) % p for y in Q.elements]
    blocks = (_lane_blocks(np, _lane_keys(np, op, Q.elements, ys, p, True), n, n)
              for op, ys in ((SUM, Q.elements), (DIFF, moved)))
    return min(int((counts_of(tables[0], s) + counts_of(tables[1], d)).min())
               for (_, _, s, _), (_, _, d, _) in zip(*blocks))


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
    keys, counts = _as_lists(*_fold_counts(enumerate_cube(spec, cap=enum_cap), SUM, k, pair_cap))
    if set(keys) != set(value_set.elements):
        raise AssertionError("convolution support disagrees with direct enumeration")
    return value_set, MultiplicityMap(ring, dict(zip(keys, counts)))


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


def _count_at(base, point, members, shift) -> int:
    """#{z in base : shift(z, x) in m for x, m in zip(point, members)}."""
    total = 0
    checks = tuple(zip(point, members))
    for z in base:
        for x, m in checks:
            if shift(z, x) not in m:
                break
        else:
            total += 1
    return total


def correlation(mode: str, sets, shifts="all", *, grid_cap: int = DEFAULT_GRID_CAP) -> CorrelationTable:
    """Higher correlation of k+1 sets: sum over z of the shifted indicators.

    shifts: a list of k-tuples to evaluate one by one, or "all" for every
    tuple with a nonzero count.  Explicit shifts are probes, never capped.
    "all" walks the base point, after one magnitude check per later set:
    each z in A_1 adds one to every tuple of prod_i (A_{i+1} op^-1 {z}).  It
    raises past grid_cap tuples at one base point or entries in the table,
    both at most the grid prod_i (A_{i+1} op^-1 A_1).  Multiplicative mode
    skips z = 0, which has no inverse: 0 shifts to 0 only, so it would count
    only if 0 were in every set, whose support is infinite and rejected.
    """
    op, inverse = mode_ops(mode)
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("correlation needs at least two sets")
    ring = _require_same_ring(*sets)
    k = len(sets) - 1
    base, later = sets[0], sets[1:]
    table: dict = {}
    if shifts != "all":
        members = [s._members for s in later]
        shift = _scalar_op(op, ring)
        for point in shifts:
            # A shift is a probe: reduced over F_p, never capped over Z.
            point = tuple(point) if ring.modulus is None else tuple(map(ring.normalize, point))
            if len(point) != k:
                raise ValueError(f"shift tuple {point} has arity {len(point)}, expected {k}")
            table[point] = _count_at(base.elements, point, members, shift)
        return CorrelationTable(mode=mode, arity=k, table=table)
    if mode == MULTIPLICATIVE and all(0 in s for s in sets):
        raise ValueError("correlation support is not finite: 0 lies in every set")
    for s in later:
        _check_magnitude(ring, inverse, s, base)
    undo = _scalar_op(inverse, ring)
    tuples = prod(map(len, later))
    for z in base.elements:
        if inverse == RATIO and not z:
            continue
        if tuples > grid_cap:
            raise CapExceededError(f"correlation walk of {tuples} tuples at one base point exceeds cap {grid_cap}")
        for point in product(*([undo(a, z) for a in s.elements] for s in later)):
            table[point] = table.get(point, 0) + 1
        if len(table) > grid_cap:
            raise CapExceededError(f"correlation table of {len(table)} entries exceeds cap {grid_cap}")
    return CorrelationTable(mode=mode, arity=k, table=table)

