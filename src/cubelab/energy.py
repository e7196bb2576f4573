"""Additive and multiplicative energies, exactly.

The pair energy of (A, B) counts quadruples a1 + b1 = a2 + b2 (respectively
a1 b1 = a2 b2); it equals the sum of squared representation counts of A + B
and of A - B, and both routes are computed and compared on every call.  The
k-energy sums r_{A-A}(x)^k, and T_k sums r_{kA}(x)^2 over the k-fold sumset.

Pair energies, k-energies and T_2 (the pair energy of A with itself) are
power sums of representation counts, so they are counted by
setops._power_sum, the seam that also counts sizes: with A is B over Z it
visits half of the pairs and weighs each, and with numpy installed it
counts large int sets on sorted int64 keys (exact values, residues or
fingerprints) instead of a Counter of every pair.  T_k for k >= 3 sums the
squares of r_{kA}, folded by setops._fold_counts, on the numpy count map
where it applies.

For interval cubes with power generators b^(j-1) and b large enough, digit
sums never interact, so T_k and E_k factor coordinate-wise into closed
forms built from bounded-composition counts; those closed forms live here
too, next to the floor/ceiling exponent bounds they calibrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import add, mod, mul

from .cube import ADDITIVE, CubeSpec, DEFAULT_ENUM_CAP, FiniteSet, enumerate_cube
from .numeric import _MAX_BITS, RATIO, SUM, CapExceededError, mode_ops
from .setops import DEFAULT_PAIR_CAP, _count_power_sum, _fold_counts, _power_sum

BRUTE_FORCE_THRESHOLD = 10**4


@dataclass(frozen=True)
class EnergyReport:
    kind: str  # eplus | etimes | ek | tk
    k: int
    value: int
    inputs: tuple[str, ...]
    method: str  # always convolution; the brute-force pass only cross-checks

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "value": str(self.value),
            "inputs": list(self.inputs),
            "method": self.method,
        }


def _brute_pair_energy(mode: str, A: FiniteSet, B: FiniteSet) -> int:
    """Quadruple count by intersecting images a op B, pair by pair.

    b -> a op b is one to one for every a when adding and for a != 0 when
    multiplying (over Z, on Fractions and over F_p), so each common value
    of a1 op B and a2 op B is exactly one quadruple.  A zero a1 = a2 matches
    all |B|^2 pairs (b1, b2), and a zero beside a nonzero a matches only b = 0.
    """
    p = A.ring.modulus
    op = add if mode == ADDITIVE else mul
    rows = []
    for a in A.elements:
        if a or mode == ADDITIVE:
            image = map(op, repeat(a), B.elements)
            rows.append(frozenset(image if p is None else map(mod, image, repeat(p))))
    n = len(B)
    total = len(rows) * n + 2 * sum(len(r & s) for r, s in combinations(rows, 2))
    if len(rows) < len(A):  # a = 0 was left out
        total += n * n + 2 * len(rows) * n * (0 in B)
    return total


def energy_pair(
    mode: str,
    A: FiniteSet,
    B: FiniteSet | None = None,
    *,
    cap: int = DEFAULT_PAIR_CAP,
) -> EnergyReport:
    """Pair energy of (A, B); B defaults to A.

    Additive: computed as sum r_{A+B}^2 and cross-checked against
    sum r_{A-B}^2.  Multiplicative: computed over the product set; the
    ratio-set route only counts quadruples with nonzero b's, so it is used
    as a cross-check exactly when 0 is not in B.  Inputs of at most
    BRUTE_FORCE_THRESHOLD pairs get a third pass, independent of setops:
    the quadruples are counted as common values of the images a1 op B and
    a2 op B, one frozenset intersection per pair (a1, a2), so |A|^2 |B|
    membership tests in all.
    """
    if B is None:
        B = A
    op, inverse = mode_ops(mode)
    value = _power_sum(op, A, B, cap, 2)
    if (inverse != RATIO or 0 not in B) and value != _power_sum(inverse, A, B, cap, 2):
        raise AssertionError(f"{op} and {inverse} energy routes disagree")
    if len(A) * len(B) <= BRUTE_FORCE_THRESHOLD:
        if value != _brute_pair_energy(mode, A, B):
            raise AssertionError("convolution and brute-force energies disagree")
    return EnergyReport(
        kind="eplus" if op == SUM else "etimes",
        k=2,
        value=value,
        inputs=(f"A[{len(A)}]", f"B[{len(B)}]"),
        method="convolution",
    )


def energy_k(mode: str, A: FiniteSet, k: int, *, cap: int = DEFAULT_PAIR_CAP) -> EnergyReport:
    """E_k(A) = sum over x of r_{A-A}(x)^k (ratios instead of differences in
    multiplicative mode, which therefore requires 0 not in A)."""
    if k < 2:
        raise ValueError("k must be at least 2")
    inverse = mode_ops(mode)[1]
    if inverse == RATIO and 0 in A:
        raise ValueError("multiplicative k-energy needs 0 outside the set")
    # E_k >= |A|^k, refused before any count past _MAX_BITS; a singleton's is 1.
    if len(A) > 1 and k * math.log2(len(A)) > _MAX_BITS:
        raise CapExceededError(f"|A|^k = {len(A)}^{k} exceeds {_MAX_BITS} bits")
    value = _power_sum(inverse, A, A, cap, k)
    return EnergyReport(kind="ek", k=k, value=value, inputs=(f"A[{len(A)}]",), method="convolution")


def energy_tk(mode: str, A: FiniteSet, k: int, *, cap: int = DEFAULT_PAIR_CAP) -> EnergyReport:
    """T_k(A) = sum over x of r_{kA}(x)^2, kA the k-fold sum (product) set.
    T_2 is the pair energy, counted on the seam; k >= 3 folds r_{kA}."""
    if k < 1:
        raise ValueError("k must be at least 1")
    # T_k >= |A|^k, and its fold walks k - 1 steps: both are capped by _MAX_BITS.
    if k * max(1, math.log2(max(len(A), 1))) > _MAX_BITS:
        raise CapExceededError(f"T_k of {len(A)} elements at k = {k} exceeds {_MAX_BITS} bits or steps")
    # Cauchy-Schwarz: T_k >= |A|^(2k)/|kA|, and |kA| is at most the number
    # C(|A|+k-1, k) of k-multisets; past the cap above these powers would pass 2^28000.
    if len(A) ** (2 * k) > math.comb(len(A) + k - 1, k) << _MAX_BITS:
        raise CapExceededError(
            f"T_k >= |A|^(2k)/C(|A|+k-1, k) of {len(A)} elements at k = {k} exceeds {_MAX_BITS} bits"
        )
    op = mode_ops(mode)[0]
    if k == 2:
        value = _power_sum(op, A, A, cap, 2)
    else:
        value = _count_power_sum(_fold_counts(A, op, k, cap)[1], 2)
    return EnergyReport(kind="tk", k=k, value=value, inputs=(f"A[{len(A)}]",), method="convolution")


def partition_count(k: int, h: int, m: int) -> int:
    """Number of ways to write m = c_1 + ... + c_k with 0 <= c_i <= h.

    Inclusion-exclusion over the digits that overflow h.
    """
    if k < 1 or h < 1:
        raise ValueError("k and h must be at least 1")
    if m < 0 or m > k * h:
        return 0
    total = 0
    for j in range(k + 1):
        n = m - j * (h + 1) + k - 1
        if n < k - 1:
            break
        term = math.comb(k, j) * math.comb(n, k - 1)
        total += -term if j % 2 else term
    return total


def tk_closed_form(k: int, h: int, d: int) -> int:
    """T_k of a proper interval cube whose digit sums never interact."""
    return sum(partition_count(k, h, m) ** 2 for m in range(k * h + 1)) ** d


def ek_closed_form(k: int, h: int, d: int) -> int:
    """E_k of the same cubes: digit differences contribute (h - |j| + 1)^k."""
    core = (h + 1) ** k + 2 * sum(t**k for t in range(1, h + 1))
    return core**d


def _round_down(v: float) -> float:
    """Outward rounding for lower bounds: never report a bound too high."""
    return v * (1.0 - 1e-12)


def _round_up(v: float) -> float:
    return v * (1.0 + 1e-12)


@dataclass(frozen=True)
class CubeEnergyBounds:
    """Bound values for an interval cube Q of size q at parameter k.

    kq_upper bounds |kQ| from above.  tk_floor and ek_floor are the
    height-1 lower-bound exponents for T_k and E_k.  energy_h_floor is the
    general-height energy floor q^(k + h^(k+1)/((k+1)(h+1)^k ln(h+1)));
    the source statement labels it as a pair-energy bound while its proof
    bounds the k-energy, so it is reported once here and callers compare
    it against both measured quantities.  The closed forms are exact
    integers and are attained by digit-independent proper cubes.
    """

    k: int
    dimension: int
    height: int
    q_size: int
    kq_upper: float
    tk_floor: float | None
    ek_floor: float | None
    energy_h_floor: float
    tk_closed_form: int
    ek_closed_form: int


def cube_energy_bounds(spec: CubeSpec, k: int, *, cap: int = DEFAULT_ENUM_CAP) -> CubeEnergyBounds:
    if k < 2:
        raise ValueError("k must be at least 2")
    if spec.mode != ADDITIVE:
        raise ValueError("energy bounds are stated for additive cubes")
    if not spec.has_interval_digits:
        raise ValueError("energy bounds need interval digits {0..h}")
    h = spec.height
    d = spec.dimension
    q = len(enumerate_cube(spec, cap=cap))
    try:
        kq_upper = _round_up(q ** math.log(k * h + 1, h + 1))
        tk_floor = _round_down(q ** (2 * k - 1 - math.log2(k) / 2)) if h == 1 else None
        ek_floor = _round_down(q ** (k + 2.0**-k)) if h == 1 else None
        energy_h_floor = _round_down(q ** (k + h ** (k + 1) / ((k + 1) * (h + 1) ** k * math.log(h + 1))))
    except OverflowError:
        raise CapExceededError(f"the bounds at k = {k} leave the float range") from None
    return CubeEnergyBounds(
        k=k,
        dimension=d,
        height=h,
        q_size=q,
        kq_upper=kq_upper,
        tk_floor=tk_floor,
        ek_floor=ek_floor,
        energy_h_floor=energy_h_floor,
        tk_closed_form=tk_closed_form(k, h, d),
        ek_closed_form=ek_closed_form(k, h, d),
    )
