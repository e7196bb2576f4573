"""Independent recounts the benchmark checks cubelab's outputs against.

Nothing here calls cubelab.  Cubes are enumerated digit vector by digit
vector, distinct values are counted by sorting a plain list and comparing
neighbours, and ratios are gcd-reduced (numerator, denominator) pairs with
a positive denominator.
"""

from __future__ import annotations

from itertools import groupby, product
from math import comb, gcd, prod


def cube_values(a0: int, generators, digits, additive: bool) -> list[int]:
    """Every digit vector's value over Z, duplicates kept."""
    if additive:
        return [a0 + sum(e * g for e, g in zip(eps, generators))
                for eps in product(digits, repeat=len(generators))]
    return [a0 * prod(g for e, g in zip(eps, generators) if e)
            for eps in product((0, 1), repeat=len(generators))]


def distinct(values) -> list:
    """Sorted values with repeats removed."""
    ordered = sorted(values)
    return [x for i, x in enumerate(ordered) if i == 0 or x != ordered[i - 1]]


def multiplicities(values) -> list[int]:
    """How often each distinct value occurs, in sorted order of the values."""
    return [sum(1 for _ in run) for _, run in groupby(sorted(values))]


def reduced(num: int, den: int) -> tuple[int, int]:
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    return (num // g, den // g)


def op_values(op: str, A, B) -> list:
    """All a op b over Z as a plain list; ratios skip zero denominators."""
    if op == "sum":
        return [a + b for a in A for b in B]
    if op == "diff":
        return [a - b for a in A for b in B]
    if op == "prod":
        return [a * b for a in A for b in B]
    if op == "ratio":
        return [reduced(a, b) for b in B if b for a in A]
    raise ValueError(op)


# Growth targets: the op they measure, and whether it commutes.
TARGETS = {"QQ": ("prod", True), "Q/Q": ("ratio", False), "Q+Q": ("sum", True), "Q-Q": ("diff", False)}


def size_range(target: str, q: int) -> tuple[int, int]:
    """Bounds on |Q op Q| for a set of q elements, 0 not in Q for ratios:
    at least q, at most q(q+1)/2 unordered pairs for a commuting op, and
    q(q-1) ordered pairs of distinct elements plus the diagonal otherwise."""
    return q, q * (q + 1) // 2 if TARGETS[target][1] else q * (q - 1) + 1


def op_size(op: str, A, B) -> int:
    return len(distinct(op_values(op, A, B)))


def energy(op: str, A) -> int:
    """Sum of squared representation counts of A op A."""
    return sum(c * c for c in multiplicities(op_values(op, A, A)))


def ratio_of_ratios_size(R) -> int:
    """|R/R| for a set R of reduced pairs, zero skipped as a denominator."""
    return len(distinct(reduced(n1 * d2, d1 * n2) for n1, d1 in R for n2, d2 in R if n2))


def ek_power_cube(k: int, d: int) -> int:
    """E_k of a height-1 cube whose digit differences never interact."""
    return (2**k + 2) ** d


def tk_power_cube(k: int, d: int) -> int:
    """T_k of a height-1 cube whose k-fold digit sums never interact."""
    return comb(2 * k, k) ** d


def popular(values, q: int) -> list:
    """Values whose multiplicity r satisfies r^2 >= q, sorted."""
    return [x for x, run in groupby(sorted(values)) if sum(1 for _ in run) ** 2 >= q]


def sumset_size(sets, p: int | None = None) -> int:
    """|A_1 + ... + A_k|, reduced mod p when p is given."""
    acc = [0]
    for s in sets:
        acc = distinct((a + b) % p if p else a + b for a in acc for b in s)
    return len(acc)


def shifted_pairs(A, B, D, mode: str, p: int | None) -> int:
    """sigma = #{(x, y) in A x B : y - x in D} (y / x in multiplicative mode)."""
    members = set(D)
    if mode == "additive":
        return sum(1 for x in A for y in B if (y - x if p is None else (y - x) % p) in members)
    return sum(1 for x in A for y in B if (y * pow(x, -1, p)) % p in members)


def incidences_all_lines(points, p: int) -> int:
    """Every point of F_p^2 lies on exactly p + 1 of the p^2 + p lines."""
    return len(points) * (p + 1)
