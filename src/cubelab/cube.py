"""Combinatorial cubes and the finite sets they enumerate to.

A cube is the data (a_0; a_1, ..., a_d) together with a digit set D and a
mode.  In additive mode it describes {a_0 + sum_j eps_j a_j : eps_j in D};
interval digits D = {0..h} give the classical height-h cube, a general D
containing 0 gives a missing-digit cube.  In multiplicative mode the digits
are exponents {0, 1} and the cube is {a_0 * prod_j a_j^{eps_j}}.

Enumeration collapses repeated values, so |Q| <= |D|^d with equality exactly
for proper cubes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product, repeat, starmap
from operator import mod

from .numeric import (_ARITH, ADDITIVE, DIFF, MULTIPLICATIVE, AmbientRing, CapExceededError, _RING_SCHEMA, _check,
                      _check_results, _scalar_op, mode_ops)

# Cap on the number of digit vectors a single enumeration may touch.
DEFAULT_ENUM_CAP = 1 << 24


@dataclass(frozen=True)
class FiniteSet:
    """Immutable finite set of ring elements, stored sorted ascending.

    Elements are ints (canonical residues over F_p) or Fractions when the
    set came out of a ratio operation over Z.
    """

    ring: AmbientRing
    elements: tuple

    def __post_init__(self) -> None:
        for a, b in zip(self.elements, self.elements[1:]):
            if not a < b:
                raise ValueError("elements must be strictly increasing")

    @classmethod
    def from_iterable(cls, ring: AmbientRing, values) -> "FiniteSet":
        return cls(ring, tuple(sorted({ring.normalize(v) for v in values})))

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._members

    def to_lines(self) -> str:
        """One element per line, decimal (fractions as num/den)."""
        return "\n".join(str(x) for x in self.elements) + "\n"

    @classmethod
    def from_lines(cls, ring: AmbientRing, text: str) -> "FiniteSet":
        values = []
        for number, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "/" in line and ring.is_field:
                raise ValueError(f"{line!r}: prime-field elements are residues, not fractions")
            try:
                values.append(Fraction(line) if "/" in line else int(line))
            except (ValueError, ZeroDivisionError):
                raise ValueError(
                    f"line {number}: {line!r} is not an integer or a fraction with a nonzero denominator"
                ) from None
        return cls.from_iterable(ring, values)


@dataclass(frozen=True)
class CubeSpec:
    """Immutable cube description; values are normalized at construction."""

    ring: AmbientRing
    a0: int
    generators: tuple[int, ...]
    digits: tuple[int, ...] = (0, 1)
    mode: str = ADDITIVE

    def __post_init__(self) -> None:
        mode_ops(self.mode)
        digits = tuple(sorted(set(int(c) for c in self.digits)))
        if len(digits) < 2:
            raise ValueError("digit set needs at least two digits")
        if digits[0] != 0 or any(c < 0 for c in digits):
            raise ValueError("digits must be nonnegative and contain 0")
        if self.mode == MULTIPLICATIVE and digits != (0, 1):
            raise ValueError("multiplicative cubes use exponent digits {0, 1}")
        gens = tuple(self.ring.normalize(int(g)) for g in self.generators)
        a0 = self.ring.normalize(int(self.a0))
        if self.mode == MULTIPLICATIVE:
            if a0 == 0:
                raise ValueError("multiplicative cube needs a nonzero base point")
            if any(g == 0 for g in gens):
                raise ValueError("multiplicative generators must be nonzero")
        else:
            if any(g == 0 for g in gens):
                raise ValueError("generators must be nonzero")
        object.__setattr__(self, "digits", digits)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "a0", a0)

    @property
    def dimension(self) -> int:
        return len(self.generators)

    @property
    def height(self) -> int:
        return max(self.digits)

    @property
    def has_interval_digits(self) -> bool:
        return self.digits == tuple(range(len(self.digits)))

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "a0": self.a0,
            "generators": list(self.generators),
            "digits": list(self.digits),
            "ring": self.ring.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CubeSpec":
        _check(data, _CUBE_SCHEMA, "cube spec")
        return cls(AmbientRing.from_json_dict(data["ring"]), data["a0"], tuple(data["generators"]),
                   tuple(data["digits"]), data["mode"])


# The JSON shape of a cube spec, as to_json_dict writes it.
_CUBE_SCHEMA = {"ring": _RING_SCHEMA, "a0": int, "generators": [int], "digits": [int], "mode": str}


def _vector_count(spec: CubeSpec) -> int:
    return len(spec.digits) ** spec.dimension


def _grow(spec: CubeSpec, values: set, g: int) -> set:
    """One generator step: values together with v op c*g for every nonzero
    digit c (multiplicative cubes have the one nonzero digit 1)."""
    op = mode_ops(spec.mode)[0]
    steps = [c * g for c in spec.digits[1:]]
    p = spec.ring.modulus
    if p is None:
        _check_results(spec.ring, op, max(map(abs, values)), max(map(abs, steps)))
    new = starmap(_ARITH[op], product(values, steps))
    return values.union(new if p is None else map(mod, new, repeat(p)))


def _value_set(spec: CubeSpec, cap: int) -> set:
    """Raw Python set of cube values, built one generator at a time."""
    if _vector_count(spec) > cap:
        raise CapExceededError(
            f"{len(spec.digits)}^{spec.dimension} digit vectors exceed cap {cap}"
        )
    values = {spec.a0}
    for g in spec.generators:
        values = _grow(spec, values, g)
    return values


def enumerate_cube(spec: CubeSpec, *, cap: int = DEFAULT_ENUM_CAP) -> FiniteSet:
    """The set of values the cube attains (duplicates collapsed)."""
    return FiniteSet(spec.ring, tuple(sorted(_value_set(spec, cap))))


def is_proper(spec: CubeSpec, *, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """True iff all |D|^d digit vectors give pairwise distinct values."""
    return len(_value_set(spec, cap)) == _vector_count(spec)


def subcube(spec: CubeSpec, indices) -> CubeSpec:
    """The cube restricted to nonzero digits only at the given generator
    positions (0-based).  The empty index set gives the singleton {a_0}."""
    picked = sorted(set(int(i) for i in indices))
    if picked and (picked[0] < 0 or picked[-1] >= spec.dimension):
        raise ValueError(f"indices out of range for dimension {spec.dimension}")
    return CubeSpec(
        ring=spec.ring,
        a0=spec.a0,
        generators=tuple(spec.generators[i] for i in picked),
        digits=spec.digits,
        mode=spec.mode,
    )


def symmetry_witness(spec: CubeSpec) -> int:
    """The reflection point U + 2*a_0, U = h * sum(generators).

    An interval-digit additive cube satisfies Q = (U + 2*a_0) - Q: replacing
    every digit eps_j by h - eps_j reflects the cube onto itself.  Missing
    digit sets break the identity, so they are rejected.
    """
    if spec.mode != ADDITIVE:
        raise ValueError("symmetry witness is defined for additive cubes")
    if not spec.has_interval_digits:
        raise ValueError("symmetry witness needs interval digits {0..h}")
    return spec.ring.normalize(spec.height * sum(spec.generators) + 2 * spec.a0)


def is_symmetric(spec: CubeSpec, *, cap: int = DEFAULT_ENUM_CAP) -> bool:
    """Check Q == witness - Q by exhaustive reflection of the value set."""
    w = symmetry_witness(spec)
    reflect = _scalar_op(DIFF, spec.ring)
    values = _value_set(spec, cap)
    return all(reflect(w, v) in values for v in values)


def split_balanced(spec: CubeSpec, *, cap: int = DEFAULT_ENUM_CAP):
    """Bipartition [d] = X | Y with |Q(X)| <= |Q(Y)| <= |D| * |Q(X)|.

    Greedy pass: each generator joins the side whose current subcube is
    smaller (ties go to X).  Digits contain 0, so adding a generator never
    shrinks a side and multiplies it by at most |D|; growing the smaller
    side therefore keeps the larger within a factor |D| of the smaller.
    """
    sides: list[set] = [{spec.a0}, {spec.a0}]
    index_sides: list[list[int]] = [[], []]
    if len(spec.digits) ** spec.dimension > cap:
        raise CapExceededError("subcube enumeration exceeds cap")
    for j, g in enumerate(spec.generators):
        pick = 0 if len(sides[0]) <= len(sides[1]) else 1
        sides[pick] = _grow(spec, sides[pick], g)
        index_sides[pick].append(j)
    if len(sides[0]) > len(sides[1]):
        sides.reverse()
        index_sides.reverse()
    if len(sides[1]) > len(spec.digits) * len(sides[0]):
        raise AssertionError("greedy split lost its balance")
    return tuple(index_sides[0]), tuple(index_sides[1])
