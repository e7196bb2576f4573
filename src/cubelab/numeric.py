"""Exact arithmetic over the two ambient structures: the integers and F_p.

Elements are plain Python ints.  Prime-field elements are kept as canonical
residues in [0, p).  Ratio sets over the integers produce fractions.Fraction
values in lowest terms; those pass through normalize() untouched.

Integer arithmetic is arbitrary precision, bounded by the ring's magnitude
cap so that a runaway product fails loudly instead of eating the machine.
The rule: the cap bounds the magnitudes of the values an operation builds
and keeps, Fractions included.  It is checked once per operation, before
any value is built, by _check_results from the largest operand magnitudes
(for a ratio with a Fraction among the denominators, |a| over the smallest
nonzero |b| stands for a); normalize() checks an input int.  A per-element
op that is only tested for membership (a shift, a reflection, a probe) is
never capped: a value past the cap cannot be a member of any capped set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul, sub

INTEGERS = "integers"
PRIME_FIELD = "prime_field"

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

SUM = "sum"
DIFF = "diff"
PROD = "prod"
RATIO = "ratio"

# Each mode's op and the op that undoes it: the paper's results come in
# these dual pairs, and every mode-dependent choice of the package reads them.
MODE_OPS = {ADDITIVE: (SUM, DIFF), MULTIPLICATIVE: (PROD, RATIO)}

# The ops on plain Python values; a ratio of ints is not an int.
_ARITH = {SUM: add, DIFF: sub, PROD: mul}

# Generous default: multiplicative cubes over Z with a couple dozen
# moderate generators stay well inside this.
DEFAULT_MAGNITUDE_CAP = 1 << 512
# The bits an exact count or side may need before it is refused: 14000 bits
# stay under the 4300 digits Python prints.
_MAX_BITS = 14000


class CapExceededError(RuntimeError):
    """An enumeration, pairing, grid, or magnitude cap was exceeded."""


def _check_results(ring: AmbientRing, op: str, ma, mb):
    """The magnitude rule's one bound, for an operation over Z on operands
    whose largest magnitudes are ma and mb (ints or Fractions): raises
    CapExceededError before any result is built if an operand or a result
    could pass the cap, and returns the largest such magnitude (for a ratio
    of ints, of an operand: a reduced num and den are no larger)."""
    worst = max(ma, mb, ma + mb if op in (SUM, DIFF) else ma * mb if op == PROD else 0)
    if worst > ring.magnitude_cap:
        raise CapExceededError(f"{op} results would exceed the magnitude cap")
    return worst


def _scalar_op(op: str, ring: AmbientRing):
    """a op b on two elements of ring, one value at a time: plain +, - and x
    over Z, where a ratio is a Fraction; residues over F_p, where a ratio
    multiplies by the inverse of b.  Never capped: a caller that keeps the
    values checks _check_results first, and a probe whose value is only
    tested for membership needs no check."""
    p = ring.modulus
    if p is None:
        return _ARITH.get(op, Fraction)
    return {
        SUM: lambda a, b: (a + b) % p,
        DIFF: lambda a, b: (a - b) % p,
        PROD: lambda a, b: a * b % p,
        RATIO: lambda a, b: a * pow(b, -1, p) % p,
    }[op]


_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string", float: "a number"}


def _check(value, schema, what: str):
    """value, once it matches schema, a JSON type tree: int, bool, str or
    float (any number, never a bool); [s], an array of s; (s1, ..., sn), an
    array of exactly those entries; {key: s}, an object whose keys ending in
    "?" are optional and whose other keys are ignored; or {str: s}, an object
    of s values.  A mismatch raises ValueError naming its path from what."""
    if type(schema) is type:
        if type(value) is schema or schema is float and type(value) is int:
            return value
        expected = _TYPE_NAMES[schema]
    elif type(schema) is dict:
        if type(value) is dict:
            if str in schema:
                for key, item in value.items():
                    _check(item, schema[str], f"{what}: {key}")
                return value
            missing = [key for key in schema if not key.endswith("?") and key not in value]
            if missing:
                raise ValueError(f"{what} lacks {', '.join(missing)}")
            for key, sub in schema.items():
                name = key.rstrip("?")
                if name in value:
                    _check(value[name], sub, f"{what}: {name}")
            return value
        expected = "a JSON object"
    else:
        fixed = type(schema) is tuple
        if type(value) is list and (not fixed or len(value) == len(schema)):
            for i, (item, sub) in enumerate(zip(value, schema if fixed else schema * len(value))):
                _check(item, sub, f"{what} entry {i}")
            return value
        expected = f"an array of {len(schema)} entries" if fixed else "an array"
    raise ValueError(f"{what}: expected {expected}, got {value!r:.60}")


def _parse_json(text, what: str):
    """json.loads(text), where nesting past the recursion limit is a
    ValueError like any other malformed input."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def mode_ops(mode) -> tuple[str, str]:
    """(op, inverse op) of a mode: (sum, diff) or (prod, ratio)."""
    ops = MODE_OPS.get(mode) if isinstance(mode, str) else None
    if ops is None:
        raise ValueError(f"unknown mode {mode!r}")
    return ops


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.

    The fixed witness set is exact for all n < 3.3e24, far beyond the
    64-bit moduli this workbench targets.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The JSON shape of a ring: {"kind": "integers"} or {"kind": "prime_field", "p": 7}.
_RING_SCHEMA = {"kind": str, "p?": int}


@dataclass(frozen=True)
class AmbientRing:
    """Immutable description of the ambient ring: Z or F_p (p an odd prime)."""

    kind: str
    modulus: int | None = None
    magnitude_cap: int = DEFAULT_MAGNITUDE_CAP

    def __post_init__(self) -> None:
        if self.kind == INTEGERS:
            if self.modulus is not None:
                raise ValueError("integer ring takes no modulus")
            if self.magnitude_cap < 2:
                raise ValueError("magnitude cap too small")
        elif self.kind == PRIME_FIELD:
            p = self.modulus
            if p is None or p == 2 or not is_prime(p):
                raise ValueError(f"modulus must be an odd prime, got {p!r}")
        else:
            raise ValueError(f"unknown ring kind {self.kind!r}")

    @classmethod
    def integers(cls, magnitude_cap: int = DEFAULT_MAGNITUDE_CAP) -> "AmbientRing":
        return cls(INTEGERS, None, magnitude_cap)

    @classmethod
    def prime_field(cls, p: int) -> "AmbientRing":
        return cls(PRIME_FIELD, p)

    @property
    def is_field(self) -> bool:
        return self.kind == PRIME_FIELD

    def _checked(self, x: int) -> int:
        if x > self.magnitude_cap or -x > self.magnitude_cap:
            raise CapExceededError(
                f"magnitude {int(x).bit_length()} bits exceeds cap "
                f"{self.magnitude_cap.bit_length() - 1} bits"
            )
        return x

    def normalize(self, x):
        """Canonical form of x: residue in [0, p) over F_p, cap-checked over Z.

        Fractions (from ratio sets over Z) are already canonical and pass
        through; they are rejected in field mode where ratios are residues.
        """
        if self.kind == PRIME_FIELD:
            if isinstance(x, Fraction):
                raise TypeError("prime-field elements are residues, not fractions")
            return x % self.modulus
        if isinstance(x, Fraction):
            return x
        return self._checked(x)

    def to_json_dict(self) -> dict:
        if self.kind == PRIME_FIELD:
            return {"kind": self.kind, "p": self.modulus}
        return {"kind": self.kind}

    @classmethod
    def from_json_dict(cls, data: dict) -> "AmbientRing":
        kind = _check(data, _RING_SCHEMA, "ring")["kind"]
        # __post_init__ rejects an unknown kind and a missing or composite p.
        return cls.integers() if kind == INTEGERS else cls(kind, data.get("p"))
