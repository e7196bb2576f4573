"""Point-line and point-plane incidence counting over F_p.

A point v lies on exactly one plane n . v = e of each normal n, and the line
y = a x + b (or x = a) is the plane (-a, 1, 0) . v = b (or (1, 0, 0) . v = a)
cut with z = 0.  So one kernel counts both: a set is grouped once, lazily, by
normal into {e: multiplicity}, and a point costs one lookup per normal.  That
is O(|P| k + |L|) for k normals (k <= min(|L|, p + 1) for lines), not
O(|P| |L|), and nothing is sized by p.  It tests what `Line.contains` and
`Plane.contains` test on the stored rows, duplicates and unreduced rows
included; they are its oracle.

Counts are exact; the bound functions evaluate the right-hand sides of the
standard incidence theorems with the implicit constant set to 1, so callers
can report measured/bound ratios.  Nothing here asserts those bounds: with
unknown constants a ratio above 1 falsifies nothing.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .numeric import CapExceededError, _check, _parse_json, is_prime


# Cap on the lines LineSet.all_lines builds: p = 1021 is the largest prime under it.
ALL_LINES_CAP = 1 << 20


def _require_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True, slots=True)
class Line:
    """y = a x + b, or the vertical x = a."""

    vertical: bool
    a: int
    b: int = 0

    def contains(self, x: int, y: int, p: int) -> bool:
        if self.vertical:
            return x % p == self.a % p
        return (self.a * x + self.b - y) % p == 0

    def _row(self, p: int) -> tuple[tuple[int, int, int], int]:
        """(n, e) with n . (x, y, 0) = e (mod p) exactly where `contains` holds."""
        if self.vertical:
            return (1, 0, 0), self.a % p
        return (-self.a % p, 1, 0), self.b % p


@dataclass(frozen=True)
class LineSet:
    p: int
    lines: tuple[Line, ...]

    @classmethod
    def from_lines(cls, p: int, lines) -> "LineSet":
        _require_prime(p)
        # A canonical line is its own key: the first copy of each is kept.
        canonical = (Line(True, ln.a % p) if ln.vertical else Line(False, ln.a % p, ln.b % p) for ln in lines)
        return cls(p, tuple(dict.fromkeys(canonical)))

    @classmethod
    def all_lines(cls, p: int) -> "LineSet":
        """All p^2 + p distinct lines of the affine plane."""
        _require_prime(p)
        if p * p + p > ALL_LINES_CAP:
            raise CapExceededError(f"{p * p + p} lines of the plane over F_{p} exceed cap {ALL_LINES_CAP}")
        lines = [Line(False, a, b) for a in range(p) for b in range(p)]
        lines.extend(Line(True, c) for c in range(p))
        return cls(p, tuple(lines))

    def __len__(self) -> int:
        return len(self.lines)

    @cached_property
    def _pencil(self) -> dict:
        return _group(line._row(self.p) for line in self.lines)


def normalize_points_2d(p: int, points) -> tuple[tuple[int, int], ...]:
    _require_prime(p)
    return tuple(sorted({(x % p, y % p) for x, y in points}))


def _group(rows) -> dict:
    pencil: dict = {}
    for normal, e in rows:
        offsets = pencil.setdefault(normal, {})
        offsets[e] = offsets.get(e, 0) + 1
    return pencil


def _through(points, pencil: dict, p: int) -> list[int]:
    """Per point (x, y, z), the rows n . v = e of the pencil through it."""
    normals = [(a, b, c, offsets.get) for (a, b, c), offsets in pencil.items()]
    return [sum(get((a * x + b * y + c * z) % p, 0) for a, b, c, get in normals) for x, y, z in points]


def incidences_per_line(points, line_set: LineSet) -> list[int]:
    p = line_set.p
    hits = {n: Counter((n[0] * x + n[1] * y) % p for x, y in points) for n in line_set._pencil}
    return [hits[normal][e] for normal, e in (line._row(p) for line in line_set.lines)]


def incidences_per_point(points, line_set: LineSet) -> list[int]:
    return _through([(x, y, 0) for x, y in points], line_set._pencil, line_set.p)


def count_incidences_2d(points, line_set: LineSet) -> int:
    return sum(incidences_per_point(points, line_set))


def szt_rhs(n_points: int, n_lines: int) -> float:
    """Szemeredi-Trotter shape with constant 1."""
    return (n_points * n_lines) ** (2.0 / 3.0) + n_points + n_lines


def grid_line_rhs(n_a: int, n_b: int, n_lines: int) -> float:
    """Error-term shape for points A x B against lines over F_p, constant 1."""
    return n_a**0.75 * n_b**0.5 * n_lines**0.75 + n_lines + n_a * n_b


def grid_line_main(n_a: int, n_b: int, n_lines: int, p: int) -> float:
    return n_a * n_b * n_lines / p


@dataclass(frozen=True, order=True, slots=True)
class Plane:
    """a x + b y + c z = e with (a, b, c) scaled so its first nonzero
    coefficient is 1."""

    a: int
    b: int
    c: int
    e: int

    def contains(self, x: int, y: int, z: int, p: int) -> bool:
        return (self.a * x + self.b * y + self.c * z - self.e) % p == 0


def canonical_plane(a: int, b: int, c: int, e: int, p: int) -> Plane:
    a, b, c, e = a % p, b % p, c % p, e % p
    for lead in (a, b, c):
        if lead:
            s = pow(lead, -1, p)
            return Plane((a * s) % p, (b * s) % p, (c * s) % p, (e * s) % p)
    raise ValueError("plane normal may not be zero")


@dataclass(frozen=True)
class PlaneSet:
    p: int
    planes: tuple[Plane, ...]

    @classmethod
    def from_coefficients(cls, p: int, rows) -> "PlaneSet":
        _require_prime(p)
        return cls(p, tuple(sorted({canonical_plane(a, b, c, e, p) for a, b, c, e in rows})))

    def __len__(self) -> int:
        return len(self.planes)

    @cached_property
    def _pencil(self) -> dict:
        p = self.p
        return _group(((q.a % p, q.b % p, q.c % p), q.e % p) for q in self.planes)


def normalize_points_3d(p: int, points) -> tuple[tuple[int, int, int], ...]:
    _require_prime(p)
    return tuple(sorted({(x % p, y % p, z % p) for x, y, z in points}))


def max_collinear(points, p: int) -> int:
    """Largest number of the given points on a common line of F_p^3.

    Points equal mod p count once.  The later points j on a line through
    point i are those whose directions j - i, scaled to leading coefficient
    1, collide; each line is counted from its first point.
    """
    pts = list({(x % p, y % p, z % p) for x, y, z in points})
    best = 0
    for i, (xi, yi, zi) in enumerate(pts):
        directions: Counter = Counter()
        for xj, yj, zj in pts[i + 1:]:
            d = ((xj - xi) % p, (yj - yi) % p, (zj - zi) % p)
            s = pow(next(t for t in d if t), -1, p)
            directions[(d[0] * s % p, d[1] * s % p, d[2] * s % p)] += 1
        best = max(best, 1 + max(directions.values(), default=0))
    return best


def count_incidences_3d(points, plane_set: PlaneSet) -> tuple[int, int]:
    """(incidence count, max collinear k) for points against planes."""
    p = plane_set.p
    return sum(_through(points, plane_set._pencil, p)), max_collinear(points, p)


def plane_rhs(n_points: int, n_planes: int, k: int) -> float:
    """Error-term shape for point-plane incidences, constant 1."""
    return n_points**0.5 * n_planes + k * n_planes


def plane_main(n_points: int, n_planes: int, p: int) -> float:
    return n_points * n_planes / p


def instance_to_json(p: int, points, lines: LineSet | None = None, planes: PlaneSet | None = None) -> str:
    data: dict = {"p": p, "points": [list(pt) for pt in points]}
    if lines is not None:
        data["lines"] = [
            {"vertical": ln.vertical, "a": ln.a, "b": ln.b} for ln in lines.lines
        ]
    if planes is not None:
        data["planes"] = [[q.a, q.b, q.c, q.e] for q in planes.planes]
    return json.dumps(data, indent=2)


def instance_from_json(text: str) -> dict:
    data = _check(_parse_json(text, "instance"), {}, "instance")
    dim = 3 if "planes" in data else 2
    line = {"vertical": bool, "a": int, "b?": int}
    _check(data, {"p": int, "points": [(int,) * dim], "lines?": [line], "planes?": [(int,) * 4]}, "instance")
    p = data["p"]
    out: dict = {"p": p}
    if "planes" in data:
        out["points"] = normalize_points_3d(p, data["points"])
        out["planes"] = PlaneSet.from_coefficients(p, data["planes"])
    else:
        out["points"] = normalize_points_2d(p, data["points"])
    if "lines" in data:
        out["lines"] = LineSet.from_lines(p, [Line(ln["vertical"], ln["a"], ln.get("b", 0)) for ln in data["lines"]])
    return out
