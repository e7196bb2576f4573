"""Incidence counting over small prime fields, with independent recounts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubelab.incidence import (
    ALL_LINES_CAP,
    Line,
    LineSet,
    Plane,
    PlaneSet,
    canonical_plane,
    count_incidences_2d,
    count_incidences_3d,
    grid_line_main,
    grid_line_rhs,
    incidences_per_line,
    incidences_per_point,
    instance_from_json,
    instance_to_json,
    max_collinear,
    normalize_points_2d,
    normalize_points_3d,
    plane_main,
    plane_rhs,
    szt_rhs,
)
from cubelab.numeric import CapExceededError


def test_full_grid_all_lines():
    # Every point of F_p^2 lies on exactly p + 1 lines.
    for p in (3, 5, 7):
        points = normalize_points_2d(p, [(x, y) for x in range(p) for y in range(p)])
        lines = LineSet.all_lines(p)
        assert len(lines) == p * p + p
        assert count_incidences_2d(points, lines) == p * p * (p + 1)
        assert all(c == p + 1 for c in incidences_per_point(points, lines))
        assert all(c == p for c in incidences_per_line(points, lines))


def test_per_line_and_per_point_totals_agree():
    rng = random.Random(1)
    p = 31
    points = normalize_points_2d(p, [(rng.randrange(p), rng.randrange(p)) for _ in range(40)])
    lines = LineSet.from_lines(
        p,
        [Line(False, rng.randrange(p), rng.randrange(p)) for _ in range(25)]
        + [Line(True, rng.randrange(p)) for _ in range(5)],
    )
    assert sum(incidences_per_line(points, lines)) == sum(incidences_per_point(points, lines))


def test_count_against_parametrized_recount():
    # Independent recount: materialize each line as its point set first.
    rng = random.Random(2)
    p = 13
    points = normalize_points_2d(p, [(rng.randrange(p), rng.randrange(p)) for _ in range(30)])
    lines = LineSet.from_lines(
        p,
        [Line(False, rng.randrange(p), rng.randrange(p)) for _ in range(15)]
        + [Line(True, rng.randrange(p)) for _ in range(3)],
    )
    point_set = set(points)
    expected = 0
    for line in lines.lines:
        if line.vertical:
            on_line = {(line.a, y) for y in range(p)}
        else:
            on_line = {(x, (line.a * x + line.b) % p) for x in range(p)}
        expected += len(point_set & on_line)
    assert count_incidences_2d(points, lines) == expected


def test_line_dedup_and_normalization():
    lines = LineSet.from_lines(5, [Line(False, 7, 9), Line(False, 2, 4), Line(True, 6, 3), Line(True, 1)])
    # The first copy of each line is kept, reduced mod p, and a vertical line drops its b.
    assert lines.lines == (Line(False, 2, 4), Line(True, 1))
    points = normalize_points_2d(5, [(6, 7), (1, 2), (1, 2)])
    assert points == ((1, 2),)


def test_lines_and_planes_are_slotted_records():
    # All lines at p = 1021 build a million of them: a per-instance __dict__
    # would be most of that run's memory.
    for record in (Line(False, 1, 2), Plane(1, 0, 0, 3)):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.a = 0


def test_szt_rhs_values():
    assert szt_rhs(1, 1) == 3.0
    assert szt_rhs(8, 8) == 32.0
    assert grid_line_rhs(16, 16, 16) == pytest.approx(16**0.75 * 4 * 8 + 16 + 256)
    assert grid_line_main(10, 10, 50, 101) == pytest.approx(5000 / 101)


def test_prime_validation():
    with pytest.raises(ValueError):
        LineSet.all_lines(9)
    with pytest.raises(ValueError):
        normalize_points_2d(2, [(0, 0)])


def test_all_lines_refuses_a_plane_past_the_cap():
    # 101 is the largest p any caller passes; 1021 is the largest prime under the cap.
    assert 101 * 101 + 101 <= 1021 * 1021 + 1021 <= ALL_LINES_CAP < 1031 * 1031 + 1031
    for p in (1031, 100003):
        with pytest.raises(CapExceededError, match="lines"):
            LineSet.all_lines(p)


def _brute_max_collinear(points, p):
    pts = list(points)
    n = len(pts)
    if n <= 1:
        return n
    best = 1
    for i in range(n):
        for j in range(i + 1, n):
            d = tuple((pts[j][t] - pts[i][t]) % p for t in range(3))
            count = 0
            for q in pts:
                v = tuple((q[t] - pts[i][t]) % p for t in range(3))
                # Collinear iff cross product vanishes mod p.
                cross = (
                    (d[1] * v[2] - d[2] * v[1]) % p,
                    (d[2] * v[0] - d[0] * v[2]) % p,
                    (d[0] * v[1] - d[1] * v[0]) % p,
                )
                if cross == (0, 0, 0):
                    count += 1
            best = max(best, count)
    return best


def test_max_collinear_constructed():
    p = 11
    on_line = [(t % p, (3 * t) % p, (5 * t) % p) for t in range(4)]
    noise = [(1, 2, 3), (4, 4, 9), (7, 1, 1)]
    points = normalize_points_3d(p, on_line + noise)
    assert max_collinear(points, p) == 4
    assert max_collinear([(0, 0, 0)], p) == 1
    assert max_collinear([], p) == 0


def test_max_collinear_random_vs_brute():
    rng = random.Random(4)
    for _ in range(15):
        p = rng.choice([5, 7, 11])
        pts = normalize_points_3d(
            p, [(rng.randrange(p), rng.randrange(p), rng.randrange(p)) for _ in range(rng.randint(2, 18))]
        )
        assert max_collinear(pts, p) == _brute_max_collinear(pts, p)


def test_plane_canonicalization():
    p = 7
    assert canonical_plane(2, 4, 6, 3, p) == canonical_plane(1, 2, 3, 5, p)
    planes = PlaneSet.from_coefficients(p, [(2, 4, 6, 3), (1, 2, 3, 5), (0, 3, 1, 0)])
    assert planes.planes == (Plane(0, 1, 5, 0), Plane(1, 2, 3, 5))
    with pytest.raises(ValueError):
        canonical_plane(0, 0, 7, 1, p)


def test_plane_incidences_small():
    p = 5
    points = normalize_points_3d(p, [(x, y, 0) for x in range(3) for y in range(3)])
    planes = PlaneSet.from_coefficients(p, [(0, 0, 1, 0), (1, 0, 0, 0)])
    count, k = count_incidences_3d(points, planes)
    assert count == 9 + 3  # all nine on z = 0, the x = 0 column on the other
    assert k == 3
    assert plane_rhs(9, 2, 3) == pytest.approx(9**0.5 * 2 + 6)
    assert plane_main(9, 2, 5) == pytest.approx(18 / 5)


def test_instance_json_round_trip_2d():
    p = 13
    points = [(1, 2), (3, 4)]
    lines = LineSet.from_lines(p, [Line(False, 1, 1), Line(True, 3)])
    text = instance_to_json(p, points, lines=lines)
    inst = instance_from_json(text)
    assert inst["p"] == p
    assert inst["points"] == normalize_points_2d(p, points)
    assert inst["lines"].lines == lines.lines
    # Counting from the parsed instance matches counting from the originals.
    assert count_incidences_2d(inst["points"], inst["lines"]) == count_incidences_2d(
        normalize_points_2d(p, points), lines
    )


def test_instance_json_round_trip_3d():
    p = 7
    points = [(1, 2, 3), (0, 0, 0), (2, 4, 6)]
    planes = PlaneSet.from_coefficients(p, [(1, 1, 1, 6), (0, 1, 0, 0)])
    inst = instance_from_json(instance_to_json(p, points, planes=planes))
    assert inst["planes"].planes == planes.planes
    count, k = count_incidences_3d(inst["points"], inst["planes"])
    assert count == count_incidences_3d(normalize_points_3d(p, points), planes)[0]
    assert k == max_collinear(normalize_points_3d(p, points), p)


# The kernel against its oracle: plain contains loops over every pair.


def _brute_2d(points, line_set):
    p = line_set.p
    per_line = [sum(1 for x, y in points if line.contains(x, y, p)) for line in line_set.lines]
    per_point = [sum(1 for line in line_set.lines if line.contains(x, y, p)) for x, y in points]
    return per_line, per_point


def _brute_3d(points, plane_set):
    p = plane_set.p
    return sum(1 for q in plane_set.planes for x, y, z in points if q.contains(x, y, z, p))


_ints = st.integers(-40, 40)
_lines = st.lists(st.builds(Line, st.booleans(), _ints, _ints), max_size=25)
_planes = st.lists(
    st.builds(Plane, _ints, _ints, _ints, _ints) | st.builds(Plane, st.just(0), st.just(0), st.just(0), _ints),
    max_size=12,
)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    points=st.lists(st.tuples(_ints, _ints), max_size=30),
    lines=_lines,
    direct=st.booleans(),
)
def test_2d_counts_equal_contains(p, points, lines, direct):
    # A directly built set keeps duplicate, unreduced and vertical rows with b != 0
    # exactly as given; points stay unreduced and repeated.
    line_set = LineSet(p, tuple(lines)) if direct or p == 2 else LineSet.from_lines(p, lines)
    per_line, per_point = _brute_2d(points, line_set)
    assert incidences_per_line(points, line_set) == per_line
    assert incidences_per_point(points, line_set) == per_point
    assert count_incidences_2d(points, line_set) == sum(per_point)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    points=st.lists(st.tuples(_ints, _ints, _ints), max_size=20),
    planes=_planes,
)
def test_3d_count_equals_contains(p, points, planes):
    # Plane(0, 0, 0, e) holds every point when p | e and none otherwise.
    plane_set = PlaneSet(p, tuple(planes))
    assert count_incidences_3d(points, plane_set)[0] == _brute_3d(points, plane_set)


def test_counts_at_a_huge_prime_are_not_sized_by_p():
    p = (1 << 61) - 1
    rng = random.Random(14)

    def big():
        return rng.randrange(-p, 2 * p)

    points2 = [(big(), big()) for _ in range(20)]
    lines = [Line(False, big(), big()) for _ in range(4)] + [Line(True, big(), big()) for _ in range(2)]
    lines += [Line(False, 3, (points2[0][1] - 3 * points2[0][0]) % p), Line(True, points2[1][0] + p)]
    for line_set in (LineSet(p, tuple(lines)), LineSet.from_lines(p, lines)):
        per_line, per_point = _brute_2d(points2, line_set)
        assert incidences_per_line(points2, line_set) == per_line
        assert incidences_per_point(points2, line_set) == per_point
        assert count_incidences_2d(points2, line_set) == sum(per_point) >= 2
        assert sum(map(len, line_set._pencil.values())) <= len(line_set)
    points3 = [(big(), big(), big()) for _ in range(10)]
    x, y, z = points3[0]
    rows = [(big(), big(), big(), big()) for _ in range(4)] + [(5, 7, 11, 5 * x + 7 * y + 11 * z)]
    for plane_set in (PlaneSet(p, tuple(Plane(*r) for r in rows)), PlaneSet.from_coefficients(p, rows)):
        count, k = count_incidences_3d(points3, plane_set)
        assert count == _brute_3d(points3, plane_set) >= 1
        assert k == 2
        assert sum(map(len, plane_set._pencil.values())) <= len(plane_set)


def test_max_collinear_counts_points_equal_mod_p_once():
    planes = PlaneSet.from_coefficients(5, [(1, 0, 0, 1)])
    assert count_incidences_3d([(1, 2, 3), (6, 2, 3)], planes) == (2, 1)
    rng = random.Random(5)
    for _ in range(20):
        p = rng.choice([3, 5, 7])
        pts = [(rng.randrange(-p, 2 * p), rng.randrange(-p, 2 * p), rng.randrange(-p, 2 * p)) for _ in range(12)]
        assert max_collinear(pts, p) == _brute_max_collinear(normalize_points_3d(p, pts), p)
