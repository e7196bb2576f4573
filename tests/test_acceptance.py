"""End-to-end acceptance run: one test per numbered criterion.

Each check prints a single visible pass/fail line with its wall time and
enforces a runtime budget.  Quantities that are reported rather than
asserted (theorem-shape bound ratios, prime-field exponents) are printed
indented under their criterion line.
"""

import math
import random
import time
from fractions import Fraction

from cubelab import (
    ADDITIVE,
    MULTIPLICATIVE,
    AmbientRing,
    CubeSpec,
    FiniteSet,
    enumerate_cube,
    is_proper,
    is_symmetric,
)
from cubelab.energy import (
    cube_energy_bounds,
    ek_closed_form,
    energy_k,
    energy_pair,
    energy_tk,
    partition_count,
    tk_closed_form,
)
from cubelab.experiments import (
    growth_trial,
    load_log,
    random_proper_cube,
    run_campaign,
)
from cubelab.incidence import (
    Line,
    LineSet,
    count_incidences_2d,
    incidences_per_line,
    incidences_per_point,
    normalize_points_2d,
    szt_rhs,
)
from cubelab.setops import DIFF, RATIO, SUM, iterate_sum, pairwise
from cubelab.structure import (
    energy_lower_check,
    gmr_check,
    olmezov_sides,
    sd_decompose,
)
from test_energy import partition_count_by_enumeration

Z = AmbientRing.integers()
FLOOR = Fraction(6, 5)


class _Criterion:
    """Times one numbered check and prints its pass/fail line.

    The line goes straight to the terminal (capture disabled) so the
    acceptance record is visible under a plain `pytest` run.  Report-only
    values queued via report() print indented below it.
    """

    def __init__(self, capsys, number: int, name: str, budget_s: float):
        self.capsys = capsys
        self.number = number
        self.name = name
        self.budget_s = budget_s
        self.lines: list[str] = []

    def report(self, line: str) -> None:
        self.lines.append(line)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        ok = exc_type is None and elapsed < self.budget_s
        with self.capsys.disabled():
            print(
                f"\ncriterion {self.number} ({self.name}): "
                f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s, budget {self.budget_s:.0f}s)"
            )
            for line in self.lines:
                print(f"    {line}")
        if exc_type is None:
            assert ok, f"criterion {self.number} exceeded its {self.budget_s:.0f}s budget"
        return False


def _power_cube(b: int, d: int, h: int, a0: int = 0) -> CubeSpec:
    return CubeSpec(
        ring=Z, a0=a0, generators=tuple(b**j for j in range(d)), digits=tuple(range(h + 1))
    )


def test_criterion_01_partition_counts(capsys):
    with _Criterion(capsys, 1, "partition counts", 1.0):
        for k in range(1, 7):
            for h in range(1, 5):
                for m in range(0, k * h + 1):
                    assert partition_count(k, h, m) == partition_count_by_enumeration(k, h, m)
            for m in range(0, k + 1):
                assert partition_count(k, 1, m) == math.comb(k, m)


def test_criterion_02_closed_form_energies(capsys):
    with _Criterion(capsys, 2, "closed-form energies", 10.0):
        anchor = FiniteSet.from_iterable(Z, [0, 1, 4, 5])
        assert energy_pair(ADDITIVE, anchor).value == 36
        for h in (1, 2):
            for d in range(1, 7):
                q_set = enumerate_cube(_power_cube(10, d, h))
                for k in (1, 2, 3):
                    assert energy_tk(ADDITIVE, q_set, k).value == tk_closed_form(k, h, d)
                for k in (2, 3):
                    measured = energy_k(ADDITIVE, q_set, k).value
                    assert measured == ek_closed_form(k, h, d)
                    if h == 1:
                        assert measured == (2**k + 2) ** d


def test_criterion_03_energy_identities(capsys):
    rng = random.Random(20260819)
    with _Criterion(capsys, 3, "energy identities", 30.0) as c:
        for _ in range(200):
            n = rng.randint(2, 40)
            A = FiniteSet.from_iterable(Z, (rng.randint(-10**6, 10**6) for _ in range(n)))
            e_sum = sum(v * v for v in pairwise(SUM, A, A)[1].counts.values())
            e_diff = sum(v * v for v in pairwise(DIFF, A, A)[1].counts.values())
            members = set(A.elements)
            e_brute = sum(
                1 for a in members for b in members for x in members if a + b - x in members
            )
            assert e_sum == e_diff == e_brute == energy_pair(ADDITIVE, A).value
        c.report("200 sets: sum route == difference route == quadruple count")


def test_criterion_04_cube_symmetry(capsys):
    rng = random.Random(41)
    with _Criterion(capsys, 4, "cube symmetry", 30.0) as c:
        checked = 0
        for b in (2, 3, 10):
            for h in (1, 2, 3):
                for d in range(1, 9):
                    assert is_symmetric(_power_cube(b, d, h, a0=rng.randint(0, 9)))
                    checked += 1
        for _ in range(60):
            d = rng.randint(1, 12)
            h = rng.randint(1, 3)
            spec = CubeSpec(
                ring=Z,
                a0=rng.randint(-20, 50),
                generators=tuple(rng.randint(1, 30) for _ in range(d)),
                digits=tuple(range(h + 1)),
            )
            assert is_symmetric(spec)
            checked += 1
        c.report(f"{checked} cubes reflected exactly onto themselves")


def test_criterion_05_popular_sum_difference_split(capsys):
    rng = random.Random(52)
    with _Criterion(capsys, 5, "popular sum/difference split", 120.0) as c:
        for b in (2, 3, 10):
            for d in range(1, 11):
                spec = _power_cube(b, d, 1)
                assert is_proper(spec)
                sd = sd_decompose(spec)
                assert sd.coverage_ok()
                assert sd.sizes_ok()
        improper_seen = 0
        while improper_seen < 100:
            d = rng.randint(2, 10)
            spec = CubeSpec(
                ring=Z,
                a0=rng.randint(0, 20),
                generators=tuple(rng.randint(1, 25) for _ in range(d)),
                digits=(0, 1),
            )
            if is_proper(spec):
                continue
            sd = sd_decompose(spec)
            assert sd.coverage_ok()
            assert sd.sizes_ok()
            improper_seen += 1
        host = _power_cube(10, 8, 1)
        q_set = enumerate_cube(host)
        for _ in range(100):
            B = FiniteSet.from_iterable(Z, rng.sample(q_set.elements, rng.randint(1, len(q_set))))
            assert energy_lower_check(B, host).passed
        c.report("30 proper + 100 improper cubes covered; 100 subset energy floors hold")


def test_criterion_06_holder_chain_inequality(capsys):
    rng = random.Random(63)
    primes = (11, 13, 17, 19, 23)
    with _Criterion(capsys, 6, "Holder chain inequality", 120.0) as c:
        run = 0
        # Inverse-structured shape: B in the punctured field, A its inverses,
        # D the most popular ratios of B over A.
        for i in range(20):
            p = primes[i % len(primes)]
            ring = AmbientRing.prime_field(p)
            b_elems = rng.sample(range(1, p), rng.randint(2, 8))
            B = FiniteSet.from_iterable(ring, b_elems)
            A = FiniteSet.from_iterable(ring, (pow(x, -1, p) for x in b_elems))
            counts = pairwise(RATIO, B, A)[1].counts
            top = sorted(counts, key=lambda v: (-counts[v], v))[:8]
            D = FiniteSet.from_iterable(ring, top)
            n = rng.randint(2, 3)
            v = olmezov_sides(A, B, D, n, rng.randint(1, n - 1), rng.randint(1, 3),
                              MULTIPLICATIVE, seed=i)
            assert v.passed, v
            run += 1
        while run < 250:
            p = primes[run % len(primes)]
            ring = AmbientRing.prime_field(p)
            A = FiniteSet.from_iterable(ring, rng.sample(range(1, p), rng.randint(1, 8)))
            B = FiniteSet.from_iterable(ring, rng.sample(range(1, p), rng.randint(1, 8)))
            D = FiniteSet.from_iterable(ring, rng.sample(range(1, p), rng.randint(1, 8)))
            n = rng.randint(2, 3)
            v = olmezov_sides(A, B, D, n, rng.randint(1, n - 1), rng.randint(1, 3),
                              MULTIPLICATIVE, seed=run)
            assert v.passed, v
            run += 1
        for i in range(250):
            A = FiniteSet.from_iterable(Z, (rng.randint(-30, 30) for _ in range(rng.randint(1, 8))))
            B = FiniteSet.from_iterable(Z, (rng.randint(-30, 30) for _ in range(rng.randint(1, 8))))
            D = FiniteSet.from_iterable(Z, (rng.randint(-60, 60) for _ in range(rng.randint(1, 8))))
            n = rng.randint(2, 3)
            v = olmezov_sides(A, B, D, n, rng.randint(1, n - 1), rng.randint(1, 3),
                              ADDITIVE, seed=1000 + i)
            assert v.passed, v
        c.report("500 instances, both modes, 20 of them inverse-structured")


def test_criterion_07_iterated_sumset_bound(capsys):
    rng = random.Random(74)
    F101 = AmbientRing.prime_field(101)
    with _Criterion(capsys, 7, "iterated sumset bound", 60.0) as c:
        for i in range(500):
            k = rng.randint(2, 5)
            ring, lo, hi = (Z, -40, 40) if i % 2 else (F101, 0, 100)
            sets = [
                FiniteSet.from_iterable(ring, (rng.randint(lo, hi) for _ in range(rng.randint(1, 6))))
                for _ in range(k)
            ]
            v = gmr_check(sets, seed=i)
            assert v.passed, v
        c.report("500 instances, k up to 5, integer and prime-field")


def test_criterion_08_folded_cube_size_bound(capsys):
    with _Criterion(capsys, 8, "folded cube size bound", 60.0) as c:
        for h in (1, 2):
            for d in range(1, 9):
                spec = _power_cube(10, d, h)
                one_q, _ = iterate_sum(spec, 1, with_multiplicities=False)
                assert len(one_q) == len(enumerate_cube(spec))
                for k in (2, 3):
                    kq, _ = iterate_sum(spec, k, with_multiplicities=False)
                    assert len(kq) <= cube_energy_bounds(spec, k).kq_upper
        for trial in range(10):
            d, h = 1 + trial % 6, 1 + trial % 2
            spec = random_proper_cube(Z, d, h, ADDITIVE, seed=trial)
            for k in (2, 3):
                kq, _ = iterate_sum(spec, k, with_multiplicities=False)
                assert len(kq) <= cube_energy_bounds(spec, k).kq_upper
        c.report("power cubes d<=8 at equality, 10 random proper cubes strictly under")


def test_criterion_09_incidence_double_count(capsys):
    rng = random.Random(96)
    with _Criterion(capsys, 9, "incidence double counting", 60.0) as c:
        for p in (3, 5, 7, 11, 13):
            points = normalize_points_2d(p, ((x, y) for x in range(p) for y in range(p)))
            grid = LineSet.all_lines(p)
            per_line = incidences_per_line(points, grid)
            per_point = incidences_per_point(points, grid)
            total = count_incidences_2d(points, grid)
            assert sum(per_line) == sum(per_point) == total == len(grid) * p
            assert all(v == p + 1 for v in per_point)
            c.report(
                f"grid p={p}: I={total}, "
                f"I / szt-shape rhs = {total / szt_rhs(len(points), len(grid)):.3f}"
            )
        for trial in range(40):
            p = 11 if trial % 2 else 31
            points = normalize_points_2d(
                p, ((rng.randrange(p), rng.randrange(p)) for _ in range(rng.randint(1, 60)))
            )
            lines = [
                Line(True, rng.randrange(p))
                if rng.random() < 0.2
                else Line(False, rng.randrange(p), rng.randrange(p))
                for _ in range(rng.randint(1, 40))
            ]
            line_set = LineSet.from_lines(p, lines)
            assert (
                sum(incidences_per_line(points, line_set))
                == sum(incidences_per_point(points, line_set))
                == count_incidences_2d(points, line_set)
            )


def test_criterion_10_growth_floors(capsys):
    with _Criterion(capsys, 10, "growth floors", 300.0) as c:
        add_floors = {"QQ": FLOOR, "Q/Q": FLOOR}
        mul_floors = {"Q+Q": FLOOR, "Q-Q": FLOOR}
        worst: dict[str, float] = {}
        for d in range(4, 13):
            for s in range(10):
                seed = 97 * d + s
                rec = growth_trial(
                    random_proper_cube(Z, d, 1, ADDITIVE, seed=seed),
                    seed=seed, floors=add_floors,
                )
                assert rec.flag == "pass", (d, s, rec.measured)
                mrec = growth_trial(
                    random_proper_cube(Z, d, 1, MULTIPLICATIVE, seed=seed),
                    seed=seed, floors=mul_floors,
                )
                assert mrec.flag == "pass", (d, s, mrec.measured)
                for r in (rec, mrec):
                    for t, e in r.exponents.items():
                        worst[t] = min(worst.get(t, math.inf), e)
        for t, e in sorted(worst.items()):
            c.report(f"min exponent over 90 integer trials for |{t}|: {e:.3f} (floor 1.2)")
        ring = AmbientRing.prime_field(10007)
        for d in (4, 6, 8, 10):
            rec = growth_trial(random_proper_cube(ring, d, 1, ADDITIVE, seed=d), seed=d)
            q = rec.measured["|Q|"]
            branch = min(q**1.2, math.sqrt(q * 10007))
            sizes = ", ".join(
                f"|{t}|={rec.measured[t]} (exp {rec.exponents[t]:.3f})" for t in ("QQ", "Q/Q")
            )
            c.report(f"F_p p=10007 d={d}: q={q}, {sizes}, branch bound {branch:.0f} (report only)")


CAMPAIGN = {
    "experiments": ["growth_additive", "conjecture_probe"],
    "dRange": [2, 3],
    "hRange": [1, 1],
    "pList": [101],
    "seeds": [0, 1],
    "conjecture": {"m": 2, "nMax": 6},
}


def test_criterion_11_campaign_determinism(capsys, tmp_path):
    with _Criterion(capsys, 11, "campaign determinism", 60.0) as c:
        first = run_campaign(CAMPAIGN, tmp_path / "one.jsonl")
        second = run_campaign(CAMPAIGN, tmp_path / "two.jsonl")
        assert [r.comparable() for r in first] == [r.comparable() for r in second]
        assert [r.key for r in first] == [r.key for r in second]
        assert run_campaign(CAMPAIGN, tmp_path / "one.jsonl") == []
        replayed = load_log(tmp_path / "one.jsonl")
        assert [r.comparable() for r in replayed] == [r.comparable() for r in first]
        c.report(f"{len(first)} records identical across reruns (timestamps excluded)")
