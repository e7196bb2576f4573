"""The benchmark's workloads: inputs drawn from a seed, one round of
program operations, and the checks on what the program returned.

A run repeats whole rounds, so every run attempts the same operations in
the same proportions whatever its length.  Program calls go through
``Meter.call``, which times them; the checks run outside those intervals
and compare against ``oracles``, which never calls cubelab.
"""

from __future__ import annotations

import csv
import random
import shutil
import statistics
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles


class Meter:
    """Times program calls and counts operations, failures and tasks."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        # slot_s[i]: the durations of the i-th call of each round.
        self.slot_s: list[list[float]] = []
        self._slot = 0
        self.task_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: Counter = Counter()

    def new_round(self) -> None:
        self._slot = 0

    def round_s(self) -> float:
        """A round's program time: each call's median duration over the
        rounds, summed.  The machine's speed shifts in bursts of seconds;
        a median per call keeps a burst that covers a minority of the
        rounds out of the figure, where a sum over the run would not."""
        return sum(statistics.median(times) for times in self.slot_s)

    def call(self, label: str, fn, *args, weight: int = 1, task: bool = True, **kwargs):
        """Run one program operation (``weight`` operations for a campaign).

        Returns (ok, output, seconds).  A raised exception counts the
        operation as failed and is kept for the report; a completed call
        with ``task`` set counts as one task of that duration.
        """
        if self.tracer is not None:
            self.tracer.task = label
        self.attempted += weight
        out, error = None, None
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # the run goes on; the failure is reported
            error = exc
        dt = perf_counter() - t0
        ok = error is None
        if not ok:
            self.failed += weight
            self.errors[f"{label}: {type(error).__name__}: {error}"] += weight
        if self._slot == len(self.slot_s):
            self.slot_s.append([])
        self.slot_s[self._slot].append(dt)
        self._slot += 1
        if ok and task:
            self.task_ms.append(dt * 1000.0)
        return ok, out, dt


class Observations:
    """What the program returned, by operation.  Each distinct answer is
    kept once, so memory stays flat however many rounds a run makes."""

    def __init__(self) -> None:
        self.by_key: dict = {}

    def add(self, key, digest) -> None:
        seen = self.by_key.setdefault(key, [])
        if digest not in seen:
            seen.append(digest)

    def items(self):
        for key, seen in self.by_key.items():
            for digest in seen:
                yield key, digest


def _modules():
    """cubelab's modules as currently imported; callers look functions up
    on them at call time, so the tracer's wrappers are seen."""
    from cubelab import cube, energy, experiments, incidence, numeric, setops, structure

    return {
        "cube": cube, "energy": energy, "experiments": experiments, "incidence": incidence,
        "numeric": numeric, "setops": setops, "structure": structure,
    }


def _plain(spec) -> tuple:
    return (spec.a0, spec.generators, spec.digits, spec.mode == "additive")


# --- growth-z --------------------------------------------------------------

class GrowthZ:
    """growth_trial on proper height-1 cubes over Z, as in the growth-floor
    acceptance criterion: |QQ|, |Q/Q| of additive cubes and |Q+Q|, |Q-Q| of
    multiplicative ones, at the two largest dimensions that keep a round to
    seconds.  pairwise_size does nearly all the work.

    A round holds one additive trial at d=10 (about 0.7 s), three
    multiplicative ones at d=11 (about 1.7 s) and one additive one at d=11
    (about 3.3 s), so the median task always falls among the three
    multiplicative trials, never on a gap between two kinds."""

    name = "growth-z"
    workers = 0
    # (d, mode, j): the cube is random_proper_cube(Z, d, 1, mode, seed=97*d + s + 1000*j).
    CUBES = ((10, "additive", 0), (11, "multiplicative", 0), (11, "multiplicative", 1),
             (11, "multiplicative", 2), (11, "additive", 0))

    def setup(self, seed: int, out_dir: Path) -> dict:
        m = _modules()
        Z = m["numeric"].AmbientRing.integers()
        cubes = []
        for d, mode, j in self.CUBES:
            cube_seed = 97 * d + seed + 1000 * j
            spec = m["experiments"].random_proper_cube(Z, d, 1, mode, seed=cube_seed)
            targets = ("QQ", "Q/Q") if mode == "additive" else ("Q+Q", "Q-Q")
            floors = {t: Fraction(6, 5) for t in targets}
            cubes.append((f"growth_trial {mode} d={d}", spec, cube_seed, floors))
        return {"m": m, "cubes": cubes}

    def run_round(self, state, meter: Meter, observations: Observations, phases: dict) -> None:
        experiments = state["m"]["experiments"]
        for i, (label, spec, cube_seed, floors) in enumerate(state["cubes"]):
            ok, rec, _ = meter.call(label, experiments.growth_trial, spec, seed=cube_seed, floors=floors)
            if ok:
                observations.add(i, (rec.measured, rec.flag))

    def verify(self, state, observations: Observations) -> list[str]:
        problems = []
        cube_sets = []
        for label, spec, _, _ in state["cubes"]:
            values = oracles.distinct(oracles.cube_values(*_plain(spec)))
            d = len(spec.generators)
            if len(values) != 2**d:
                problems.append(f"{label}: independent enumeration gives {len(values)} values, not 2^{d}")
            cube_sets.append(values)
        smallest = min(len(values) for values in cube_sets)
        recount = {}
        for i, (_, _, _, floors) in enumerate(state["cubes"]):
            if len(cube_sets[i]) == smallest:
                for t in floors:
                    recount[(i, t)] = oracles.op_size(oracles.TARGETS[t][0], cube_sets[i], cube_sets[i])
        for i, (measured, flag) in observations.items():
            label, _, _, floors = state["cubes"][i]
            q = len(cube_sets[i])
            if measured["|Q|"] != q:
                problems.append(f"{label}: |Q|={measured['|Q|']}, recount {q}")
            cleared = True
            for t in floors:
                size = measured[t]
                lower, upper = oracles.size_range(t, q)
                if not lower <= size <= upper:
                    problems.append(f"{label}: |{t}|={size} outside [{lower}, {upper}]")
                cleared = cleared and size**5 >= q**6
                if (i, t) in recount and recount[(i, t)] != size:
                    problems.append(f"{label}: |{t}|={size}, sorted-list recount {recount[(i, t)]}")
            if not cleared:
                problems.append(f"{label}: a measured size misses q^(6/5)")
            if flag != ("pass" if cleared else "fail"):
                problems.append(f"{label}: flag {flag!r} disagrees with the q^(6/5) comparison")
        return problems


# --- count-verify ----------------------------------------------------------

def _sd_with_coverage(structure, spec):
    sd = structure.sd_decompose(spec)
    return sd, sd.coverage_ok()


def _incidence_totals(incidence, points, lines):
    return incidence.count_incidences_2d(points, lines), sum(incidence.incidences_per_point(points, lines))


class CountVerify:
    """The counted route and the checkers: energies through representation
    counts, the popular sum/difference split, iterated sums with
    multiplicities, batches of Hoelder-chain and projection checks, and
    incidences on all lines of F_101^2.  pairwise with multiplicity maps
    does the work; pairwise_size runs only in the one operation that
    fails at present (a size of a ratio set of Fractions)."""

    name = "count-verify"
    workers = 0
    D_ADD, D_MUL, D_POWER, D_ITER, K_ITER, D_SD = 8, 9, 8, 7, 3, 9
    # Two E^x trials a round: their cost varies from cube to cube.
    N_ADD = 2
    # Seven operations of a round take under 15 ms and seven over 60 ms; the
    # N_EP energy_pair calls (about 30 ms each) sit between them, so the
    # median task is always one of them.
    N_EP = 5
    OLMEZOV_BATCH, GMR_BATCH, INCIDENCE_POINTS = 24, 60, 30
    PRIMES = (11, 13, 17, 19, 23)

    def setup(self, seed: int, out_dir: Path) -> dict:
        m = _modules()
        cube, setops, numeric = m["cube"], m["setops"], m["numeric"]
        experiments, incidence = m["experiments"], m["incidence"]
        Z = numeric.AmbientRing.integers()
        rng = random.Random(1_000_003 * seed + 17)
        adds = [experiments.random_proper_cube(Z, self.D_ADD, 1, cube.ADDITIVE, seed=self.N_ADD * seed + j)
                for j in range(self.N_ADD)]
        eps = [experiments.random_proper_cube(Z, self.D_ADD, 1, cube.ADDITIVE, seed=1000 + self.N_EP * seed + j)
               for j in range(self.N_EP)]
        mul = experiments.random_proper_cube(Z, self.D_MUL, 1, cube.MULTIPLICATIVE, seed=seed)
        base = 4 + seed % 7
        power = cube.CubeSpec(ring=Z, a0=rng.randint(0, 10**6),
                              generators=tuple(base**j for j in range(self.D_POWER)), digits=(0, 1))
        iterated = experiments.random_proper_cube(Z, self.D_ITER, 1, cube.ADDITIVE, seed=seed + 1)
        sd_cube = experiments.random_proper_cube(Z, self.D_SD, 1, cube.ADDITIVE, seed=seed + 2)
        # Fixed input, whatever the seed: pairwise_size(RATIO) raises on it.
        ratio_cube = experiments.random_proper_cube(Z, 4, 1, cube.ADDITIVE, seed=4)
        ratio_set = setops.pairwise_set(setops.RATIO, cube.enumerate_cube(ratio_cube),
                                        cube.enumerate_cube(ratio_cube))

        olmezov = []
        for i in range(self.OLMEZOV_BATCH):
            n = rng.randint(2, 3)
            s, mm = rng.randint(1, n - 1), rng.randint(1, 3)
            if i % 2 == 0:
                p = self.PRIMES[i % len(self.PRIMES)]
                ring, mode = numeric.AmbientRing.prime_field(p), cube.MULTIPLICATIVE
                raw = [rng.sample(range(1, p), rng.randint(1, 8)) for _ in range(3)]
            else:
                p, ring, mode = None, Z, cube.ADDITIVE
                raw = [[rng.randint(lo, hi) for _ in range(rng.randint(1, 8))]
                       for lo, hi in ((-30, 30), (-30, 30), (-60, 60))]
            sets = [cube.FiniteSet.from_iterable(ring, r) for r in raw]
            olmezov.append((sets, n, s, mm, mode, p, raw))

        gmr = []
        F101 = numeric.AmbientRing.prime_field(101)
        for i in range(self.GMR_BATCH):
            ring, lo, hi, p = (Z, -40, 40, None) if i % 2 else (F101, 0, 100, 101)
            raw = [[rng.randint(lo, hi) for _ in range(rng.randint(1, 6))]
                   for _ in range(rng.randint(2, 5))]
            gmr.append(([cube.FiniteSet.from_iterable(ring, r) for r in raw], p, raw))

        raw_points = [(rng.randrange(101), rng.randrange(101)) for _ in range(self.INCIDENCE_POINTS)]
        grid_p = 13
        return {
            "m": m, "adds": adds, "eps": eps, "mul": mul, "power": power,
            "iterated": iterated, "sd_cube": sd_cube, "ratio_cube": ratio_cube, "ratio_set": ratio_set,
            "Qe": [cube.enumerate_cube(spec) for spec in eps], "Qp": cube.enumerate_cube(power),
            "olmezov": olmezov, "gmr": gmr,
            "raw_points": raw_points, "points": incidence.normalize_points_2d(101, raw_points),
            "lines": incidence.LineSet.all_lines(101),
            "grid": incidence.normalize_points_2d(
                grid_p, [(x, y) for x in range(grid_p) for y in range(grid_p)]),
            "grid_lines": incidence.LineSet.all_lines(grid_p), "grid_p": grid_p,
        }

    def run_round(self, state, meter: Meter, observations: Observations, phases: dict) -> None:
        m = state["m"]
        experiments, energy, setops = m["experiments"], m["energy"], m["setops"]
        structure, incidence = m["structure"], m["incidence"]
        ADD = m["cube"].ADDITIVE

        def note(key, ok, out, digest):
            if ok:
                observations.add(key, digest(out))

        for j, spec in enumerate(state["adds"]):
            ok, rec, _ = meter.call(f"energy_bound_trial additive d={self.D_ADD}",
                                    experiments.energy_bound_trial, spec)
            note(("E_times", j), ok, rec, lambda r: (r.measured["|Q|"], r.measured["E_times"]))
        ok, rec, _ = meter.call(f"energy_bound_trial multiplicative d={self.D_MUL}",
                                experiments.energy_bound_trial, state["mul"])
        note("E_plus_mul", ok, rec, lambda r: (r.measured["|Q|"], r.measured["E_plus"]))
        for j, Q in enumerate(state["Qe"]):
            ok, rep, _ = meter.call(f"energy_pair additive d={self.D_ADD}", energy.energy_pair, ADD, Q)
            note(("E_plus_add", j), ok, rep, lambda r: r.value)
        for k in (2, 3):
            ok, rep, _ = meter.call(f"energy_k k={k}", energy.energy_k, ADD, state["Qp"], k)
            note(("E_k", k), ok, rep, lambda r: r.value)
            ok, rep, _ = meter.call(f"energy_tk k={k}", energy.energy_tk, ADD, state["Qp"], k)
            note(("T_k", k), ok, rep, lambda r: r.value)
        ok, out, _ = meter.call(f"sd_decompose+coverage_ok d={self.D_SD}",
                                _sd_with_coverage, structure, state["sd_cube"])
        note("sd", ok, out, lambda o: (o[0].sums.elements, o[0].diffs.elements, o[1]))
        ok, out, _ = meter.call(f"sd_popularity_ok d={self.D_ITER}",
                                structure.sd_popularity_ok, state["iterated"])
        note("sd_popularity", ok, out, lambda o: o)
        ok, out, _ = meter.call(f"iterate_sum k={self.K_ITER} d={self.D_ITER}",
                                setops.iterate_sum, state["iterated"], self.K_ITER)
        note("iterate_sum", ok, out, lambda o: (
            o[0].elements, sum(o[1].counts.values()), sum(c * c for c in o[1].counts.values())))
        ok, out, _ = meter.call("olmezov_sides batch", lambda: [
            structure.olmezov_sides(sets[0], sets[1], sets[2], n, s, mm, mode, seed=i)
            for i, (sets, n, s, mm, mode, _, _) in enumerate(state["olmezov"])])
        note("olmezov", ok, out, lambda vs: [(v.passed, v.lhs) for v in vs])
        ok, out, _ = meter.call("gmr_check batch", lambda: [
            structure.gmr_check(sets, seed=i) for i, (sets, _, _) in enumerate(state["gmr"])])
        note("gmr", ok, out, lambda vs: [(v.passed, v.lhs) for v in vs])
        ok, out, _ = meter.call("count_incidences_2d p=101 all lines",
                                _incidence_totals, incidence, state["points"], state["lines"])
        note("incidence", ok, out, lambda o: o)
        ok, out, _ = meter.call(f"count_incidences_2d p={state['grid_p']} full grid",
                                _incidence_totals, incidence, state["grid"], state["grid_lines"])
        note("incidence_grid", ok, out, lambda o: o)
        ok, out, _ = meter.call("pairwise_size ratio of a ratio set",
                                setops.pairwise_size, setops.RATIO, state["ratio_set"], state["ratio_set"])
        note("ratio_of_ratios", ok, out, lambda o: o)

    def verify(self, state, observations: Observations) -> list[str]:
        problems = []
        expect = {}
        for j, spec in enumerate(state["adds"]):
            Q = oracles.distinct(oracles.cube_values(*_plain(spec)))
            q = len(Q)
            expect[("E_times", j)] = (q, oracles.energy("prod", Q))
            if 0 in Q or not 2 * q * q - q <= expect[("E_times", j)][1] <= q**3:
                problems.append("E^x recount breaks 2q^2-q <= E^x <= q^3, or 0 lies in Q")
        for j, spec in enumerate(state["eps"]):
            Q = oracles.distinct(oracles.cube_values(*_plain(spec)))
            expect[("E_plus_add", j)] = oracles.energy("sum", Q)
            if oracles.op_size("sum", Q, Q) == 3**self.D_ADD and expect[("E_plus_add", j)] != 6**self.D_ADD:
                problems.append("|Q+Q| = 3^d but the E^+ recount is not 6^d")
        Qm = oracles.distinct(oracles.cube_values(*_plain(state["mul"])))
        Qp = oracles.distinct(oracles.cube_values(*_plain(state["power"])))
        It = oracles.distinct(oracles.cube_values(*_plain(state["iterated"])))
        qm = len(Qm)
        expect["E_plus_mul"] = (qm, oracles.energy("sum", Qm))
        if not 2 * qm * qm - qm <= expect["E_plus_mul"][1] <= qm**3:
            problems.append("E^+ recount of the multiplicative cube breaks 2q^2-q <= E^+ <= q^3")
        # The power base is at least 4, so digit sums of up to three elements
        # and digit differences never interact.
        if len(Qp) != 2**self.D_POWER:
            problems.append("the power cube is not proper")
        for k in (2, 3):
            expect[("E_k", k)] = oracles.ek_power_cube(k, self.D_POWER)
            expect[("T_k", k)] = oracles.tk_power_cube(k, self.D_POWER)
        Qs = oracles.distinct(oracles.cube_values(*_plain(state["sd_cube"])))
        expect["sd"] = (tuple(oracles.popular(oracles.op_values("sum", Qs, Qs), len(Qs))),
                        tuple(oracles.popular(oracles.op_values("diff", Qs, Qs), len(Qs))), True)
        expect["sd_popularity"] = True
        k, d = self.K_ITER, self.D_ITER
        folded = oracles.distinct(oracles.cube_values(
            state["iterated"].a0 * k, state["iterated"].generators, range(k + 1), True))
        if len(folded) == (k + 1) ** d:
            # kQ is the cube over digits 0..k; r counts ordered k-tuples of Q.
            expect["iterate_sum"] = (tuple(folded), len(It) ** k, oracles.tk_power_cube(k, d))
        else:
            expect["iterate_sum_mass"] = len(It) ** k
        expect["olmezov"] = [(True, oracles.shifted_pairs(*self._plain_sets(raw, p), mode, p) ** (mm * n))
                             for _, n, _, mm, mode, p, raw in state["olmezov"]]
        expect["gmr"] = []
        for _, p, raw in state["gmr"]:
            size = oracles.sumset_size(self._plain_sets(raw, p), p)
            expect["gmr"].append((True, size ** (len(raw) - 1)))
        expect["incidence"] = (oracles.incidences_all_lines(oracles.distinct(state["raw_points"]), 101),) * 2
        gp = state["grid_p"]
        expect["incidence_grid"] = (gp * (gp * gp + gp),) * 2
        Q4 = oracles.distinct(oracles.cube_values(*_plain(state["ratio_cube"])))
        R = oracles.distinct(oracles.op_values("ratio", Q4, Q4))
        expect["ratio_of_ratios"] = oracles.ratio_of_ratios_size(R)
        for key, got in observations.items():
            if key == "iterate_sum" and "iterate_sum_mass" in expect:
                key, got = "iterate_sum_mass", got[1]
            if got != expect[key]:
                problems.append(f"{key}: got {str(got)[:120]}, recount {str(expect[key])[:120]}")
        return problems

    @staticmethod
    def _plain_sets(raw, p):
        if p is None:
            return [oracles.distinct(r) for r in raw]
        return [oracles.distinct(x % p for x in r) for r in raw]


# --- campaign-mixed --------------------------------------------------------

class CampaignMixed:
    """run_campaign with two pool workers over a mixed config of 200 small
    tasks, into a fresh log; then the same config again, which resumes and
    adds nothing; then load_log and the CSV export.  The per-task work is
    tiny, so the experiments layer (pool, key hashing with cube redraws,
    log writes and reads) does the work."""

    name = "campaign-mixed"
    JOBS = 2
    workers = JOBS
    EXPERIMENTS = ("growth_additive", "growth_multiplicative", "energy_additive",
                   "energy_multiplicative", "conjecture_probe")
    D_RANGE = (2, 6)
    SEEDS_PER_RUN = 4

    def setup(self, seed: int, out_dir: Path) -> dict:
        m = _modules()
        config = {
            "experiments": list(self.EXPERIMENTS),
            "dRange": list(self.D_RANGE),
            "hRange": [1, 1],
            "pList": [10007],
            "includeIntegers": True,
            "seeds": [self.SEEDS_PER_RUN * seed + i for i in range(self.SEEDS_PER_RUN)],
            "properOnly": True,
            "conjecture": {"m": 2, "nMax": 6},
        }
        logs = out_dir / "campaign-logs"
        shutil.rmtree(logs, ignore_errors=True)
        logs.mkdir(parents=True)
        rings = 2
        n_tasks = len(self.EXPERIMENTS) * rings * (self.D_RANGE[1] - self.D_RANGE[0] + 1) * self.SEEDS_PER_RUN
        return {"m": m, "config": config, "logs": logs, "n_tasks": n_tasks, "round": 0}

    def run_round(self, state, meter: Meter, observations: Observations, phases: dict) -> None:
        experiments = state["m"]["experiments"]
        config, n_tasks = state["config"], state["n_tasks"]
        state["round"] += 1
        log = state["logs"] / f"round-{state['round']}.jsonl"
        csv_paths = {t: state["logs"] / f"round-{state['round']}-{t.replace('+', 'plus')}.csv"
                     for t in ("QQ", "Q+Q")}
        ok, records, dt = meter.call("run_campaign", experiments.run_campaign, config, log,
                                     jobs=self.JOBS, weight=n_tasks, task=False)
        if not ok:
            return
        phases["run_campaign_s"] += dt
        phases["task_busy_s"] += sum(r.wall_ms for r in records) / 1000.0
        meter.task_ms.extend(r.wall_ms for r in records)
        log_bytes = log.stat().st_size
        phases["log_bytes"] += log_bytes
        ok, again, dt = meter.call("run_campaign resume", experiments.run_campaign, config, log,
                                   jobs=self.JOBS, task=False)
        phases["resume_s"] += dt
        ok_load, loaded, dt = meter.call("load_log", experiments.load_log, log, task=False)
        phases["load_log_s"] += dt
        rows = {}
        for t, path in csv_paths.items():
            ok_csv, n_rows, dt = meter.call(f"export_growth_csv {t}", experiments.export_growth_csv,
                                            log, path, t, task=False)
            phases["export_csv_s"] += dt
            if ok_csv:
                with path.open(newline="") as fh:
                    body = list(csv.reader(fh))
                rows[t] = (n_rows, len(body) - 1, body[0] if body else None)
        comparable = [r.comparable() for r in records]
        observations.add("round", {
            "n_records": len(records),
            "keys": len({r.key for r in records}),
            "comparable": comparable,
            "resume": (again, log.stat().st_size - log_bytes) if ok else None,
            "loaded": ok_load and [r.comparable() for r in loaded] == comparable,
            "growth": {t: sum(1 for r in records if r.name.startswith("growth_") and t in r.measured)
                       for t in csv_paths},
            "rows": rows,
        })
        for path in (log, *csv_paths.values()):
            path.unlink(missing_ok=True)

    def verify(self, state, observations: Observations) -> list[str]:
        problems = []
        rounds = list(observations.items())
        if len({str(ob["comparable"]) for _, ob in rounds}) > 1:
            problems.append("rounds of the same config gave different records")
        for i, (_, ob) in enumerate(rounds):
            where = f"distinct outcome {i + 1}"
            if ob["n_records"] != state["n_tasks"] or ob["keys"] != state["n_tasks"]:
                problems.append(f"{where}: {ob['n_records']} records, {ob['keys']} keys, "
                                f"{state['n_tasks']} tasks")
            if ob["resume"] != ([], 0):
                problems.append(f"{where}: the resume pass appended to the log")
            if not ob["loaded"]:
                problems.append(f"{where}: load_log does not give back the written records")
            for t, (n_rows, body_rows, header) in ob["rows"].items():
                if not n_rows == body_rows == ob["growth"][t] or header != ["q_size", f"size_{t}", "exponent"]:
                    problems.append(f"{where}: CSV for {t} has {body_rows} rows "
                                    f"(reported {n_rows}) for {ob['growth'][t]} growth records")
            for rec in ob["comparable"]:
                problems.extend(f"{where}: {msg}" for msg in self._record_bounds(rec))
        return problems

    @staticmethod
    def _record_bounds(rec: dict) -> list[str]:
        """Properties every growth and energy record must have."""
        measured = {k: int(v) for k, v in rec["measured"].items()}
        q = measured["|Q|"]
        out = []
        for t in oracles.TARGETS:
            if t in measured:
                lower, upper = oracles.size_range(t, q)
                if not lower <= measured[t] <= upper:
                    out.append(f"{rec['name']} {rec['key'][:8]}: |{t}|={measured[t]} outside bounds")
        for key in ("E_times", "E_plus"):
            if key in measured and measured[key] < 2 * q * q - q:
                out.append(f"{rec['name']} {rec['key'][:8]}: {key} below 2q^2-q")
        return out


WORKLOADS = {w.name: w for w in (GrowthZ, CountVerify, CampaignMixed)}
