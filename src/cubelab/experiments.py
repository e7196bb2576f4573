"""Seeded experiment harness: random cubes, growth and energy trials,
conjecture probes, and append-only campaign logs.

Every trial is a pure function of (spec, parameters); randomness enters
only through random_cube(seed).  Records serialize to JSON lines with
exact integers as decimal strings, and a campaign keyed on (name,
spec-hash, seed) can be re-run on top of an existing log without
recomputing or duplicating anything.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path
import csv
import random

from .cube import (
    ADDITIVE,
    DEFAULT_ENUM_CAP,
    MULTIPLICATIVE,
    CubeSpec,
    FiniteSet,
    enumerate_cube,
    is_proper,
)
from .energy import energy_pair
from .floors import clears_floor
from .numeric import INTEGERS, PRIME_FIELD, AmbientRing, CapExceededError, _check, _parse_json
from .setops import DEFAULT_PAIR_CAP, DIFF, PROD, RATIO, SUM, _product_powers, pairwise_size

TARGET_OPS = {"QQ": PROD, "Q/Q": RATIO, "Q+Q": SUM, "Q-Q": DIFF}
_DEFAULT_TARGETS = {ADDITIVE: ("QQ", "Q/Q"), MULTIPLICATIVE: ("Q+Q", "Q-Q")}

# Default generator distributions, chosen so that random cubes are proper
# with overwhelming probability while all arithmetic stays far below the
# magnitude cap.
DEFAULT_DISTRIBUTIONS = {
    (INTEGERS, ADDITIVE): "uniform(1..1099511627776)",  # 40-bit
    (INTEGERS, MULTIPLICATIVE): "uniform(2..65536)",  # 16-bit
}

_DIST_RE = re.compile(r"^(powers)\((\d+)\)$|^(uniform)\((-?\d+)\.\.(-?\d+)\)$")


def parse_distribution(text: str):
    m = _DIST_RE.match(text.strip()) if isinstance(text, str) else None
    if not m:
        raise ValueError(f"cannot parse distribution {text!r}")
    if m.group(1):
        base = int(m.group(2))
        if base < 2:
            raise ValueError("powers base must be at least 2")
        return ("powers", base)
    lo, hi = int(m.group(4)), int(m.group(5))
    if lo > hi:
        raise ValueError("empty uniform range")
    return ("uniform", lo, hi)


def default_distribution(ring: AmbientRing, mode: str) -> str:
    if ring.kind == PRIME_FIELD:
        return f"uniform(1..{ring.modulus - 1})"
    return DEFAULT_DISTRIBUTIONS[(INTEGERS, mode)]


def random_cube(
    ring: AmbientRing,
    d: int,
    digits,
    mode: str,
    distribution: str | None = None,
    seed: int = 0,
) -> CubeSpec:
    """Deterministic cube draw: a0 first (additive mode), then generators."""
    if d < 0:
        raise ValueError(f"cube dimension d={d} is negative")
    if isinstance(digits, int):
        digits = tuple(range(digits + 1))
    if distribution is None:
        distribution = default_distribution(ring, mode)
    parsed = parse_distribution(distribution)
    rng = random.Random(seed)

    def draw() -> int:
        value = rng.randint(parsed[1], parsed[2])
        while ring.kind == PRIME_FIELD and value % ring.modulus == 0:
            value = rng.randint(parsed[1], parsed[2])
        return value

    if parsed[0] == "powers":
        base = parsed[1]
        gens = tuple(base**j for j in range(d))
        a0 = 0 if mode == ADDITIVE else 1
    else:
        a0 = draw() if mode == ADDITIVE else 1
        gens = tuple(draw() for _ in range(d))
    return CubeSpec(ring=ring, a0=a0, generators=gens, digits=digits, mode=mode)


# Draws random_proper_cube makes before it gives up.
_PROPER_DRAWS = 50


def random_proper_cube(
    ring: AmbientRing,
    d: int,
    digits,
    mode: str,
    distribution: str | None = None,
    seed: int = 0,
    *,
    cap: int = DEFAULT_ENUM_CAP,
) -> CubeSpec:
    """Redraw deterministically (seed, seed + step, ...) until proper."""
    for t in range(_PROPER_DRAWS):
        spec = random_cube(ring, d, digits, mode, distribution, seed + t * 1000003)
        if is_proper(spec, cap=cap):
            return spec
    raise ValueError(f"no proper cube found after {_PROPER_DRAWS} draws")


@dataclass
class ExperimentRecord:
    name: str
    spec: dict
    seed: int
    measured: dict
    bounds: dict
    exponents: dict
    flag: str
    wall_ms: float
    timestamp: str

    @property
    def key(self) -> str:
        return record_key(self.name, self.spec, self.seed)

    def to_json_line(self) -> str:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["measured"] = {k: str(v) for k, v in self.measured.items()}
        data["key"] = self.key
        return json.dumps(data)

    @classmethod
    def from_json_line(cls, line: str) -> "ExperimentRecord":
        data = _check(_parse_json(line, "log record"), _RECORD_SCHEMA, "log record")
        data["measured"] = {k: int(v) for k, v in data["measured"].items()}
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    def comparable(self) -> dict:
        """Everything except wall-clock fields, for determinism checks."""
        data = json.loads(self.to_json_line())
        data.pop("wall_ms")
        data.pop("timestamp")
        return data


# A log line: the record's fields, exact counts as decimal strings, and the key to_json_line adds.
_RECORD_SCHEMA = {"name": str, "spec": {}, "seed": int, "measured": {str: str}, "bounds": {str: float},
                  "exponents": {str: float}, "flag": str, "wall_ms": float, "timestamp": str, "key?": str}


def record_key(name: str, spec: dict, seed: int) -> str:
    blob = json.dumps({"name": name, "seed": seed, "spec": spec}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _trial_record(name: str, spec: dict, seed: int, start: float, measured: dict, bounds: dict | None = None,
                  exponents: dict | None = None, flag: str = "report") -> ExperimentRecord:
    """The record of a trial that began at perf_counter() == start, timed up to now."""
    return ExperimentRecord(name=name, spec=spec, seed=seed, measured=measured, bounds=bounds or {},
                            exponents=exponents or {}, flag=flag, wall_ms=(time.perf_counter() - start) * 1000.0,
                            timestamp=datetime.now(timezone.utc).isoformat())


def growth_trial(
    spec: CubeSpec,
    targets: tuple[str, ...] | None = None,
    seed: int = 0,
    floors: dict[str, Fraction] | None = None,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> ExperimentRecord:
    """Measure |Q op Q| for the requested targets and log the theorem-shape
    bound values next to them.  All bounds are report-only; when exact
    rational floors are supplied the record is flagged pass/fail by the
    integer comparison measured^den >= |Q|^num."""
    if targets is None:
        targets = _DEFAULT_TARGETS[spec.mode]
    start = time.perf_counter()
    q_set = enumerate_cube(spec, cap=enum_cap)
    q = len(q_set)
    measured: dict = {"|Q|": q}
    bounds: dict = {}
    exponents: dict = {}
    flag = "report"
    if q < 2:
        flag = "degenerate"
    else:
        for t in targets:
            size = pairwise_size(TARGET_OPS[t], q_set, q_set, cap=pair_cap)
            measured[t] = size
            exponents[t] = math.log(size) / math.log(q)
        _growth_bounds(spec, q, bounds)
        if floors:
            ok = all(
                clears_floor(measured[t], q, floors[t]) for t in targets if t in floors
            )
            flag = "pass" if ok else "fail"
            for t, fl in floors.items():
                if t in targets:
                    bounds[f"{t}_floor"] = fl.numerator / fl.denominator
    spec_json = {"cube": spec.to_json_dict(), "targets": list(targets)}
    return _trial_record(f"growth_{spec.mode}", spec_json, seed, start, measured, bounds, exponents, flag)


def _growth_bounds(spec: CubeSpec, q: int, bounds: dict) -> None:
    ring = spec.ring
    interval = spec.has_interval_digits
    if spec.mode == ADDITIVE:
        if ring.kind == INTEGERS:
            if interval:
                bounds["QQ_shape"] = q ** (100 / 79)
                bounds["Q/Q_shape"] = q ** (14 / 11)
            else:
                bounds["QD_shape"] = q ** (26 / 25)
        else:
            p = ring.modulus
            if interval:
                bounds["fp_branch"] = min(q ** (6 / 5), math.sqrt(q * p))
                if q <= p ** (36 / 67):
                    bounds["fp_second"] = q ** (11 / 9)
            else:
                bounds["QD_shape"] = min(q ** (26 / 25), q**0.4 * math.sqrt(p))
    else:
        if ring.kind == INTEGERS:
            bounds["Q+Q_shape"] = q ** (100 / 79)
            bounds["Q-Q_shape"] = q ** (14 / 11)
        else:
            p = ring.modulus
            bounds["fp_branch"] = min(q ** (31 / 30), math.sqrt(q * p))


def energy_bound_trial(
    spec: CubeSpec,
    seed: int = 0,
    *,
    enum_cap: int = DEFAULT_ENUM_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> ExperimentRecord:
    """Opposite-operation pair energy of a cube: E^x of an additive cube,
    E^+ of a multiplicative one, with the theorem-shape ceilings (constant
    1) recorded for the reader."""
    start = time.perf_counter()
    q_set = enumerate_cube(spec, cap=enum_cap)
    q = len(q_set)
    measured: dict = {"|Q|": q}
    bounds: dict = {}
    exponents: dict = {}
    flag = "report"
    if q < 2:
        flag = "degenerate"
    else:
        other = MULTIPLICATIVE if spec.mode == ADDITIVE else ADDITIVE
        value = energy_pair(other, q_set, cap=pair_cap).value
        key = "E_times" if other == MULTIPLICATIVE else "E_plus"
        measured[key] = value
        exponents[key] = math.log(value) / math.log(q)
        exponents["deficiency"] = 3.0 - exponents[key]
        if spec.mode == ADDITIVE and spec.has_interval_digits:
            h = spec.height
            shape = math.log(2 * h + 1, h + 1)
            if spec.ring.kind == INTEGERS:
                bounds["E_times_shape"] = q ** (1.5 + shape)
            else:
                p = spec.ring.modulus
                bounds["main_term"] = q ** (3 + shape) / p
                bounds["branch_a"] = q ** (2 + 2 * shape / 3)
                bounds["branch_b"] = q ** (1 + 1.5 * shape)
                bounds["E_times_shape"] = bounds["main_term"] + min(
                    bounds["branch_a"], bounds["branch_b"]
                )
        elif spec.mode == MULTIPLICATIVE and spec.ring.kind == PRIME_FIELD:
            p = spec.ring.modulus
            bounds["small_side_limit"] = p ** (13 / 23)
    return _trial_record(f"energy_{spec.mode}", {"cube": spec.to_json_dict()}, seed, start, measured, bounds,
                         exponents, flag)


def conjecture_probe(
    Q: FiniteSet,
    m: int,
    n_max: int,
    seed: int = 0,
    *,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> ExperimentRecord:
    """Smallest n <= n_max with |Q^n| >= |Q|^m, walking Q, Q^2, Q^3, ...

    A cap overflow mid-trajectory keeps the prefix and flags the record.
    """
    if m < 1 or n_max < 1:
        raise ValueError("m and n_max must be at least 1")
    start = time.perf_counter()
    size_q = len(Q)
    target = size_q**m
    measured: dict = {"|Q|": size_q, "target": target}
    flag = "not_reached"
    try:
        # range first, so that zip stops before it asks for Q^(n_max + 1).
        for n, power in zip(range(1, n_max + 1), _product_powers(Q, pair_cap)):
            measured[f"|Q^{n}|"] = len(power)
            if len(power) >= target:
                measured["n"] = n
                flag = "pass"
                break
    except CapExceededError:
        flag = "cap_exceeded"
    spec = {"set_size": size_q, "m": m, "n_max": n_max}
    return _trial_record("conjecture_probe", spec, seed, start, measured, flag=flag)


# --- campaigns ---------------------------------------------------------

# The mode of each experiment kind's cubes; a kind is also the name of its records.
_KIND_MODES = {
    "growth_additive": ADDITIVE,
    "growth_multiplicative": MULTIPLICATIVE,
    "energy_additive": ADDITIVE,
    "energy_multiplicative": MULTIPLICATIVE,
    "conjecture_probe": ADDITIVE,
}


# A campaign config.  genDistribution is left to parse_distribution, whose errors name the distribution.
_CONFIG_SCHEMA = {"experiments?": [str], "dRange?": (int, int), "hRange?": (int, int), "seeds?": [int],
                  "pList?": [int], "caps?": {str: int}, "conjecture?": {"m?": int, "nMax?": int},
                  "properOnly?": bool, "includeIntegers?": bool}


def expand_campaign(config: dict) -> list[dict]:
    """The full deterministic task list for a campaign config.

    Each task holds its cube, drawn here once, inside the spec of the
    record it will produce, so its key is known before it runs.
    """
    _check(config, _CONFIG_SCHEMA, "campaign config")
    if "genDistribution" in config:  # only a missing key means the default; a null is an error
        parse_distribution(config["genDistribution"])
    d_lo, d_hi = config.get("dRange", [2, 6])
    h_lo, h_hi = config.get("hRange", [1, 1])
    for key, lo, hi in (("dRange", d_lo, d_hi), ("hRange", h_lo, h_hi)):
        if lo > hi:
            raise ValueError(f"campaign config: {key} [{lo}, {hi}] is empty, its low end above its high end")
    seeds = config.get("seeds", [0])
    caps = config.get("caps", {})
    params = config.get("conjecture", {})
    rings = [AmbientRing.integers()] if config.get("includeIntegers", True) else []
    rings += [AmbientRing.prime_field(p) for p in config.get("pList", [])]
    draw = random_proper_cube if config.get("properOnly", False) else random_cube
    tasks: list[dict] = []
    for kind in config.get("experiments", []):
        if kind not in _KIND_MODES:
            raise ValueError(f"unknown experiment {kind!r}")
        mode = _KIND_MODES[kind]
        heights = [h for h in range(h_lo, h_hi + 1) if mode == ADDITIVE or h == 1]
        extra: dict = {}
        if kind.startswith("growth_"):
            extra = {"targets": list(_DEFAULT_TARGETS[mode])}
        elif kind == "conjecture_probe":
            heights = [1]
            extra = {"m": params.get("m", 2), "n_max": params.get("nMax", 12)}
        for ring in rings:
            for d in range(d_lo, d_hi + 1):
                for h in heights:
                    for seed in seeds:
                        cube = draw(ring, d, h, mode, config.get("genDistribution"), seed)
                        spec = {"cube": cube.to_json_dict(), **extra}
                        tasks.append({"kind": kind, "d": d, "seed": seed, "spec": spec, "caps": caps})
    return tasks


def run_task(task: dict) -> ExperimentRecord:
    """The record of one task of expand_campaign, on the cube it holds."""
    spec = task["spec"]
    cube = CubeSpec.from_json_dict(spec["cube"])
    enum_cap = task["caps"].get("enum", DEFAULT_ENUM_CAP)
    pair_cap = task["caps"].get("pair", DEFAULT_PAIR_CAP)
    kind, seed = task["kind"], task["seed"]
    if kind.startswith("growth_"):
        return growth_trial(cube, tuple(spec["targets"]), seed, enum_cap=enum_cap, pair_cap=pair_cap)
    if kind.startswith("energy_"):
        return energy_bound_trial(cube, seed, enum_cap=enum_cap, pair_cap=pair_cap)
    # expand_campaign admits no other kind.
    record = conjecture_probe(enumerate_cube(cube, cap=enum_cap), spec["m"], spec["n_max"], seed, pair_cap=pair_cap)
    record.spec = spec
    return record


def _read_log(path: Path) -> tuple[list[ExperimentRecord], bytes]:
    """The records of a log and its bytes up to the end of the last one.

    A last line with no newline that is not valid JSON is a record torn by
    an interrupted write; it is left out of both.  A malformed line
    anywhere else raises.
    """
    data = path.read_bytes() if path.exists() else b""
    lines = data.split(b"\n")
    if lines[-1].strip():
        try:
            _parse_json(lines[-1], "log record")
        except ValueError:
            data = data[: len(data) - len(lines.pop())]
    return [ExperimentRecord.from_json_line(line) for line in lines if line.strip()], data


def load_log(log_path) -> list[ExperimentRecord]:
    return _read_log(Path(log_path))[0]


def _records(todo: list[dict], jobs: int):
    """run_task over the tasks, yielding each record in task order."""
    if jobs <= 1 or len(todo) <= 1:
        yield from map(run_task, todo)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        try:
            yield from pool.map(run_task, todo)
        except BaseException as exc:
            # Drop the tasks not yet started, so that an interrupt returns promptly.
            pool.shutdown(cancel_futures=True)
            if isinstance(exc, BrokenProcessPool):
                raise CapExceededError("a campaign worker died, most likely out of memory; "
                                       "the log keeps every finished record") from exc
            raise


def run_campaign(config: dict, log_path, jobs: int = 1) -> list[ExperimentRecord]:
    """Run all tasks not yet present in the log; append and return them.

    Each record is appended and flushed as soon as it and the tasks before
    it are done, so an interrupted campaign keeps what it finished.
    """
    path = Path(log_path)
    previous, kept = _read_log(path)
    done = {r.key for r in previous}
    todo = [t for t in expand_campaign(config) if record_key(t["kind"], t["spec"], t["seed"]) not in done]
    path.parent.mkdir(parents=True, exist_ok=True)
    records = []
    with path.open("ab") as fh:
        fh.truncate(len(kept))
        if kept and not kept.endswith(b"\n"):
            fh.write(b"\n")
        for record in _records(todo, jobs):
            fh.write(record.to_json_line().encode() + b"\n")
            fh.flush()
            records.append(record)
    return records


def export_growth_csv(log_path, csv_path, target: str = "QQ") -> int:
    """Write (|Q|, |target|, exponent) rows for growth records; returns the
    row count."""
    records = load_log(log_path)
    rows = 0
    with Path(csv_path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q_size", f"size_{target}", "exponent"])
        for record in records:
            if target in record.measured and "|Q|" in record.measured:
                writer.writerow(
                    [
                        record.measured["|Q|"],
                        record.measured[target],
                        record.exponents.get(target, ""),
                    ]
                )
                rows += 1
    return rows
