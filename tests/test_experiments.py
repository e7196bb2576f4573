"""Experiment harness: seeded draws, trial records, campaign logs."""

import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from cubelab import experiments
from cubelab.cli import main
from cubelab.cube import ADDITIVE, MULTIPLICATIVE, CubeSpec, FiniteSet, is_proper
from cubelab.experiments import (
    ExperimentRecord,
    conjecture_probe,
    default_distribution,
    energy_bound_trial,
    expand_campaign,
    export_growth_csv,
    growth_trial,
    load_log,
    parse_distribution,
    random_cube,
    random_proper_cube,
    record_key,
    run_campaign,
)
from cubelab.numeric import AmbientRing

Z = AmbientRing.integers()
F101 = AmbientRing.prime_field(101)


def test_parse_distribution():
    assert parse_distribution("powers(3)") == ("powers", 3)
    assert parse_distribution("uniform(1..99)") == ("uniform", 1, 99)
    assert parse_distribution("uniform(-5..5)") == ("uniform", -5, 5)
    for bad in ("powers(1)", "uniform(9..1)", "normal(0,1)", "powers(x)"):
        with pytest.raises(ValueError):
            parse_distribution(bad)


def test_default_distributions():
    assert default_distribution(F101, ADDITIVE) == "uniform(1..100)"
    assert "1099511627776" in default_distribution(Z, ADDITIVE)


def test_random_cube_determinism():
    a = random_cube(Z, 5, 1, ADDITIVE, "uniform(1..1000)", seed=99)
    b = random_cube(Z, 5, 1, ADDITIVE, "uniform(1..1000)", seed=99)
    c = random_cube(Z, 5, 1, ADDITIVE, "uniform(1..1000)", seed=100)
    assert a == b
    assert a != c
    assert all(1 <= g <= 1000 for g in a.generators)


def test_random_cube_powers():
    spec = random_cube(Z, 4, 2, ADDITIVE, "powers(7)", seed=0)
    assert spec.generators == (1, 7, 49, 343)
    assert spec.a0 == 0
    assert is_proper(spec)
    mult = random_cube(Z, 3, 1, MULTIPLICATIVE, "powers(2)", seed=0)
    assert mult.a0 == 1
    assert mult.generators == (1, 2, 4)


def test_random_cube_field_rejects_zero_residues():
    spec = random_cube(F101, 6, 1, ADDITIVE, "uniform(1..10100)", seed=5)
    assert all(g != 0 for g in spec.generators)


def test_random_proper_cube():
    spec = random_proper_cube(Z, 6, 1, ADDITIVE, "uniform(1..4096)", seed=1)
    assert is_proper(spec)


def test_growth_trial_record():
    spec = random_cube(Z, 5, 1, ADDITIVE, seed=3)
    rec = growth_trial(spec, seed=3)
    assert rec.flag == "report"
    assert rec.measured["|Q|"] == 32
    assert rec.measured["QQ"] >= 32 and rec.measured["Q/Q"] >= 32
    assert set(rec.exponents) == {"QQ", "Q/Q"}
    assert "QQ_shape" in rec.bounds and "Q/Q_shape" in rec.bounds
    # Rerun is identical except for clocks.
    again = growth_trial(spec, seed=3)
    assert rec.comparable() == again.comparable()
    assert rec.key == again.key


def test_growth_trial_floors():
    spec = random_cube(Z, 5, 1, ADDITIVE, seed=3)
    floors = {"QQ": Fraction(6, 5), "Q/Q": Fraction(6, 5)}
    assert growth_trial(spec, seed=3, floors=floors).flag == "pass"
    # A single generator gives |Q| = 2 and |QQ| = 2 < 2^(6/5).
    tiny = random_cube(Z, 1, 1, ADDITIVE, "powers(2)", seed=0)
    assert growth_trial(tiny, floors={"QQ": Fraction(6, 5)}).flag == "fail"


def test_growth_trial_field_bounds():
    spec = random_cube(F101, 4, 1, ADDITIVE, seed=8)
    rec = growth_trial(spec, seed=8)
    assert "fp_branch" in rec.bounds


@pytest.mark.parametrize("ring, q", [(Z, 27), (F101, 24)])
def test_growth_trial_missing_digit_cube(ring, q):
    # Digits {0, 1, 3} are no interval, so the bound is the QD shape.
    rec = growth_trial(CubeSpec(ring, 0, (1, 7, 49), (0, 1, 3)))
    assert rec.measured["|Q|"] == q
    shape = q ** (26 / 25)
    if ring.modulus is not None:
        shape = min(shape, q**0.4 * math.sqrt(ring.modulus))
    assert rec.bounds == {"QD_shape": shape}


def test_growth_trial_multiplicative():
    spec = random_cube(Z, 4, 1, MULTIPLICATIVE, seed=2)
    rec = growth_trial(spec, seed=2)
    assert set(rec.exponents) == {"Q+Q", "Q-Q"}
    assert rec.measured["Q-Q"] >= rec.measured["|Q|"]


def test_growth_trial_degenerate():
    spec = random_cube(Z, 0, 1, ADDITIVE, "uniform(1..9)", seed=0)
    rec = growth_trial(spec)
    assert rec.flag == "degenerate"
    assert rec.measured == {"|Q|": 1}


def test_energy_trial_shapes():
    add = energy_bound_trial(random_cube(Z, 4, 1, ADDITIVE, seed=1), seed=1)
    assert "E_times" in add.measured and "E_times_shape" in add.bounds
    mult = energy_bound_trial(random_cube(Z, 4, 1, MULTIPLICATIVE, seed=1), seed=1)
    assert "E_plus" in mult.measured
    assert 0.0 < mult.exponents["deficiency"] < 3.0
    fp = energy_bound_trial(random_cube(F101, 3, 1, ADDITIVE, seed=1), seed=1)
    assert {"main_term", "branch_a", "branch_b"} <= set(fp.bounds)


def test_conjecture_probe_doubling_set():
    Q = FiniteSet.from_iterable(Z, [1, 2])
    rec = conjecture_probe(Q, 3, 12)
    # |Q^n| = n + 1 for powers of two, so |Q^n| >= 8 first at n = 7.
    assert rec.measured["n"] == 7
    assert rec.flag == "pass"
    assert rec.measured["|Q^7|"] == 8
    assert conjecture_probe(Q, 1, 5).measured["n"] == 1


def test_conjecture_probe_not_reached():
    Q = FiniteSet.from_iterable(Z, [1, 2])
    rec = conjecture_probe(Q, 4, 3)
    assert rec.flag == "not_reached"
    assert "n" not in rec.measured


def test_conjecture_probe_trajectory_monotone():
    # 1 in Q makes every Q^n a subset of Q^(n+1).
    Q = FiniteSet.from_iterable(Z, [1, 3, 5, 7])
    rec = conjecture_probe(Q, 2, 6)
    sizes = [rec.measured[f"|Q^{i}|"] for i in range(1, 4)]
    assert sizes == sorted(sizes)


def test_conjecture_probe_cap_flag():
    tight = AmbientRing.integers(magnitude_cap=10**4)
    Q = FiniteSet.from_iterable(tight, [2, 3, 5, 7])
    rec = conjecture_probe(Q, 9, 30)
    assert rec.flag == "cap_exceeded"
    assert rec.measured["|Q^2|"] == 10


def test_record_round_trip_types():
    spec = random_cube(Z, 3, 1, ADDITIVE, seed=0)
    rec = growth_trial(spec, seed=0)
    back = ExperimentRecord.from_json_line(rec.to_json_line())
    assert isinstance(back.measured["QQ"], int)
    assert back.comparable() == rec.comparable()
    assert back.key == record_key(rec.name, rec.spec, rec.seed)
    assert len(rec.key) == 64


CONFIG = {
    "experiments": ["growth_additive", "conjecture_probe"],
    "dRange": [2, 3],
    "hRange": [1, 1],
    "pList": [101],
    "seeds": [0, 1],
    "conjecture": {"m": 2, "nMax": 6},
}


def test_expand_campaign_task_count():
    tasks = expand_campaign(CONFIG)
    # growth: 2 rings x 2 dims x 1 height x 2 seeds; conjecture the same.
    assert len(tasks) == 8 + 8
    with pytest.raises(ValueError):
        expand_campaign({"experiments": ["nope"]})


def test_expand_campaign_rejects_values_of_the_wrong_type():
    # caps 5, seeds ["x"] and dRange [2] are among the CLI's usage errors.
    for key, value in [("caps", {"pair": "x"}), ("seeds", [True]), ("hRange", [1, 2, 3]), ("pList", ["101"]),
                       ("conjecture", 5), ("conjecture", {"m": [2]}), ("includeIntegers", "false"),
                       ("properOnly", 1)]:
        with pytest.raises(ValueError, match=key):
            expand_campaign(dict(CONFIG, **{key: value}))
    for value in [5, None]:
        with pytest.raises(ValueError, match="distribution"):
            expand_campaign(dict(CONFIG, genDistribution=value))
    with pytest.raises(ValueError, match="experiment"):
        expand_campaign(dict(CONFIG, experiments=[["growth_additive"]]))


@pytest.mark.parametrize("key, value, says", [("dRange", [5, 2], "dRange"), ("hRange", [2, 1], "hRange"),
                                             ("dRange", [-3, -1], "negative")])
def test_expand_campaign_rejects_empty_ranges_and_negative_d(key, value, says):
    # [5, 2] would expand to no tasks; d < 0 would draw the same empty cube,
    # and so the same record key, for every d.
    with pytest.raises(ValueError, match=says):
        expand_campaign(dict(CONFIG, **{key: value}))


def test_campaign_records_do_not_depend_on_numpy(tmp_path, monkeypatch):
    # d=8 cubes have 2^16 pairs, enough for the numpy lane of pairwise_size
    # over Z and F_10007; hiding numpy sends every size to the Python route.
    config = {"experiments": ["growth_additive", "growth_multiplicative"], "dRange": [7, 8],
              "pList": [10007], "seeds": [0, 1]}
    with_numpy = run_campaign(config, tmp_path / "with.jsonl")
    monkeypatch.setitem(sys.modules, "numpy", None)
    without = run_campaign(config, tmp_path / "without.jsonl")
    assert len(with_numpy) == 16
    assert json.dumps([r.comparable() for r in without]) == json.dumps([r.comparable() for r in with_numpy])


def test_campaign_idempotent(tmp_path):
    log = tmp_path / "log.jsonl"
    first = run_campaign(CONFIG, log)
    assert len(first) == 16
    assert len(load_log(log)) == 16
    second = run_campaign(CONFIG, log)
    assert second == []
    assert len(load_log(log)) == 16
    # A wider config reruns only the new tasks.
    wider = dict(CONFIG, dRange=[2, 4])
    third = run_campaign(wider, log)
    assert len(third) == 8
    assert len(load_log(log)) == 24


ALL_KINDS = dict(
    CONFIG,
    experiments=[
        "growth_additive",
        "growth_multiplicative",
        "energy_additive",
        "energy_multiplicative",
        "conjecture_probe",
    ],
    hRange=[1, 2],
)
_random_cube = experiments.random_cube


def test_campaign_resumes_every_kind_drawing_each_cube_once(tmp_path, monkeypatch):
    draws = []

    def counted(*args):
        draws.append(args)
        return _random_cube(*args)

    monkeypatch.setattr(experiments, "random_cube", counted)
    log = tmp_path / "log.jsonl"
    first = run_campaign(ALL_KINDS, log)
    # Additive kinds at h = 1, 2; multiplicative kinds and the probe at h = 1.
    assert len(first) == len(draws) == 2 * 16 + 3 * 8
    assert {r.name for r in first} == set(ALL_KINDS["experiments"])
    assert run_campaign(ALL_KINDS, log) == []
    assert len(draws) == 2 * len(first)


# One log line per kind, as an earlier release wrote them for FROZEN_CONFIG.
FROZEN_CONFIG = dict(ALL_KINDS, dRange=[2, 2], hRange=[1, 1], pList=[], seeds=[0])
FROZEN_LINES = (
    '{"name": "growth_additive", "spec": {"cube": {"mode": "additive", "a0": 849735321550, "generators": [87705687126, 1067347797603], "digits": [0, 1], "ring": {"kind": "integers"}}, "targets": ["QQ", "Q/Q"]}, "seed": 0, "measured": {"|Q|": "4", "QQ": "10", "Q/Q": "13"}, "bounds": {"QQ_shape": 5.782308449972277, "Q/Q_shape": 5.837920422725785}, "exponents": {"QQ": 1.6609640474436813, "Q/Q": 1.850219859070546}, "flag": "report", "wall_ms": 0.1320649971603416, "timestamp": "2026-10-18T11:09:10.878037+00:00", "key": "f8062bd63fb62395f06cbbb02d15b863ffc8c86ce78815841c2e96a4d5456cd1"}',
    '{"name": "growth_multiplicative", "spec": {"cube": {"mode": "multiplicative", "a0": 1, "generators": [55342, 25249], "digits": [0, 1], "ring": {"kind": "integers"}}, "targets": ["Q+Q", "Q-Q"]}, "seed": 0, "measured": {"|Q|": "4", "Q+Q": "10", "Q-Q": "13"}, "bounds": {"Q+Q_shape": 5.782308449972277, "Q-Q_shape": 5.837920422725785}, "exponents": {"Q+Q": 1.6609640474436813, "Q-Q": 1.850219859070546}, "flag": "report", "wall_ms": 0.051627001084852964, "timestamp": "2026-10-18T11:09:10.878259+00:00", "key": "b152971cfb3217e614260a229ed71d0886e89fd827259c110e7aa46b87433388"}',
    '{"name": "energy_additive", "spec": {"cube": {"mode": "additive", "a0": 849735321550, "generators": [87705687126, 1067347797603], "digits": [0, 1], "ring": {"kind": "integers"}}}, "seed": 0, "measured": {"|Q|": "4", "E_times": "28"}, "bounds": {"E_times_shape": 71.99999999999999}, "exponents": {"E_times": 2.403677461028802, "deficiency": 0.5963225389711981}, "flag": "report", "wall_ms": 0.2168279970646836, "timestamp": "2026-10-18T11:09:10.878615+00:00", "key": "7cd43f8828beeb0d83c780eef18a95498055c4e58b58c8062da1a77a169fc389"}',
    '{"name": "energy_multiplicative", "spec": {"cube": {"mode": "multiplicative", "a0": 1, "generators": [55342, 25249], "digits": [0, 1], "ring": {"kind": "integers"}}}, "seed": 0, "measured": {"|Q|": "4", "E_plus": "28"}, "bounds": {}, "exponents": {"E_plus": 2.403677461028802, "deficiency": 0.5963225389711981}, "flag": "report", "wall_ms": 0.09341500117443502, "timestamp": "2026-10-18T11:09:10.878815+00:00", "key": "6103ceb24deb1dee71fd979e030338ba85ad692419318af91aa86c2ec22153c6"}',
    '{"name": "conjecture_probe", "spec": {"cube": {"mode": "additive", "a0": 849735321550, "generators": [87705687126, 1067347797603], "digits": [0, 1], "ring": {"kind": "integers"}}, "m": 2, "n_max": 6}, "seed": 0, "measured": {"|Q|": "4", "target": "16", "|Q^1|": "4", "|Q^2|": "10", "|Q^3|": "20", "n": "3"}, "bounds": {}, "exponents": {}, "flag": "pass", "wall_ms": 0.050580994866322726, "timestamp": "2026-10-18T11:09:10.879003+00:00", "key": "378d58f3d5447b711b87b8b9efe1e2c756e75bce37747fcb208f8724705cbdec"}',
)


def test_frozen_log_lines_load_and_resume(tmp_path):
    log = tmp_path / "log.jsonl"
    log.write_text("".join(line + "\n" for line in FROZEN_LINES))
    frozen = load_log(log)
    assert [r.name for r in frozen] == FROZEN_CONFIG["experiments"]
    assert [r.key for r in frozen] == [json.loads(line)["key"] for line in FROZEN_LINES]
    assert run_campaign(FROZEN_CONFIG, log) == []
    fresh = run_campaign(FROZEN_CONFIG, tmp_path / "fresh.jsonl")
    assert [r.comparable() for r in fresh] == [r.comparable() for r in frozen]


def test_campaign_parallel_matches_serial(tmp_path):
    small = dict(CONFIG, experiments=["growth_additive"], seeds=[0])
    serial = run_campaign(small, tmp_path / "serial.jsonl", jobs=1)
    parallel = run_campaign(small, tmp_path / "parallel.jsonl", jobs=2)
    assert [r.comparable() for r in serial] == [r.comparable() for r in parallel]


_INTERRUPTED = 5
_INTERRUPTED_TASK = expand_campaign(CONFIG)[_INTERRUPTED]
_run_task = experiments.run_task


def _run_task_interrupted(task):
    """run_task that raises on one task of CONFIG, as an interrupt would."""
    if task == _INTERRUPTED_TASK:
        raise RuntimeError("interrupted")
    return _run_task(task)


@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_campaign_keeps_finished_records(tmp_path, monkeypatch, jobs):
    whole = [r.comparable() for r in run_campaign(CONFIG, tmp_path / "whole.jsonl")]
    log = tmp_path / "log.jsonl"
    monkeypatch.setattr(experiments, "run_task", _run_task_interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        run_campaign(CONFIG, log, jobs=jobs)
    assert [r.comparable() for r in load_log(log)] == whole[:_INTERRUPTED]
    monkeypatch.undo()
    assert len(run_campaign(CONFIG, log, jobs=jobs)) == len(whole) - _INTERRUPTED
    assert [r.comparable() for r in load_log(log)] == whole


def _run_task_dies(task):
    """run_task whose worker dies on one task of CONFIG, as one killed for
    lack of memory would, once the records before it are in log.jsonl."""
    if task == _INTERRUPTED_TASK:
        deadline = time.monotonic() + 30
        while Path("log.jsonl").read_text().count("\n") < _INTERRUPTED and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)
    return _run_task(task)


def test_dead_campaign_worker_exits_3_and_keeps_finished_records(tmp_path, monkeypatch, capsys):
    whole = [r.comparable() for r in run_campaign(CONFIG, tmp_path / "whole.jsonl")]
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(json.dumps(CONFIG))
    monkeypatch.setattr(experiments, "run_task", _run_task_dies)
    code = main(["campaign", "run", "config.json", "--log", "log.jsonl", "--jobs", "2"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("cap exceeded:") and "worker died" in err, err
    assert [r.comparable() for r in load_log("log.jsonl")] == whole[:_INTERRUPTED]


def test_torn_last_line_is_dropped_and_resumed(tmp_path):
    whole = tmp_path / "whole.jsonl"
    run_campaign(CONFIG, whole)
    expect = [r.comparable() for r in load_log(whole)]
    lines = whole.read_text().splitlines(keepends=True)
    log = tmp_path / "log.jsonl"
    head = "".join(lines[:7])
    # Half a record after seven, then seven whose last lost its newline.
    for text in (head + lines[7][: len(lines[7]) // 2], head.rstrip("\n")):
        log.write_text(text)
        assert [r.comparable() for r in load_log(log)] == expect[:7]
        run_campaign(CONFIG, log)
        assert [r.comparable() for r in load_log(log)] == expect
    # A malformed line before the last one is no torn write: it raises.
    log.write_text(lines[0][:20] + "\n" + "".join(lines[1:]))
    with pytest.raises(ValueError):
        load_log(log)


def test_export_csv(tmp_path):
    log = tmp_path / "log.jsonl"
    run_campaign(dict(CONFIG, experiments=["growth_additive"]), log)
    csv_path = tmp_path / "out.csv"
    rows = export_growth_csv(log, csv_path)
    text = csv_path.read_text().splitlines()
    assert text[0] == "q_size,size_QQ,exponent"
    assert rows == len(text) - 1 == 8
