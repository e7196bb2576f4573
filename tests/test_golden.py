"""Golden results: counts, correlation tables, incidence counts and
campaign records pinned in tests/data.

The data were written by tests/data/make_golden.py, which draws the inputs
once and stores them beside the answers, every value a decimal string.
These tests recompute the answers from the stored inputs, on whichever
route the installed packages take (the numpy lane or the Python route),
and require them byte for byte.  A change that alters a result on purpose
regenerates the data in the same change; golden data pin today's answers,
while the oracle tests elsewhere show them right.
"""

import json
from fractions import Fraction
from pathlib import Path

from cubelab import setops
from cubelab.cube import ADDITIVE, CubeSpec, FiniteSet, is_proper
from cubelab.experiments import run_campaign
from cubelab.incidence import (LineSet, count_incidences_3d, incidences_per_line, incidences_per_point,
                               instance_from_json)
from cubelab.numeric import AmbientRing
from cubelab.setops import DEFAULT_PAIR_CAP, correlation
from cubelab.structure import sd_decompose, sd_popularity_ok

DATA = Path(__file__).parent / "data"
COUNTS = DATA / "golden_counts.json"
CAMPAIGN = DATA / "golden_campaign.jsonl"


def _ring(p):
    return AmbientRing.integers() if p is None else AmbientRing.prime_field(int(p))


def _strs(values):
    return [str(v) for v in values]


def _number(text: str):
    """An element as stored: a Fraction "n/d" or an int."""
    return Fraction(text) if "/" in text else int(text)


def golden_counts(inputs: dict) -> dict:
    """Every pinned count of the stored inputs, as decimal strings: power
    sums of setops._power_sum, on int sets and on sets holding Fractions,
    folds of setops._fold_counts, the popular sum/difference split with its
    two checks, correlation tables, and incidence counts of instances read
    through instance_from_json."""
    sets = {name: FiniteSet.from_iterable(_ring(s["p"]), map(int, s["elements"])) for name, s in inputs["sets"].items()}
    # The same name on both sides passes one object, as a set paired with
    # itself: the halved count over Z.
    power_sums = [[op, a, b, k, str(setops._power_sum(op, sets[a], sets[b], DEFAULT_PAIR_CAP, k))]
                  for op, a, b, k in inputs["power_sums"]]
    folds = []
    for op, a, k in inputs["folds"]:
        keys, counts = setops._fold_counts(sets[a], op, k, DEFAULT_PAIR_CAP)
        pairs = sorted(zip(map(int, keys), map(int, counts)))
        folds.append([op, a, k, [[str(x), str(c)] for x, c in pairs]])
    sd = []
    for name, c in inputs["cubes"].items():
        spec = CubeSpec(_ring(c["p"]), int(c["a0"]), tuple(map(int, c["generators"])), (0, 1), ADDITIVE)
        split = sd_decompose(spec)
        sd.append({"cube": name, "sums": _strs(split.sums.elements), "diffs": _strs(split.diffs.elements),
                   "coverage_ok": split.coverage_ok(),
                   "popularity_ok": sd_popularity_ok(spec) if is_proper(spec) else None})
    rational = {name: FiniteSet.from_iterable(_ring(None), map(_number, elements))
                for name, elements in inputs["fractions"]["sets"].items()}
    fractions = [[op, a, b, k, str(setops._power_sum(op, rational[a], rational[b], DEFAULT_PAIR_CAP, k))]
                 for op, a, b, k in inputs["fractions"]["power_sums"]]
    correlations = []
    for c in inputs["correlations"]:
        table = correlation(c["mode"], [FiniteSet.from_iterable(_ring(c["p"]), map(int, s)) for s in c["sets"]])
        correlations.append([[*_strs(point), str(count)] for point, count in table.items()])
    incidences = []
    for c in inputs["incidences"]:
        instance = instance_from_json(json.dumps(c["instance"]))
        points = instance["points"]
        if "planes" in instance:
            incidences.append({"3d": _strs(count_incidences_3d(points, instance["planes"]))})
            continue
        lines = LineSet.all_lines(instance["p"]) if c["all_lines"] else instance["lines"]
        incidences.append({"per_point": _strs(incidences_per_point(points, lines)),
                           "per_line": _strs(incidences_per_line(points, lines))})
    return {"power_sums": power_sums, "folds": folds, "sd": sd, "fractions": fractions, "correlations": correlations,
            "incidences": incidences}


def campaign_lines(config: dict, log, jobs: int) -> list[str]:
    """The campaign's comparable() records as sorted JSON lines."""
    return sorted(json.dumps(r.comparable(), sort_keys=True) for r in run_campaign(config, log, jobs))


def test_counts_match_golden():
    data = json.loads(COUNTS.read_text())
    got = golden_counts(data["inputs"])
    for part, expect in data["outputs"].items():
        assert len(got[part]) == len(expect), part
        for i, (want, have) in enumerate(zip(expect, got[part])):
            assert have == want, (part, i)


def test_campaign_records_match_golden(tmp_path):
    # The data were written at jobs=1; two workers must give the same records.
    config = json.loads(COUNTS.read_text())["inputs"]["campaign"]
    assert campaign_lines(config, tmp_path / "log.jsonl", 2) == CAMPAIGN.read_text().splitlines()
