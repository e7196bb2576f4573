"""Write the golden data that tests/test_golden.py checks.

    PYTHONPATH=src python tests/data/make_golden.py

The inputs are drawn once, from fixed seeds, and stored in
golden_counts.json beside the answers; when that file exists its inputs
are kept, a section it lacks is drawn from that section's own seed, and
the answers are written again.  Run it only in a change that alters a
result on purpose, or that adds a section, and list the values that
changed; run on unchanged code, it leaves the data as they are.
"""

import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import CAMPAIGN, COUNTS, _strs, campaign_lines, golden_counts  # noqa: E402

from cubelab.cube import ADDITIVE, enumerate_cube  # noqa: E402
from cubelab.experiments import random_proper_cube  # noqa: E402
from cubelab.numeric import AmbientRing  # noqa: E402
from cubelab.setops import RATIO, pairwise_set  # noqa: E402

P31 = 2**31 - 1
OPS = ("sum", "diff", "prod", "ratio")
KS = (0, 2, 3)
# The numpy lane of _power_sum runs from 2^15 pairs: 182 x 181 and 182 x 182
# lie above it, 20 x 17 and 20 x 20 below.
SMALL, LARGE = 20, 182
# Five kinds over Z and F_10007, d = 2..6, h = 1..2, three seeds: 210 tasks.
CAMPAIGN_CONFIG = {"experiments": ["growth_additive", "growth_multiplicative", "energy_additive",
                                   "energy_multiplicative", "conjecture_probe"],
                   "dRange": [2, 6], "hRange": [1, 2], "pList": [10007], "seeds": [0, 1, 2]}


def _distinct(rng, n, draw, fixed=()):
    values = set(fixed)
    while len(values) < n:
        values.add(draw(rng))
    return values


def draw() -> dict:
    """The inputs: named sets, the power sums, folds and cubes to count."""
    rng = random.Random(1)
    sets = {}

    def put(name, p, values):
        sets[name] = {"p": None if p is None else str(p), "elements": [str(v) for v in sorted(values)]}
        return name

    # Power sums: each family at both sizes, paired with itself and with a
    # second set.  z20 fits lane A, z70 and zap (sums of a progression, most
    # of them repeated: lane B hands them back) run on fingerprints.
    families = {
        "z20": (None, lambda r: r.randint(-(2**20), 2**20), (0, 1, -1)),
        "z70": (None, lambda r: r.randint(-(2**70), 2**70), (0, 2**63, -(2**63), 2**64 + 1)),
        "zap": (None, None, ()),
        "f101": (101, lambda r: r.randrange(101), (0, 1, 100)),
        "fp31": (P31, lambda r: r.randrange(P31), (0, 1, P31 - 2, P31 - 1)),
    }
    power_sums = []
    for fam, (p, pick, fixed) in families.items():
        for n in (SMALL, LARGE):
            if fam == "zap":
                a = put(f"{fam}-{n}-a", p, [2**70 + 3 * i for i in range(n)])
                b = put(f"{fam}-{n}-b", p, [-(2**70) + 5 * i for i in range(n - 1)])
            else:
                n = min(n, p or n)
                a = put(f"{fam}-{n}-a", p, _distinct(rng, n, pick, fixed))
                b = put(f"{fam}-{n}-b", p, _distinct(rng, n - 1, pick, fixed[:2]))
            power_sums += [[op, a, y, k] for op in OPS for y in (a, b) for k in KS]
    # Folds r_{kA}: small sets (the Python route) and 33 elements, whose
    # 33^3 triples take the count map.  fp31-edge holds {0..15} and
    # {p-17..p-1}, so sums wrap past p.
    fold_sets = [
        put("z30-10", None, _distinct(rng, 10, lambda r: r.randint(-30, 30))),
        put("z30-33", None, _distinct(rng, 33, lambda r: r.randint(-30, 30))),
        put("f101-33", 101, _distinct(rng, 33, lambda r: r.randrange(101), (0, 100))),
        put("fp31-10", P31, _distinct(rng, 10, lambda r: r.randrange(P31), (0, P31 - 1))),
        put("fp31-edge", P31, [*range(16), *range(P31 - 17, P31)]),
    ]
    folds = [[op, a, k] for a in fold_sets for op in ("sum", "prod") for k in (2, 3)]
    # Height-1 cubes for the popular sum/difference split: d = 8 takes the
    # count map over Z (values below 2^63) and F_(2^31-1); 70-bit
    # generators and F_101 take the Counters.
    cubes = {}
    for name, p, d, bits in (("z-d8", None, 8, 30), ("fp31-d8", P31, 8, 31), ("z70-d6", None, 6, 70),
                             ("f101-d6", 101, 6, 7)):
        top = p or 2**bits
        cubes[name] = {"p": None if p is None else str(p), "a0": str(rng.randrange(top)),
                       "generators": [str(rng.randrange(1, top)) for _ in range(d)]}
    return {"sets": sets, "power_sums": power_sums, "folds": folds, "cubes": cubes, "campaign": CAMPAIGN_CONFIG}


def _stored(x) -> str:
    """An element as stored: a Fraction as "n/d", even where d = 1, or an int."""
    return f"{x.numerator}/{x.denominator}" if isinstance(x, Fraction) else str(x)


def draw_fractions(rng) -> dict:
    """Sets over Z holding Fractions, the power sums to count on them: mixed
    int/Fraction sets of both signs with 0, small and past 2^64, and the
    241-element ratio set R = Q/Q of the d=4 cube of seed 4, for |R/R|."""
    sets = {}
    for name, n, top, den in (("mixed-small", 14, 30, 9), ("mixed-wide", 12, 2**70, 2**40)):
        for side, size in (("a", n), ("b", n - 3)):
            values = {0, Fraction(-1, 2), 1}
            while len(values) < size:
                v = rng.randint(-top, top)
                values.add(Fraction(v, rng.randint(2, den)) if rng.random() < 0.5 else v)
            sets[f"{name}-{side}"] = [_stored(v) for v in sorted(values)]
    power_sums = [[op, f"{name}-a", f"{name}-{side}", k] for name in ("mixed-small", "mixed-wide")
                  for op in OPS for side in "ab" for k in KS]
    Q = enumerate_cube(random_proper_cube(AmbientRing.integers(), 4, 1, ADDITIVE, seed=4))
    sets["ratio-set"] = [_stored(v) for v in pairwise_set(RATIO, Q, Q).elements]
    return {"sets": sets, "power_sums": power_sums + [["ratio", "ratio-set", "ratio-set", 0]]}


def draw_correlations(rng) -> list:
    """Small sets whose correlation tables to pin: both modes, arity 1-3,
    over Z (ratios are Fractions) and F_101, none with 0 in every set."""
    cases = []
    for mode in ("additive", "multiplicative"):
        for p in (None, 101):
            for arity, size in ((1, 7), (2, 5), (3, 4)):
                draw = (lambda: rng.randint(-20, 20)) if p is None else (lambda: rng.randrange(p))
                sets = [sorted({draw() for _ in range(size)} - ({0} if i == 0 else set())) for i in range(arity + 1)]
                cases.append({"mode": mode, "p": None if p is None else str(p), "sets": [_strs(s) for s in sets]})
    return cases


def draw_incidences(rng) -> list:
    """Incidence instances as JSON objects, with points repeated and not
    reduced mod p: lines and planes at p = 3 and 101, and all lines at 101."""
    cases = []
    for p, n in ((3, 12), (101, 40)):
        def coordinate():
            return rng.randint(-2 * p, 3 * p)

        points = [[coordinate(), coordinate()] for _ in range(n)]
        points += rng.sample(points, 4) + [[x + p, y - 2 * p] for x, y in points[:3]]
        lines = [{"vertical": rng.random() < 0.2, "a": coordinate(), "b": coordinate()} for _ in range(2 * n)]
        lines += rng.sample(lines, 3)
        cases.append({"instance": {"p": p, "points": points, "lines": lines}, "all_lines": False})
        if p == 101:
            cases.append({"instance": {"p": p, "points": points}, "all_lines": True})
        points3 = [[coordinate(), coordinate(), coordinate()] for _ in range(n)]
        points3 += rng.sample(points3, 4) + [[x - p, y, z + p] for x, y, z in points3[:3]]
        rows = ([coordinate() for _ in range(4)] for _ in range(2 * n))
        planes = [row for row in rows if any(v % p for v in row[:3])]  # a normal that is 0 mod p is refused
        cases.append({"instance": {"p": p, "points": points3, "planes": planes}, "all_lines": False})
    return cases


# The sections added after the first draw, each drawn from its own seed.
LATER_SECTIONS = {"fractions": (2, draw_fractions), "correlations": (3, draw_correlations),
                  "incidences": (4, draw_incidences)}


def main() -> None:
    inputs = json.loads(COUNTS.read_text())["inputs"] if COUNTS.exists() else draw()
    for name, (seed, draw_section) in LATER_SECTIONS.items():
        if name not in inputs:
            inputs[name] = draw_section(random.Random(seed))
    data = {"inputs": inputs, "outputs": golden_counts(inputs)}
    COUNTS.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        lines = campaign_lines(inputs["campaign"], Path(tmp) / "log.jsonl", 1)
    CAMPAIGN.write_text("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
