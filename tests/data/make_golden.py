"""Write the golden data that tests/test_golden.py checks.

    PYTHONPATH=src python tests/data/make_golden.py

The inputs are drawn once, from a fixed seed, and stored in
golden_counts.json beside the answers; when that file exists its inputs
are kept and only the answers are written again.  Run it only in a change
that alters a result on purpose, and list the values that changed.
"""

import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_golden import CAMPAIGN, COUNTS, campaign_lines, golden_counts  # noqa: E402

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


def main() -> None:
    inputs = json.loads(COUNTS.read_text())["inputs"] if COUNTS.exists() else draw()
    data = {"inputs": inputs, "outputs": golden_counts(inputs)}
    COUNTS.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        lines = campaign_lines(inputs["campaign"], Path(tmp) / "log.jsonl", 1)
    CAMPAIGN.write_text("".join(line + "\n" for line in lines))


if __name__ == "__main__":
    main()
