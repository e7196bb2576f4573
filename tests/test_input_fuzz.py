"""Every JSON input the CLI reads, with one node replaced by a value of
another JSON type: each run returns an exit code and raises nothing, and a
mutated spec, instance, config or log record field exits 2."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cubelab.cli import main
from cubelab.cube import CubeSpec
from cubelab.experiments import growth_trial

SPEC = {"ring": {"kind": "prime_field", "p": 101}, "a0": 1, "generators": [1, 3], "digits": [0, 1, 2],
        "mode": "additive"}
RECORD = json.loads(growth_trial(CubeSpec.from_json_dict(dict(SPEC, ring={"kind": "integers"}))).to_json_line())
assert RECORD["bounds"] and RECORD["exponents"]

# name: (valid input, argv with {} for its file).  Each exits 0 unmutated.
FIXTURES = {
    "spec": (SPEC, ["cube", "gen", "--spec", "{}", "--json"]),
    "instance_2d": (
        {"p": 7, "points": [[0, 1], [3, 5], [2, 2]],
         "lines": [{"vertical": False, "a": 1, "b": 1}, {"vertical": True, "a": 3}]},
        ["incidence", "2d", "{}"],
    ),
    "instance_3d": (
        {"p": 5, "points": [[0, 1, 2], [1, 1, 1]], "planes": [[1, 0, 0, 1], [0, 1, 1, 2]]},
        ["incidence", "3d", "{}"],
    ),
    "config": (
        {"experiments": ["growth_additive", "conjecture_probe"], "dRange": [2, 2], "hRange": [1, 1],
         "seeds": [0], "pList": [7], "caps": {"pair": 10000}, "conjecture": {"m": 1, "nMax": 2},
         "properOnly": False, "includeIntegers": True, "genDistribution": "uniform(1..50)"},
        ["campaign", "run", "{}", "--log", "{dir}/out.jsonl"],
    ),
    "log_line": (RECORD, ["campaign", "export", "--log", "{}", "--csv", "{dir}/out.csv"]),
}

_SCALARS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-(10**20), 10**20),
    "float": st.floats(-1e9, 1e9).filter(lambda x: not x.is_integer()),
    "str": st.text(max_size=6),
}
_JSON = st.recursive(st.one_of(*_SCALARS.values()),
                     lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                     max_leaves=6)
_VALUES = {**_SCALARS, "list": st.lists(_JSON, max_size=3),
           "dict": st.dictionaries(st.text(max_size=4), _JSON, max_size=3)}


def _kind(value) -> str:
    return "null" if value is None else type(value).__name__


def _nodes(value, path=()):
    yield path
    children = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if type(value) is dict else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def _at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutations(draw, fixture):
    """(path, mutated fixture): the node at path replaced by a value of
    another JSON type.  A float is never replaced by an int, since a JSON
    number where a float is expected may be integral."""
    path = draw(st.sampled_from(list(_nodes(fixture))))
    kind = _kind(_at(fixture, path))
    others = [k for k in _VALUES if k != kind and not (kind == "float" and k == "int")]
    new = draw(st.sampled_from(others).flatmap(_VALUES.__getitem__))
    return path, _replaced(fixture, path, new)


def _run(name, data) -> tuple[int, str]:
    argv_template = FIXTURES[name][1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "input.jsonl" if name == "log_line" else "input.json")
        path.write_text(json.dumps(data) + "\n")
        argv = [str(path) if a == "{}" else a.replace("{dir}", tmp) for a in argv_template]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_are_valid(name):
    assert _run(name, FIXTURES[name][0]) == (0, "")


@pytest.mark.parametrize("name", FIXTURES)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_input_exits_with_a_code(name, data):
    path, mutated = data.draw(mutations(FIXTURES[name][0]), label="path, input")
    code, err = _run(name, mutated)
    assert code in (0, 1, 2, 3)
    # A log record's spec holds any object, and its bounds and exponents any numbers.
    if name != "log_line" or len(path) <= 1 or path[0] == "measured":
        assert code == 2 and err.startswith("error:"), (path, err)
