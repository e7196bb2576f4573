"""Command line behavior: output formats and exit codes."""

import json
import subprocess
import sys

import pytest

from cubelab import energy
from cubelab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cube_gen_braces(capsys):
    code, out, _ = run_cli(capsys, "cube", "gen", "--gens", "1,4")
    assert code == 0
    assert out.strip() == "{0, 1, 4, 5}"


def test_cube_gen_json(capsys):
    code, out, _ = run_cli(capsys, "cube", "gen", "--gens", "1,4", "--json")
    data = json.loads(out)
    assert code == 0
    assert data["size"] == 4 and data["proper"] is True
    assert data["elements"] == ["0", "1", "4", "5"]


def test_cube_gen_out_file(tmp_path, capsys):
    target = tmp_path / "q.txt"
    code, out, _ = run_cli(capsys, "cube", "gen", "--gens", "1,4", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().split() == ["0", "1", "4", "5"]


def test_setop_round_trip(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0\n1\n4\n5\n")
    counts = tmp_path / "counts.csv"
    code, out, _ = run_cli(capsys, "setop", "sum", str(a), "--counts", str(counts), "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"op": "sum", "size": 9, "mass": 16}
    lines = counts.read_text().splitlines()
    assert lines[0] == "element,count"
    assert "5,4" in lines


def test_energy_cli(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("0\n1\n4\n5\n")
    code, out, _ = run_cli(capsys, "energy", str(a), "--json")
    assert code == 0
    assert json.loads(out)["value"] == "36"
    code, out, _ = run_cli(capsys, "energy", str(a), "--k", "3")
    assert code == 0 and out.strip() == "100"


def test_verify_commands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "sd", "--gens", "1,4", "--popularity")
    assert code == 0
    assert json.loads(out)["coverage"] is True
    code, out, _ = run_cli(capsys, "verify", "qk-bounds", "--gens", "1,10", "-k", "2")
    assert code == 0
    assert json.loads(out)["checks"] == {"kq_upper": True, "tk_floor": True, "ek_floor": True}
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("0\n1\n")
    b.write_text("0\n2\n")
    code, out, _ = run_cli(capsys, "verify", "gmr", str(a), str(b))
    assert code == 0 and json.loads(out)["pass"] is True


def test_verify_identities_seed_echo(capsys):
    code, out, err = run_cli(capsys, "verify", "identities", "--trials", "3", "--size", "8", "--seed", "5")
    assert code == 0
    assert json.loads(out) == {"seed": 5, "trials": 3, "failures": 0}
    assert err == ""
    code, out, err = run_cli(capsys, "verify", "identities", "--trials", "1", "--size", "5")
    assert code == 0
    assert err.startswith("seed: ")
    assert json.loads(out)["seed"] == int(err.split()[1])


def test_conjecture_cli(capsys):
    code, out, _ = run_cli(
        capsys, "conjecture", "--gens", "2,3", "--mode", "multiplicative", "-m", "2"
    )
    assert code == 0
    record = json.loads(out)
    assert record["flag"] == "pass"
    assert int(record["measured"]["n"]) >= 1


def test_incidence_cli(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "p": 5,
        "points": [[x, y] for x in range(5) for y in range(5)],
        "lines": [{"vertical": False, "a": 1, "b": 0}],
    }))
    code, out, _ = run_cli(capsys, "incidence", "2d", str(inst))
    assert code == 0
    assert json.loads(out)["incidences"] == 5
    code, out, _ = run_cli(capsys, "incidence", "2d", str(inst), "--all-lines")
    assert json.loads(out)["incidences"] == 150


@pytest.mark.parametrize(
    "dim, instance",
    [
        ("2d", {"p": 5, "points": [], "lines": []}),
        ("3d", {"p": 5, "points": [], "planes": [[1, 0, 0, 1]]}),
        ("3d", {"p": 5, "points": [[1, 2, 3]], "planes": []}),
    ],
)
def test_incidence_cli_empty_instance_has_no_ratio(tmp_path, capsys, dim, instance):
    # Every bound shape is 0 without points or without lines, so 0 / 0 has no value.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(instance))
    code, out, _ = run_cli(capsys, "incidence", dim, str(inst))
    assert code == 0
    result = json.loads(out)
    assert result["incidences"] == 0 and result["ratio"] is None


def test_campaign_cli(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "experiments": ["growth_additive"],
        "dRange": [2, 3],
        "seeds": [0],
    }))
    log = tmp_path / "log.jsonl"
    code, out, _ = run_cli(capsys, "campaign", "run", str(config), "--log", str(log))
    assert code == 0 and json.loads(out)["appended"] == 2
    code, out, _ = run_cli(capsys, "campaign", "run", str(config), "--log", str(log))
    assert json.loads(out)["appended"] == 0
    csv_path = tmp_path / "out.csv"
    code, out, _ = run_cli(capsys, "campaign", "export", "--log", str(log), "--csv", str(csv_path))
    assert code == 0 and json.loads(out)["rows"] == 2


def test_usage_errors_exit_2(tmp_path, monkeypatch, capsys):
    for argv in (["cube", "gen", "--gens", "1,4", "--badflag"], ["energy", "a.txt", "--k", "2", "--tk", "2"]):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
    # Domain errors (not argparse syntax) also map to 2, no traceback.
    code, _, err = run_cli(capsys, "cube", "gen", "--ring", "fp", "--gens", "1,4")
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "cube", "symmetry", "--gens", "1,4", "--digits", "0,2")
    assert code == 2
    # --h 0 is the one-digit set {0}, not the default h = 1.
    code, _, err = run_cli(capsys, "cube", "gen", "--gens", "1,4", "--h", "0")
    assert code == 2 and "two digits" in err
    # Malformed or missing input files: the error line says what is wrong.
    monkeypatch.chdir(tmp_path)
    files = {
        "spec.json": {"ring": {"kind": "integers"}, "generators": [1, 4], "digits": [0, 1], "mode": "additive"},
        "inst.json": {"p": 5, "lines": []},
        "points.json": {"p": 5, "points": [[1, 2]]},
        "list.json": [1, 2],
        "improper.json": {
            "experiments": ["growth_additive"],
            "dRange": [5, 5],
            "genDistribution": "uniform(1..2)",
            "properOnly": True,
        },
        # JSON values of the wrong type.
        "points5.json": {"p": 5, "points": 5},
        "gens5.json": {"ring": {"kind": "integers"}, "a0": 0, "generators": 5, "digits": [0, 1],
                       "mode": "additive"},
        "seeds5.json": {"experiments": ["growth_additive"], "seeds": 5},
        # JSON values of the wrong type one level down.
        "caps5.json": {"experiments": ["growth_additive"], "caps": 5},
        "seedsx.json": {"experiments": ["growth_additive"], "seeds": ["x"]},
        "drange2.json": {"experiments": ["growth_additive"], "dRange": [2]},
        "point5.json": {"p": 5, "points": [5]},
        "line5.json": {"p": 5, "points": [[1, 2]], "lines": [5]},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    (tmp_path / "half.txt").write_text("1/2\n3\n")
    (tmp_path / "zero.txt").write_text("3\n1/0\n")
    # Nesting past the recursion limit, where json.loads raises RecursionError.
    (tmp_path / "deep.json").write_text("[" * 100000)
    (tmp_path / "deep.jsonl").write_text("[" * 100000 + "\n")
    # A log record without its flag.
    record = json.loads(run_cli(capsys, "conjecture", "--gens", "1,4", "-m", "1")[1])
    del record["flag"]
    (tmp_path / "log.jsonl").write_text(json.dumps(record) + "\n")
    for argv, says in [
        (["cube", "gen", "--spec", "spec.json"], "a0"),
        (["cube", "gen"], "need --gens or --spec"),
        (["cube", "gen", "--gens", "1,4", "--h", "2", "--digits", "0,1"], "mutually exclusive"),
        (["incidence", "2d", "points.json"], "no lines"),
        (["incidence", "3d", "points.json"], "no planes"),
        (["incidence", "2d", "inst.json"], "points"),
        (["setop", "sum", "--ring", "fp", "--p", "7", "half.txt"], "fraction"),
        (["setop", "sum", "missing.txt"], "missing.txt"),
        (["setop", "sum", "zero.txt"], "line 2"),
        (["incidence", "2d", "points5.json", "--all-lines"], "points"),
        (["cube", "gen", "--spec", "gens5.json"], "generators"),
        (["campaign", "run", "seeds5.json", "--log", "out.jsonl"], "seeds"),
        (["campaign", "run", "caps5.json", "--log", "out.jsonl"], "caps"),
        (["campaign", "run", "seedsx.json", "--log", "out.jsonl"], "seeds"),
        (["campaign", "run", "drange2.json", "--log", "out.jsonl"], "dRange"),
        (["incidence", "2d", "point5.json", "--all-lines"], "points entry 0"),
        (["incidence", "2d", "line5.json"], "lines entry 0"),
        (["campaign", "run", "list.json", "--log", "out.jsonl"], "JSON object"),
        (["campaign", "run", "improper.json", "--log", "out.jsonl"], "proper"),
        (["campaign", "export", "--log", "log.jsonl", "--csv", "out.csv"], "flag"),
        (["campaign", "run", "improper.json", "--log", "log.jsonl"], "flag"),
        (["cube", "gen", "--spec", "deep.json"], "nested too deeply"),
        (["campaign", "run", "deep.json", "--log", "out.jsonl"], "nested too deeply"),
        (["incidence", "2d", "deep.json"], "nested too deeply"),
        (["campaign", "export", "--log", "deep.jsonl", "--csv", "out.csv"], "nested too deeply"),
        # --k and --tk are energies of A alone.
        (["energy", "half.txt", "half.txt", "--k", "2"], "one set"),
        (["energy", "half.txt", "half.txt", "--tk", "2"], "one set"),
        # Flags that the command would otherwise drop without a word.
        (["setop", "iter", "--gens", "1,10", "-k", "2", "--op", "prod", "--counts", "pc.csv"], "--counts"),
        (["conjecture", "--set", "half.txt", "--gens", "1,3", "-m", "2"], "cube flags"),
        (["conjecture", "--set", "half.txt", "--mode", "multiplicative", "-m", "2"], "cube flags"),
    ]:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error:") and says in err, (argv, err)
    # Values of the wrong type are refused, not coerced: int() would turn
    # 0.7 into 0, 1.9 into 1 and "3" into 3, and fail on [1].
    spec = dict(files["gens5.json"], generators=[1, 4])
    for key, value, says in [("a0", [1], "a0"), ("generators", [[1], 4], "generators entry 0"),
                             ("ring", {"kind": "prime_field", "p": [7]}, "ring: p"), ("a0", 0.7, "a0"),
                             ("generators", [1.9, 4], "generators entry 0"), ("a0", "3", "a0"),
                             ("generators", ["1", True], "generators entry 0")]:
        (tmp_path / "bad_spec.json").write_text(json.dumps(dict(spec, **{key: value})))
        code, _, err = run_cli(capsys, "cube", "gen", "--spec", "bad_spec.json")
        assert code == 2 and err.startswith("error:") and says in err, (key, value, err)
    record["flag"] = "report"
    for key, value, says in [("measured", 5, "measured"), ("seed", [1], "seed"),
                             ("measured", {"|Q|": [4]}, "measured: |Q|"), ("exponents", [], "exponents"),
                             ("measured", {"|Q|": 4.5}, "measured: |Q|"), ("seed", 0.9, "seed"),
                             ("name", 5, "name"), ("spec", 5, "spec")]:
        (tmp_path / "bad.jsonl").write_text(json.dumps(dict(record, **{key: value})) + "\n")
        code, _, err = run_cli(capsys, "campaign", "export", "--log", "bad.jsonl", "--csv", "out.csv")
        assert code == 2 and err.startswith("error:") and says in err, (key, value, err)


@pytest.mark.parametrize("argv, says", [
    (["cube", "split", "--gens", "1,10,100,1000"], '{"x": [0, 2], "y": [1, 3], "sizes": [4, 4], "digit_count": 2}'),
    (["setop", "iter", "--gens", "1,10,100", "-k", "3", "--op", "sum", "--json"], '"size": 64'),
    (["setop", "iter", "--gens", "1,10,100", "-k", "3", "--op", "sum", "--counts", "counts.csv"], "{0, 1, 2, 3,"),
    (["setop", "iter", "--gens", "1,10,100", "-k", "3", "--op", "prod", "--json"], '"size": 66'),
    (["energy", "A.txt", "--tk", "2"], "28"),
    (["verify", "olmezov", "A.txt", "B.txt", "D.txt", "--n", "2", "--s", "1", "--m", "2"],
     '"lhs": 1, "rhs": 192, "pass": true'),
    (["verify", "energy-lower", "--gens", "1,10,100", "B.txt"], '"lhs": 24, "rhs": 11.313708498984761, "pass": true'),
    (["conjecture", "--set", "A.txt", "-m", "2"], '"|Q^3|": "20", "n": "3"}'),
    (["cube", "symmetry", "--gens", "1,4", "--h", "2"], '{"witness": 10, "symmetric": true}'),
    (["setop", "sum", "A.txt"], "{2, 3, 4, 6, 7, 8, 9, 10, 12, 14}"),
])
def test_commands_print_their_results(tmp_path, monkeypatch, capsys, argv, says):
    monkeypatch.chdir(tmp_path)
    for name, elements in [("A.txt", "1 2 5 7"), ("B.txt", "0 1"), ("D.txt", "0 1 3")]:
        (tmp_path / name).write_text("\n".join(elements.split()) + "\n")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and says in out, out
    if "--counts" in argv:
        # r_3Q over the 8 elements of Q: 8^3 triples in all.
        rows = (tmp_path / "counts.csv").read_text().splitlines()
        assert rows[:2] == ["element,count", "0,1"] and sum(int(r.split(",")[1]) for r in rows[1:]) == 8**3


def test_cap_exceeded_exit_3(tmp_path, capsys):
    gens = ",".join(str(3**j) for j in range(30))
    code, _, err = run_cli(capsys, "cube", "gen", "--gens", gens)
    assert code == 3
    assert "cap" in err
    # All p^2 + p lines for p = 100003 would be about 10^10 objects.
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"p": 100003, "points": [[1, 2]]}))
    code, _, err = run_cli(capsys, "incidence", "2d", str(inst), "--all-lines")
    assert code == 3 and "cap" in err
    # The Hoelder chain's sides would pass 4300 decimal digits at n = 2000,
    # and take a 10^8-fold power at n = 10^8: both are refused up front.
    s = tmp_path / "s.txt"
    s.write_text("1\n2\n3\n")
    for n in ("2000", "100000000"):
        code, _, err = run_cli(capsys, "verify", "olmezov", str(s), str(s), str(s), "--n", n, "--s", "1", "--m", "3")
        assert code == 3 and err.startswith("cap exceeded:"), (n, err)
    # The float bounds of qk-bounds leave the float range at these k.
    for gens, k in (("1,3", "100000"), (",".join(str(3**j) for j in range(10)), "400")):
        code, out, err = run_cli(capsys, "verify", "qk-bounds", "--gens", gens, "-k", k)
        assert code == 3 and out == "" and err.startswith("cap exceeded:"), (gens, err)


def test_huge_k_exit_3(tmp_path, monkeypatch, capsys):
    # E_k and T_k are at least |A|^k; T_k also folds in k - 1 steps.  Each is
    # refused before a count, so no fold may run.
    def no_fold(*args):
        raise AssertionError("T_k folded before its caps were checked")

    monkeypatch.setattr(energy, "_fold_counts", no_fold)
    for name, text in (("one", "0\n"), ("two", "0\n1\n"), ("three", "0\n1\n5\n")):
        (tmp_path / f"{name}.txt").write_text(text)
    for name, flag, k in (("one", "--tk", "100000000"), ("two", "--tk", "100000"), ("three", "--k", "100000")):
        code, out, err = run_cli(capsys, "energy", str(tmp_path / f"{name}.txt"), flag, k)
        assert code == 3 and out == "" and err.startswith("cap exceeded:"), (name, err)
    # A singleton's E_k is 1 at any k.
    code, out, _ = run_cli(capsys, "energy", str(tmp_path / "one.txt"), "--k", "100000000")
    assert (code, out) == (0, "1\n")


def test_sd_pair_cap_exit_3(capsys):
    # 14 generators give 2^14 elements, whose 2^28 pairs pass the 2^26 pair cap.
    gens = ",".join(str(3**j) for j in range(14))
    code, out, err = run_cli(capsys, "verify", "sd", "--gens", gens)
    assert code == 3 and out == "" and err.startswith("cap exceeded: 16384x16384 pairs exceed"), err
    assert str(2**26) in err, err


def test_magnitude_cap_exit_3(tmp_path, capsys):
    # T_3 of three 200-bit elements reaches 2^600, past the default 2^512 cap.
    big = tmp_path / "big.txt"
    big.write_text("".join(f"{2**200 + c}\n" for c in (1, 3, 7)))
    code, out, err = run_cli(capsys, "energy", str(big), "--mode", "multiplicative", "--tk", "3")
    assert code == 3 and out == "" and err.startswith("cap exceeded:"), err
    # Singleton sets put no bit on the sides, so m itself is bounded.
    one = tmp_path / "one.txt"
    one.write_text("1\n")
    argv = ["verify", "olmezov", *[str(one)] * 3, "--n", "2", "--s", "1", "--m", "100000000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == "" and err.startswith("cap exceeded:"), err


def test_check_failure_exit_1(tmp_path, monkeypatch, capsys):
    # Falsification events surface as exit 1; fake one to pin the mapping.
    import cubelab.cli as cli_mod

    def boom(*args, **kwargs):
        raise AssertionError("routes disagree")

    monkeypatch.setattr(cli_mod, "energy_pair", boom)
    code, _, err = run_cli(capsys, "verify", "identities", "--trials", "1", "--seed", "0")
    assert code == 1
    monkeypatch.undo()
    # A check that fails outside verify identities reaches main's exit 1.
    import cubelab.energy as energy_mod

    monkeypatch.setattr(energy_mod, "_brute_pair_energy", lambda mode, A, B: -1)
    a = tmp_path / "a.txt"
    a.write_text("0\n1\n4\n5\n")
    code, out, err = run_cli(capsys, "energy", str(a))
    assert code == 1 and out == "" and err.startswith("check failed:"), err
    # So does a disagreement of the op and inverse routes, checked before the brute force.
    monkeypatch.undo()
    power_sum = energy_mod._power_sum
    monkeypatch.setattr(energy_mod, "_power_sum", lambda op, *args: power_sum(op, *args) + (op == "diff"))
    code, out, err = run_cli(capsys, "energy", str(a))
    assert code == 1 and out == "" and "sum and diff energy routes disagree" in err, err


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cubelab.cli", "cube", "gen", "--gens", "1,4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "{0, 1, 4, 5}"
