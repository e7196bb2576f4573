"""Command line front end.

Exit codes: 0 success, 1 a verified inequality or identity failed,
2 bad usage or invalid arguments, 3 a magnitude or enumeration cap fired
or a campaign worker died.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .cube import (
    ADDITIVE,
    MULTIPLICATIVE,
    CubeSpec,
    FiniteSet,
    enumerate_cube,
    is_symmetric,
    split_balanced,
    subcube,
    symmetry_witness,
)
from .energy import cube_energy_bounds, energy_k, energy_pair, energy_tk
from .experiments import (
    conjecture_probe,
    export_growth_csv,
    run_campaign,
)
from .incidence import (
    LineSet,
    count_incidences_2d,
    count_incidences_3d,
    instance_from_json,
    plane_main,
    plane_rhs,
    szt_rhs,
)
from .numeric import AmbientRing, CapExceededError, _parse_json
from .setops import DIFF, PROD, RATIO, SUM, iterate_prod, iterate_sum, pairwise
from .structure import (
    energy_lower_check,
    gmr_check,
    olmezov_sides,
    sd_decompose,
    sd_popularity_ok,
)

OP_NAMES = {"sum": SUM, "diff": DIFF, "prod": PROD, "ratio": RATIO}


def _add_ring_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ring", choices=["z", "fp"], default="z")
    parser.add_argument("--p", type=int, help="modulus, required with --ring fp")


def _ring_from_args(args) -> AmbientRing:
    if args.ring == "fp":
        if args.p is None:
            raise ValueError("--ring fp needs --p")
        return AmbientRing.prime_field(args.p)
    return AmbientRing.integers()


def _add_cube_args(parser: argparse.ArgumentParser) -> None:
    _add_ring_args(parser)
    parser.add_argument("--spec", help="cube spec JSON file (overrides inline flags)")
    parser.add_argument("--a0", type=int)
    parser.add_argument("--gens", help="comma separated generators, e.g. 1,3,9")
    parser.add_argument("--h", type=int, help="interval digits {0..h}")
    parser.add_argument("--digits", help="explicit digit set, e.g. 0,1,4")
    parser.add_argument(
        "--mode", choices=[ADDITIVE, MULTIPLICATIVE], default=ADDITIVE
    )


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _cube_from_args(args) -> CubeSpec:
    if args.spec:
        return CubeSpec.from_json_dict(_parse_json(_read_text(args.spec), "cube spec"))
    if not args.gens:
        raise ValueError("need --gens or --spec")
    if args.digits and args.h is not None:
        raise ValueError("--h and --digits are mutually exclusive")
    digits = _ints(args.digits) if args.digits else tuple(range((1 if args.h is None else args.h) + 1))
    a0 = args.a0
    if a0 is None:
        a0 = 0 if args.mode == ADDITIVE else 1
    return CubeSpec(
        ring=_ring_from_args(args),
        a0=a0,
        generators=_ints(args.gens),
        digits=digits,
        mode=args.mode,
    )


def _load_set(ring: AmbientRing, path: str) -> FiniteSet:
    return FiniteSet.from_lines(ring, _read_text(path))


def _print_set(A: FiniteSet) -> None:
    print("{" + ", ".join(str(x) for x in A.elements) + "}")


# --- cube -------------------------------------------------------------


def _cmd_cube_gen(args) -> int:
    spec = _cube_from_args(args)
    q_set = enumerate_cube(spec)
    if args.out:
        Path(args.out).write_text(q_set.to_lines())
    if args.json:
        print(
            json.dumps(
                {
                    "spec": spec.to_json_dict(),
                    "size": len(q_set),
                    "proper": len(q_set) == len(spec.digits) ** spec.dimension,
                    "elements": [str(x) for x in q_set.elements],
                }
            )
        )
    elif not args.out:
        _print_set(q_set)
    return 0


def _cmd_cube_split(args) -> int:
    spec = _cube_from_args(args)
    xs, ys = split_balanced(spec)
    sx = len(enumerate_cube(subcube(spec, xs)))
    sy = len(enumerate_cube(subcube(spec, ys)))
    print(
        json.dumps(
            {"x": list(xs), "y": list(ys), "sizes": [sx, sy], "digit_count": len(spec.digits)}
        )
    )
    return 0


def _cmd_cube_symmetry(args) -> int:
    spec = _cube_from_args(args)
    u = symmetry_witness(spec)
    ok = is_symmetric(spec)
    print(json.dumps({"witness": u, "symmetric": ok}))
    return 0 if ok else 1


# --- setop --------------------------------------------------------------


def _cmd_setop(args) -> int:
    ring = _ring_from_args(args)
    A = _load_set(ring, args.A)
    B = _load_set(ring, args.B) if args.B else A
    support, counts = pairwise(OP_NAMES[args.op], A, B)
    if args.counts:
        Path(args.counts).write_text(counts.to_csv())
    if args.json:
        print(json.dumps({"op": args.op, "size": len(support), "mass": counts.mass()}))
    else:
        _print_set(support)
    return 0


def _cmd_setop_iter(args) -> int:
    if args.counts and args.op != "sum":
        raise ValueError("--counts is for --op sum")
    spec = _cube_from_args(args)
    if args.op == "sum":
        value_set, counts = iterate_sum(spec, args.k, with_multiplicities=bool(args.counts))
        if args.counts:
            Path(args.counts).write_text(counts.to_csv())
    else:
        value_set = iterate_prod(enumerate_cube(spec), args.k)
    if args.json:
        print(json.dumps({"k": args.k, "op": args.op, "size": len(value_set)}))
    else:
        _print_set(value_set)
    return 0


# --- energy -------------------------------------------------------------


def _cmd_energy(args) -> int:
    if args.B and (args.k is not None or args.tk is not None):
        raise ValueError("--k and --tk take one set")
    ring = _ring_from_args(args)
    A = _load_set(ring, args.A)
    B = _load_set(ring, args.B) if args.B else None
    if args.k is not None:
        report = energy_k(args.mode, A, args.k)
    elif args.tk is not None:
        report = energy_tk(args.mode, A, args.tk)
    else:
        report = energy_pair(args.mode, A, B)
    if args.json:
        print(json.dumps(report.to_json_dict()))
    else:
        print(report.value)
    return 0


# --- verify -------------------------------------------------------------


def _cmd_verify_sd(args) -> int:
    spec = _cube_from_args(args)
    dec = sd_decompose(spec)
    coverage = dec.coverage_ok()
    sizes = dec.sizes_ok()
    result = {
        "|Q|": len(dec.cube_set),
        "|S|": len(dec.sums),
        "|D|": len(dec.diffs),
        "coverage": coverage,
        "sizes": sizes,
    }
    if args.popularity:
        result["pointwise"] = sd_popularity_ok(spec)
    print(json.dumps(result))
    return 0 if all(v for k, v in result.items() if isinstance(v, bool)) else 1


def _cmd_verify_olmezov(args) -> int:
    ring = _ring_from_args(args)
    A = _load_set(ring, args.A)
    B = _load_set(ring, args.B)
    D = _load_set(ring, args.D)
    verdict = olmezov_sides(A, B, D, args.n, args.s, args.m, mode=args.mode)
    print(json.dumps(verdict.to_json_dict()))
    return 0 if verdict.passed else 1


def _cmd_verify_gmr(args) -> int:
    ring = _ring_from_args(args)
    sets = [_load_set(ring, path) for path in args.sets]
    verdict = gmr_check(sets)
    print(json.dumps(verdict.to_json_dict()))
    return 0 if verdict.passed else 1


def _cmd_verify_qk(args) -> int:
    spec = _cube_from_args(args)
    k = args.k
    bounds = cube_energy_bounds(spec, k)
    q_set = enumerate_cube(spec)
    kq, _ = iterate_sum(spec, k, with_multiplicities=False)
    tk = energy_tk(ADDITIVE, q_set, k).value
    ek = energy_k(ADDITIVE, q_set, k).value
    checks = {"kq_upper": len(kq) <= bounds.kq_upper}
    if bounds.tk_floor is not None:
        checks["tk_floor"] = tk >= bounds.tk_floor
        checks["ek_floor"] = ek >= bounds.ek_floor
    result = {
        "k": k,
        "|Q|": bounds.q_size,
        "|kQ|": len(kq),
        "T_k": str(tk),
        "E_k": str(ek),
        "kq_upper": bounds.kq_upper,
        "tk_floor": bounds.tk_floor,
        "ek_floor": bounds.ek_floor,
        "energy_h_floor": bounds.energy_h_floor,
        "tk_closed_form": str(bounds.tk_closed_form),
        "ek_closed_form": str(bounds.ek_closed_form),
        "checks": checks,
        "h_floor_vs_Ek": ek >= bounds.energy_h_floor,
    }
    print(json.dumps(result))
    return 0 if all(checks.values()) else 1


def _cmd_verify_identities(args) -> int:
    ring = _ring_from_args(args)
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
        print(f"seed: {seed}", file=sys.stderr)
    rng = random.Random(seed)
    lo, hi = (1, 10**6) if ring.kind == "integers" else (0, ring.modulus - 1)
    failures = 0
    for _ in range(args.trials):
        na = rng.randint(2, args.size)
        nb = rng.randint(2, args.size)
        A = FiniteSet.from_iterable(ring, (rng.randint(lo, hi) for _ in range(na)))
        B = FiniteSet.from_iterable(ring, (rng.randint(lo, hi) for _ in range(nb)))
        try:
            energy_pair(ADDITIVE, A, B)
            energy_pair(MULTIPLICATIVE, A, B)
        except AssertionError as exc:
            failures += 1
            print(f"identity failure: {exc}", file=sys.stderr)
    print(json.dumps({"seed": seed, "trials": args.trials, "failures": failures}))
    return 0 if failures == 0 else 1


def _cmd_verify_energy_lower(args) -> int:
    spec = _cube_from_args(args)
    B = _load_set(spec.ring, args.B)
    verdict = energy_lower_check(B, spec)
    print(json.dumps(verdict.to_json_dict()))
    return 0 if verdict.passed else 1


# --- incidence ------------------------------------------------------------


def _cmd_incidence_2d(args) -> int:
    inst = instance_from_json(_read_text(args.instance))
    points = inst["points"]
    lines = LineSet.all_lines(inst["p"]) if args.all_lines else inst.get("lines")
    if lines is None:
        raise ValueError("instance has no lines; pass --all-lines to use every line")
    count = count_incidences_2d(points, lines)
    rhs = szt_rhs(len(points), len(lines))
    print(
        json.dumps(
            {
                "p": inst["p"],
                "points": len(points),
                "lines": len(lines),
                "incidences": count,
                "szt_rhs": rhs,
                "ratio": count / rhs if rhs else None,
            }
        )
    )
    return 0


def _cmd_incidence_3d(args) -> int:
    inst = instance_from_json(_read_text(args.instance))
    if "planes" not in inst:
        raise ValueError("instance has no planes")
    points, planes = inst["points"], inst["planes"]
    count, k = count_incidences_3d(points, planes)
    rhs = plane_rhs(len(points), len(planes), k)
    main = plane_main(len(points), len(planes), inst["p"])
    print(
        json.dumps(
            {
                "p": inst["p"],
                "points": len(points),
                "planes": len(planes),
                "incidences": count,
                "max_collinear": k,
                "plane_rhs": rhs,
                "main_term": main,
                "ratio": count / (main + rhs) if main + rhs else None,
            }
        )
    )
    return 0


# --- campaign / conjecture -------------------------------------------------


def _cmd_campaign_run(args) -> int:
    config = _parse_json(_read_text(args.config), "campaign config")
    new = run_campaign(config, args.log, jobs=args.jobs)
    print(json.dumps({"appended": len(new), "log": str(args.log)}))
    return 0


def _cmd_campaign_export(args) -> int:
    rows = export_growth_csv(args.log, args.csv, target=args.target)
    print(json.dumps({"rows": rows, "csv": str(args.csv)}))
    return 0


def _cmd_conjecture(args) -> int:
    cube_flags = (args.spec, args.a0, args.gens, args.h, args.digits)
    if args.set and (any(v is not None for v in cube_flags) or args.mode != ADDITIVE):
        raise ValueError("--set takes no cube flags")
    if args.set:
        ring = _ring_from_args(args)
        Q = _load_set(ring, args.set)
    else:
        Q = enumerate_cube(_cube_from_args(args))
    record = conjecture_probe(Q, args.m, args.n_max)
    print(record.to_json_line())
    return 0


# --- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubelab",
        description="exact workbench for combinatorial cubes and their arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cube = sub.add_parser("cube", help="generate and inspect cubes").add_subparsers(
        dest="sub", required=True
    )
    gen = cube.add_parser("gen", help="enumerate a cube")
    _add_cube_args(gen)
    gen.add_argument("--out", help="write one element per line to this file")
    gen.add_argument("--json", action="store_true")
    gen.set_defaults(func=_cmd_cube_gen)
    split = cube.add_parser("split", help="balanced generator bipartition")
    _add_cube_args(split)
    split.set_defaults(func=_cmd_cube_split)
    symmetry = cube.add_parser("symmetry", help="reflection symmetry witness")
    _add_cube_args(symmetry)
    symmetry.set_defaults(func=_cmd_cube_symmetry)

    setop = sub.add_parser("setop", help="pairwise and iterated set operations")
    setop_sub = setop.add_subparsers(dest="sub", required=True)
    for op in ("sum", "diff", "prod", "ratio"):
        sp = setop_sub.add_parser(op, help=f"pointwise {op} of two sets")
        _add_ring_args(sp)
        sp.add_argument("A", help="set file, one element per line")
        sp.add_argument("B", nargs="?", help="defaults to A")
        sp.add_argument("--counts", help="write multiplicity CSV here")
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=_cmd_setop, op=op)
    it = setop_sub.add_parser("iter", help="k-fold sumset or product set of a cube")
    _add_cube_args(it)
    it.add_argument("-k", type=int, required=True)
    it.add_argument("--op", choices=["sum", "prod"], default="sum")
    it.add_argument("--counts", help="write multiplicity CSV here (sum only)")
    it.add_argument("--json", action="store_true")
    it.set_defaults(func=_cmd_setop_iter)

    energy = sub.add_parser("energy", help="additive and multiplicative energies")
    _add_ring_args(energy)
    energy.add_argument("A")
    energy.add_argument("B", nargs="?")
    energy.add_argument("--mode", choices=[ADDITIVE, MULTIPLICATIVE], default=ADDITIVE)
    of_a_alone = energy.add_mutually_exclusive_group()
    of_a_alone.add_argument("--k", type=int, help="k-energy of A alone")
    of_a_alone.add_argument("--tk", type=int, help="T_k = sum of r_{kA}^2 of A alone")
    energy.add_argument("--json", action="store_true")
    energy.set_defaults(func=_cmd_energy)

    verify = sub.add_parser("verify", help="inequality and identity checks")
    verify_sub = verify.add_subparsers(dest="sub", required=True)
    sd = verify_sub.add_parser("sd", help="popular sum/difference decomposition")
    _add_cube_args(sd)
    sd.add_argument("--popularity", action="store_true", help="also check the pointwise form")
    sd.set_defaults(func=_cmd_verify_sd)
    olm = verify_sub.add_parser("olmezov", help="Hoelder chain for directed counts")
    _add_ring_args(olm)
    olm.add_argument("A")
    olm.add_argument("B")
    olm.add_argument("D")
    olm.add_argument("--n", type=int, required=True)
    olm.add_argument("--s", type=int, required=True)
    olm.add_argument("--m", type=int, required=True)
    olm.add_argument("--mode", choices=[ADDITIVE, MULTIPLICATIVE], default=ADDITIVE)
    olm.set_defaults(func=_cmd_verify_olmezov)
    gmr = verify_sub.add_parser("gmr", help="projection bound for k-fold sumsets")
    _add_ring_args(gmr)
    gmr.add_argument("sets", nargs="+", help="two or more set files")
    gmr.set_defaults(func=_cmd_verify_gmr)
    qk = verify_sub.add_parser("qk-bounds", help="iterated sumset and energy bounds")
    _add_cube_args(qk)
    qk.add_argument("-k", type=int, required=True)
    qk.set_defaults(func=_cmd_verify_qk)
    idents = verify_sub.add_parser("identities", help="dual-route energy identities on random sets")
    _add_ring_args(idents)
    idents.add_argument("--trials", type=int, default=100)
    idents.add_argument("--size", type=int, default=30)
    idents.add_argument("--seed", type=int)
    idents.set_defaults(func=_cmd_verify_identities)
    elow = verify_sub.add_parser("energy-lower", help="E+(B, Q) floor for B inside a cube")
    _add_cube_args(elow)
    elow.add_argument("B", help="subset of the cube, one element per line")
    elow.set_defaults(func=_cmd_verify_energy_lower)

    incidence = sub.add_parser("incidence", help="point-line and point-plane counts")
    incidence_sub = incidence.add_subparsers(dest="sub", required=True)
    inc2 = incidence_sub.add_parser("2d", help="points against lines in the plane")
    inc2.add_argument("instance", help="JSON instance file")
    inc2.add_argument("--all-lines", action="store_true")
    inc2.set_defaults(func=_cmd_incidence_2d)
    inc3 = incidence_sub.add_parser("3d", help="points against planes in space")
    inc3.add_argument("instance")
    inc3.set_defaults(func=_cmd_incidence_3d)

    campaign = sub.add_parser("campaign", help="seeded experiment batches")
    campaign_sub = campaign.add_subparsers(dest="sub", required=True)
    crun = campaign_sub.add_parser("run", help="run a campaign config against a JSONL log")
    crun.add_argument("config")
    crun.add_argument("--log", required=True)
    crun.add_argument("--jobs", type=int, default=1)
    crun.set_defaults(func=_cmd_campaign_run)
    cexp = campaign_sub.add_parser("export", help="flatten growth records to CSV")
    cexp.add_argument("--log", required=True)
    cexp.add_argument("--csv", required=True)
    cexp.add_argument("--target", default="QQ")
    cexp.set_defaults(func=_cmd_campaign_export)

    conj = sub.add_parser("conjecture", help="smallest n with |Q^n| >= |Q|^m")
    _add_cube_args(conj)
    conj.add_argument("--set", help="probe an explicit set file instead of a cube")
    conj.add_argument("-m", type=int, required=True)
    conj.add_argument("--n-max", type=int, default=12)
    conj.set_defaults(func=_cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
