"""cubelab benchmark: one workload per process, metrics as one JSON line.

    python3 cubebench/run.py --workload growth-z --seed 1 --seconds 20 --trace 0
    python3 cubebench/run.py            # every workload, each in its own process

Run from the root of a cubelab checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
pass, whose rounds alternate with untraced ones so that the tracing
overhead compares like with like, then one more round runs with
tracemalloc around the first pairwise_size call of each op.
Results, span traces and scratch campaign logs go to ``cubebench/out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
# Set-ups timed, each in a fresh interpreter; setup_s is their median.
SETUP_REPS = 11

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Meter, Observations  # noqa: E402


def import_cubelab():
    """Import cubelab from the checkout's src, and from nowhere else."""
    sys.path.insert(0, str(SRC))
    import cubelab

    if not Path(cubelab.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cubelab was imported from {cubelab.__file__}, not from {SRC}")


def time_setups(workload: str, seed: int) -> list[float]:
    """Seconds for imports plus the workload's set-up, each measured in a
    fresh interpreter by setup_time.py."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_time.py"), str(SRC), workload, str(seed),
             str(OUT / "setup")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


class Side:
    """The rounds of a pass run with one tracer, or with none."""

    def __init__(self, tracer=None) -> None:
        self.meter = Meter(tracer)
        self.phases: dict = defaultdict(float)
        self.rounds = 0

    @property
    def tasks_per_s(self) -> float:
        """Tasks completed in a round per second of the round's program time."""
        return len(self.meter.task_ms) / self.rounds / self.meter.round_s()


def run_pass(workload, state, seconds: float, observations: Observations, sides: list) -> None:
    """Whole rounds, the sides taking turns, until ``seconds`` have gone by
    and every side has run as many rounds as the others.  A side's tracer
    is installed for its rounds alone."""
    start = perf_counter()
    turn = 0
    while True:
        side = sides[turn % len(sides)]
        tracer = side.meter.tracer
        if tracer is not None:
            tracer.install()
        side.meter.new_round()
        try:
            workload.run_round(state, side.meter, observations, side.phases)
        finally:
            if tracer is not None:
                tracer.uninstall()
        side.rounds += 1
        turn += 1
        if turn % len(sides) == 0 and perf_counter() - start >= seconds:
            return


def peak_rss_mb(workers: int) -> float:
    """This process's peak plus ``workers`` times the largest pool worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# Per-layer metric -> (span name whose self time it is, per round).
LAYER_TIMES = {
    **{f"setops.pairwise_size.{op}_s": f"setops.pairwise_size.{op}" for op in ("prod", "ratio", "sum", "diff")},
    **{f"setops.pairwise.{op}_s": f"setops.pairwise.{op}" for op in ("sum", "diff", "prod", "ratio")},
    "setops.pairwise_set_s": "setops.pairwise_set",
    "setops.iterate_sum_s": "setops.iterate_sum",
    "energy.energy_pair.additive_s": "energy.energy_pair.additive",
    "energy.energy_pair.multiplicative_s": "energy.energy_pair.multiplicative",
    "energy.energy_k_s": "energy.energy_k",
    "energy.energy_tk_s": "energy.energy_tk",
    "structure.sd_decompose_s": "structure.sd_decompose",
    "structure.coverage_ok_s": "structure.coverage_ok",
    "structure.sd_popularity_ok_s": "structure.sd_popularity_ok",
    "structure.olmezov_sides_s": "structure.olmezov_sides",
    "structure.gmr_check_s": "structure.gmr_check",
    "incidence.count_incidences_2d_s": "incidence.count_incidences_2d",
    "cube.enumerate_cube_s": "cube.enumerate_cube",
    "cube.is_proper_s": "cube.is_proper",
    "experiments.random_proper_cube_s": "experiments.random_proper_cube",
    "experiments.growth_trial_s": "experiments.growth_trial",
    "experiments.energy_bound_trial_s": "experiments.energy_bound_trial",
    "experiments.conjecture_probe_s": "experiments.conjecture_probe",
    "experiments.run_task_s": "experiments.run_task",
}
# Campaign phases, timed around the workload's own calls, per round.
LAYER_PHASES = {
    "experiments.run_campaign_s": ("run_campaign_s", "s/round"),
    "experiments.resume_s": ("resume_s", "s/round"),
    "experiments.load_log_s": ("load_log_s", "s/round"),
    "experiments.export_csv_s": ("export_csv_s", "s/round"),
    "experiments.task_busy_s": ("task_busy_s", "s/round"),
    "experiments.log_bytes": ("log_bytes", "B/round"),
}


def layer_metrics(tracer: Tracer, traced: Side, untraced: Side, memory: Tracer, jobs: int) -> dict:
    n = traced.rounds
    metrics = {name: (tracer.self_s.get(span, 0.0) / n, "s/round") for name, span in LAYER_TIMES.items()}
    pairs = tracer.counts["size_pairs"]
    metrics["setops.size_pairs"] = (pairs / n, "count/round")
    metrics["setops.size_distinct_per_pair"] = (tracer.counts["size_results"] / pairs if pairs else 0.0, "ratio")
    metrics["setops.size_peak_mb"] = (memory.size_peak_bytes / 2**20, "MB")
    metrics["setops.count_pairs"] = (tracer.counts["count_pairs"] / n, "count/round")
    metrics["cube.calls"] = (tracer.counts["cube_calls"] / n, "count/round")
    for name, (phase, unit) in LAYER_PHASES.items():
        metrics[name] = (traced.phases[phase] / n, unit)
    wall = traced.phases["run_campaign_s"]
    metrics["experiments.pool_efficiency"] = (
        traced.phases["task_busy_s"] / (jobs * wall) if wall else 0.0, "ratio")
    # Both sides ran the same rounds, interleaved, so drift in the
    # machine's speed falls on both alike.
    metrics["trace.overhead_pct"] = ((untraced.tasks_per_s / traced.tasks_per_s - 1.0) * 100.0, "%")
    return metrics


def run_one(args) -> int:
    if not (SRC / "cubelab" / "__init__.py").is_file():
        print(f"error: no cubelab package under {SRC}", file=sys.stderr)
        return 3
    import_cubelab()
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]()
    state = workload.setup(args.seed, OUT)
    observations = Observations()
    if args.trace:
        untraced, traced = Side(), Side(Tracer())
        run_pass(workload, state, args.seconds, observations, [untraced, traced])
        memory = Tracer(memory=True)
        run_pass(workload, state, 0, observations, [Side(memory)])
        tracer = traced.meter.tracer
        tracer.write_spans(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = layer_metrics(tracer, traced, untraced, memory, workload.workers)
        sides = [untraced, traced]
    else:
        untraced = Side()
        run_pass(workload, state, args.seconds, observations, [untraced])
        metrics = {
            "tasks_per_s": (untraced.tasks_per_s, "tasks/s"),
            "task_ms_p50": (statistics.median(untraced.meter.task_ms), "ms"),
            # Read before the set-up interpreters below have run.
            "peak_rss_mb": (peak_rss_mb(workload.workers), "MB"),
            "setup_s": (statistics.median(time_setups(args.workload, args.seed)), "s"),
        }
        sides = [untraced]
    attempted = sum(side.meter.attempted for side in sides)
    failed = sum(side.meter.failed for side in sides)
    errors = sum((side.meter.errors for side in sides), Counter())

    problems = workload.verify(state, observations)
    for message, times in sorted(errors.items()):
        print(f"failed x{times}: {message}", file=sys.stderr)
    for message in problems[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, "
          f"rounds = {sum(side.rounds for side in sides)}")
    print(line)
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in a process of its own; a summary, then one JSON line."""
    results = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines() or [""]
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
        if lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
