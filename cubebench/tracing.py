"""Span tracing for the benchmark's traced run.

The tracer replaces cubelab's public functions by timing wrappers in every
module namespace that holds them, so a call is traced where the calling
module looks the name up (``cubelab.experiments.pairwise_size`` and
``cubelab.structure.pairwise`` get the same wrapper).  Spans stay in memory
and are written out once the run ends.

Each ``_s`` total is self time: the span's duration minus the part of it
covered by traced calls it made.  Pool workers forked by ``run_campaign``
inherit the wrappers; each task's spans ride back to the parent on the
returned record and are merged there.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

# Public functions traced, by defining module.  The first argument of the
# functions in SPLIT_BY_FIRST_ARG (the op or the mode) is part of the name.
TRACED = {
    "cube": ("enumerate_cube", "is_proper"),
    "setops": ("pairwise", "pairwise_set", "pairwise_size", "iterate_sum"),
    "energy": ("energy_pair", "energy_k", "energy_tk"),
    "structure": ("sd_decompose", "sd_popularity_ok", "olmezov_sides", "gmr_check"),
    "incidence": ("count_incidences_2d",),
    "experiments": (
        "random_proper_cube",
        "growth_trial",
        "energy_bound_trial",
        "conjecture_probe",
        "run_task",
        "run_campaign",  # its wrapper merges the pool workers' spans
    ),
}
SPLIT_BY_FIRST_ARG = {"setops.pairwise", "setops.pairwise_size", "energy.energy_pair"}
# Methods traced on their class.
TRACED_METHODS = {"structure": (("SDDecomposition", "coverage_ok"),)}

_WORKER_ATTR = "_cubebench_trace"


class Tracer:
    """Collects spans and per-name totals; install() patches, uninstall()
    restores.  With memory=True the first pairwise_size call of each op
    also runs under tracemalloc, and the largest peak is kept; tracemalloc
    slows such a call six to nine times, too much to apply to all."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.pid = os.getpid()
        self._patches: list = []
        self.task = None
        self._next_id = 0
        self._memory_measured: set = set()
        self._reset()

    def _reset(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.size_peak_bytes = 0
        self.spans: list = []
        self._stack: list = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for mod_name, names in TRACED.items():
            module = sys.modules[f"cubelab.{mod_name}"]
            for name in names:
                fn = getattr(module, name)
                originals[id(fn)] = self._wrap(f"{mod_name}.{name}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cubelab" and not mod_name.startswith("cubelab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for mod_name, pairs in TRACED_METHODS.items():
            module = sys.modules[f"cubelab.{mod_name}"]
            for cls_name, meth in pairs:
                cls = getattr(module, cls_name)
                fn = vars(cls)[meth]
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{mod_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    def _wrap(self, label: str, fn):
        split = label in SPLIT_BY_FIRST_ARG
        if label == "experiments.run_task":
            return self._wrap_run_task(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = f"{label}.{args[0]}" if split else label
            result = self._span(name, fn, args, kwargs)
            if label == "experiments.run_campaign":
                for record in result:
                    shipped = record.__dict__.pop(_WORKER_ATTR, None)
                    if shipped is not None:
                        self._merge(shipped)
            return result

        return traced

    def _wrap_run_task(self, fn):
        @functools.wraps(fn)
        def traced(task):
            if os.getpid() == self.pid:
                return self._span("experiments.run_task", fn, (task,), {})
            # A forked pool worker: trace this task alone and ship it back.
            self._reset()
            self.task = f"{task['kind']}/d{task['d']}/seed{task['seed']}"
            record = self._span("experiments.run_task", fn, (task,), {})
            setattr(record, _WORKER_ATTR, self._export())
            return record

        return traced

    # -- spans ------------------------------------------------------------

    def _span(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        measure_memory = (self.memory and name.startswith("setops.pairwise_size")
                          and name not in self._memory_measured)
        if measure_memory:
            self._memory_measured.add(name)
            tracemalloc.start()
        ok = False
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            t1 = perf_counter()
            if measure_memory:
                self.size_peak_bytes = max(self.size_peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
            self._stack.pop()
            duration = t1 - t0
            if parent is not None:
                parent[1] += duration
            self.self_s[name] += duration - frame[1]
            self.spans.append(
                (span_id, parent[0] if parent else None, name, t0, t1, os.getpid(), self.task, ok)
            )
        self._count(name, args, result)
        return result

    def _count(self, name: str, args, result) -> None:
        if name.startswith("setops.pairwise_size"):
            self.counts["size_pairs"] += len(args[1]) * len(args[2])
            self.counts["size_results"] += result
        elif name.startswith("setops.pairwise."):
            self.counts["count_pairs"] += len(args[1]) * len(args[2])
        elif name.startswith("cube."):
            self.counts["cube_calls"] += 1

    # -- worker hand-off --------------------------------------------------

    def _export(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "size_peak_bytes": self.size_peak_bytes,
            "spans": self.spans,
        }

    def _merge(self, shipped: dict) -> None:
        for name, v in shipped["self_s"].items():
            self.self_s[name] += v
        for name, v in shipped["counts"].items():
            self.counts[name] += v
        self.size_peak_bytes = max(self.size_peak_bytes, shipped["size_peak_bytes"])
        self.spans.extend(shipped["spans"])

    def write_spans(self, path) -> None:
        """One JSON object per span; ids are unique within a pid."""
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1, pid, task, ok in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "start": t0,
                         "end": t1, "pid": pid, "task": task, "ok": ok}
                    )
                    + "\n"
                )
