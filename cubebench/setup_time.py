"""One set-up in a fresh interpreter: import cubelab, then build a
workload's inputs; print the seconds both took.

    python3 cubebench/setup_time.py <src dir> <workload> <seed> <out dir>

The clock starts before cubelab is imported, so the time includes every
module cubelab pulls in, standard library ones too.  The benchmark's own
modules are imported after that, outside the timed part.
"""

import sys
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import cubelab  # noqa: E402,F401

import_s = perf_counter() - t0

from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

workload = WORKLOADS[sys.argv[2]]()
t1 = perf_counter()
workload.setup(int(sys.argv[3]), Path(sys.argv[4]))
print(repr(import_s + perf_counter() - t1))
