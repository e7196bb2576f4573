"""counting_route: the one way tests force and observe a counting route.

Every count of setops runs on the numpy lane or on the Python route.  The
Counter it yields names what ran: the Python route's _python_power_sum and
_convolve_counts calls, and each _lane_blocks walk under the setops
function that walks it (_lane_power_sum, recount, _lane_map or
_least_pair_count).  A plain context manager: a hypothesis example enters
it once per draw.
"""

import sys
from collections import Counter
from contextlib import contextmanager

import pytest

from cubelab import setops

try:
    import numpy  # noqa: F401  (only to learn whether the lane can run)

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False


def _spy(ran: Counter, name: str, route):
    def spy(*args):
        # A walk counts under its caller, or under the caller of a genexpr.
        frame = sys._getframe(1)
        while name == "_lane_blocks" and frame.f_code.co_name == "<genexpr>":
            frame = frame.f_back
        ran[frame.f_code.co_name if name == "_lane_blocks" else name] += 1
        return route(*args)

    return spy


@contextmanager
def counting_route(force=None, *, block_pairs=None, primes=None):
    """Force the route: "lane" lowers the lane threshold to 0, "python" also
    hides numpy, None leaves both alone; and patch the lane's block size and
    fingerprint primes where given."""
    ran = Counter()
    with pytest.MonkeyPatch.context() as mp:
        if force == "python":
            mp.setitem(sys.modules, "numpy", None)
        for name, value in (("_LANE_MIN_PAIRS", 0 if force else None), ("_BLOCK_PAIRS", block_pairs),
                            ("_FINGERPRINT_PRIMES", primes)):
            if value is not None:
                mp.setattr(setops, name, value)
        for name in ("_python_power_sum", "_convolve_counts", "_lane_blocks"):
            mp.setattr(setops, name, _spy(ran, name, getattr(setops, name)))
        yield ran
