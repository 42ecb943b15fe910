"""Machine-speed correction from a fixed reference kernel.

The shared two-vCPU machine this benchmark was built on changes speed
while it runs.  A fixed Python loop took 1.1x to 1.7x its best time,
in phases of 5 to 60 s, and the median op time of 20-second windows of
one workload moved by up to 60%.  Longer runs cannot average that out.

So every op is timed between two runs of ``reference()``.  That is a
fixed kernel of the kinds of work the workloads do: Python integer and
float arithmetic, dict updates, numpy uint64 scalar arithmetic and
small numpy array operations.  It calls no exactspin code, so a change
to the package cannot move it.  An op's reported time is its wall time
times ``REFERENCE_S`` over the mean of the two reference times around
it: the op's seconds at the recorded machine's nominal speed.  The run
prints the raw wall times and the speed factor beside the corrected
figures.
"""

import math
from time import perf_counter

import numpy as np

# Median time of reference() on the machine in machine.json.  It only
# sets the scale: corrected times read as seconds at this speed.
REFERENCE_S = 0.0041

_XS = np.linspace(0.0, 1.5, 2049)
_MUL = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(7)


def reference() -> float:
    """Run the reference kernel once and return its wall time in seconds."""
    t0 = perf_counter()
    s = 0
    for i in range(30_000):
        s += i * i
    counts = {}
    acc = 0.0
    for i in range(2000):
        x = (i % 97) * 0.01
        acc += math.erfc(x) + math.exp(-x)
        key = (i % 50, i % 7)
        counts[key] = counts.get(key, 0) + 1
    u = np.uint64(12345)
    with np.errstate(over="ignore"):
        for _ in range(750):
            u = (u ^ (u >> _SHIFT)) * _MUL
    for i in range(10):
        np.logaddexp(_XS * i, -_XS * i).cumsum()
    return perf_counter() - t0
