"""Time one workload's set-up in a new interpreter.

    python3 perfbench/setup_probe.py swm_cftp

Prints three numbers: the set-up seconds, and the reference-kernel
seconds just before and just after it (see ``speed``).  The clock
starts after numpy is imported and stops when the workload is ready
for its first op.  So the figure covers importing exactspin, digit
calibration and the first lattice build: the repository's own start-up
work in a fresh process.  Importing numpy is left out because it is
the same for every commit and its time depends mostly on the machine's
file cache.
"""

import sys
from time import perf_counter

import speed
import workloads


def main() -> None:
    speed.reference()  # the first call pays for warming the kernel
    ref_before = speed.reference()
    t0 = perf_counter()
    wl = workloads.WORKLOADS[sys.argv[1]]()
    wl.setup()
    elapsed = perf_counter() - t0
    ref_after = speed.reference()
    print(elapsed, ref_before, ref_after)


if __name__ == "__main__":
    main()
