"""Set up one workload in this fresh process and print when it was done.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports klsums from ``src/`` of the current directory (with BLAS pinned as
in run.py), builds the workload's inputs from the seed and prints the
system-wide monotonic clock, so the caller can time the whole set-up from
the moment it started this process.  run.py calls this a few times per run.
"""

import sys
import time

import run  # pins the BLAS threads before numpy is imported

run.import_library()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
print(time.clock_gettime(time.CLOCK_MONOTONIC))
