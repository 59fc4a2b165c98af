"""How fast the shared host runs right now, from a fixed reference kernel.

The benchmark's host is shared with other tenants, and the speed it gives
this process drifts between levels up to 1.5x apart that last from seconds
to minutes, with no steal time.  Runs made minutes apart (ten seeds of one
workload, or the parent commit and a change) therefore differ by more than
the changes the benchmark should catch, and neither the median nor the
fastest repeat of a call within a 28 s run removes that.

The reference kernel does what the workloads spend their time on, in numpy
only: it maps ``N`` x ``N`` complex entries of fresh anonymous memory (so
every page faults and is zeroed by the kernel, as for numpy's large
arrays; about 15% of a ladder pass is such system time), gathers and
multiplies complex vectors into it along an index table (the access
pattern of ``sums.kr_matrix``), and unmaps it.  The mapping is its own, so
the kernel's time does not depend on the state of the process's heap; it
calls nothing in klsums, so a change to the library cannot move it.  It
runs between passes, and the run's times are scaled by ``REF_S`` over its
median time: a scaled time is the time the pass would take on a host where
the reference takes ``REF_S``.
"""

from __future__ import annotations

import mmap
import statistics
import time

import numpy as np

REF_S = 0.020  # about the kernel's median on a quiet 2-vCPU Xeon VM
N = 997
SAMPLES = 5  # per call of sample()


class HostSpeed:
    def __init__(self):
        rng = np.random.Generator(np.random.PCG64(0))  # fixed: not a workload input
        self.v = rng.random(N) + 1j * rng.random(N)
        self.idx = (np.arange(N)[:, None] * np.arange(N)[None, :] + 3) % N
        self.times: list[float] = []

    def _kernel(self) -> complex:
        with mmap.mmap(-1, N * N * 16) as buf:
            out = np.frombuffer(buf, dtype=np.complex128).reshape(N, N)
            np.take(self.v, self.idx, out=out)
            np.multiply(out, self.v[None, :], out=out)
            acc = complex(out.sum())
            del out  # release the buffer before the mapping closes
        return acc

    def sample(self) -> None:
        for _ in range(SAMPLES):
            t0 = time.perf_counter()
            self._kernel()
            self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Factor from this run's seconds to reference-host seconds."""
        return REF_S / statistics.median(self.times)
