"""A fixed reference computation that tells how fast the host runs this process.

On a shared host the same work can take up to twice as long from one minute
to the next, because other tenants contend for the cores, caches and memory
bus.  An untraced run therefore times this reference right after every timed
sample (a set-up, a training step, a forward batch) and reports each sample
as ``wall_s * NOMINAL_S / reference_s``: wall seconds rescaled to a host on
which the reference takes ``NOMINAL_S``.  The reference calls no stdiff code,
so a change to the program moves the adjusted time by the same share as the
wall time; only changes in the host's speed cancel.

The reference mixes the kinds of work the program does: interpreted Python,
a BLAS GEMM, a numpy gather-multiply-reduce like the sparse product, and
first writes to freshly mapped memory, which pay for page faults as the
program's large temporaries do.
"""
from __future__ import annotations

import mmap
import time

import numpy as np

NOMINAL_S = 0.010   # a fixed scale; on a shared 2.0 GHz Xeon vCPU the reference took 6-17 ms
ROUNDS = 24
FRESH_MAPS = 2
FRESH_BYTES = 2 << 20


class HostSpeed:
    """The reference computation, with its inputs built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(128, 128))
        self._x = rng.normal(size=(1000, 16))
        self._rows = rng.integers(0, 1000, size=1200)
        self._w = rng.normal(size=(1200, 1))
        self._starts = np.arange(0, 1200, 8)
        self.time()  # the first call pays for page faults and lazy loading

    def time(self) -> float:
        """Wall seconds for one run of the reference."""
        start = time.perf_counter()
        for _ in range(ROUNDS):
            self._a @ self._a
            np.add.reduceat(self._x[self._rows] * self._w, self._starts, axis=0)
            total = 0
            for i in range(2000):
                total += i
        for _ in range(FRESH_MAPS):
            fresh = mmap.mmap(-1, FRESH_BYTES)
            np.frombuffer(fresh, dtype=np.uint8)[::mmap.PAGESIZE] = 1
            fresh.close()
        return time.perf_counter() - start


def adjusted(wall_s, host_s) -> list[float]:
    """Each wall time rescaled by the reference time taken right after it."""
    return [w * NOMINAL_S / h for w, h in zip(wall_s, host_s)]
