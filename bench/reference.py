"""The reference computation that measures the machine's current speed.

The machine this benchmark was calibrated on (2 shared cores) switches
between a fast and a slow state, within seconds or for minutes at a time;
the same abstraction call took 90 ms in one window and 150-175 ms in
another, and CPU time moved with wall time.  The benchmark therefore times
this fixed kernel -- small NumPy array operations feeding a dict of
frozensets, the benchmark's own code, never the program -- between every
two operations, and corrects every time it reports, end-to-end or per
layer, by the kernel passes on either side of its start::

    corrected = raw * (R0_MS / R_local) ** BETA

``R_local`` is the median of those passes.  The kernel slows down more
than the program between the two states (1.64-1.9x against 1.28-1.51x for
synthesis, edit streams and process start-up), so the ratio is damped by
one exponent: 0.6 gave the smallest sum of run-to-run spreads of the four
timed metrics over 58 earlier runs of the three workloads (0.4 and 0.8 gave
9-11 % more, no correction 64 % more).  Undamped, a run spent in the fast
state would read 1.09-1.48x slow.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the calibration machine in its slow (usual) state;
# corrected figures are seconds at that nominal speed.
R0_MS = 8.5
BETA = 0.6
BOXES = 96


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20180227)
        self.lo = rng.random((BOXES, 2)) * 0.9
        self.hi = self.lo + 0.08
        self.maps = [rng.random((2, 2)) * 0.5 for _ in range(3)]
        self.shift = rng.random(2) * 0.2

    def run(self) -> float:
        """One kernel pass; returns its duration in milliseconds."""
        start = time.perf_counter()
        table = {}
        for i in range(BOXES):
            lo, hi = self.lo[i], self.hi[i]
            for k, a in enumerate(self.maps):
                rlo = a @ lo - 0.5 * (a @ hi) + self.shift
                rhi = a @ hi - 0.5 * (a @ lo) + self.shift
                hit = np.all(np.maximum(rlo, self.lo) < np.minimum(rhi, self.hi), axis=1)
                table[(i, k)] = frozenset(np.nonzero(hit)[0].tolist())
        reach = {}
        for (i, k), targets in table.items():
            reach.setdefault(k, set()).update(targets)
        if not reach:
            raise RuntimeError("reference kernel produced nothing")
        return (time.perf_counter() - start) * 1e3
