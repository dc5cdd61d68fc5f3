"""Host-speed calibration for the timed phases.

On a shared host the same code can run 1.5-2x faster in some stretches
than in others, over seconds to minutes, and CPU time drifts with wall
time, so neither clock alone gives a steady figure.  ``Speed.measure``
times a fixed reference kernel, the benchmark's own code that never calls
simplexgeo, and the timed phases run it between operations.  Each timed
interval is then scaled by ``REFERENCE_S`` over the mean of the kernel
times just before and after it (``scale``), so it reads as on a host where
the kernel takes ``REFERENCE_S``.  Only the host's speed is divided out: a
change to the program moves the scaled times in full.

The kernel mixes what the operations spend their time on: interpreted
float loops, small numpy calls dominated by call overhead, a vectorised
pairwise-distance block and JSON text in both directions.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Kernel time the scaled figures are expressed against.  On a 2-vCPU Intel
# Xeon VM the kernel takes 1.2-2.8 ms as the host's speed drifts.
REFERENCE_S = 2.0e-3


class Speed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((6, 6))
        self._points = rng.standard_normal((300, 5))
        self._text = json.dumps({"points": self._points[:60].tolist()})
        for _ in range(3):
            self._kernel()

    def _kernel(self) -> float:
        total = 0.0
        for i in range(2500):
            total += (i * 0.5) % 7.0
        eye = np.eye(6)
        for i in range(60):
            x = np.linalg.solve(self._matrix + (i + 1.0) * eye, self._matrix[0])
            total += float(np.linalg.norm(x)) + float(np.dot(x, x))
        block = self._points[:, None, :] - self._points[None, :16, :]
        total += float(np.einsum("ijk,ijk->ij", block, block).max())
        doc = json.loads(self._text)
        total += len(json.dumps(doc))
        return total

    def measure(self) -> float:
        """Seconds the reference kernel takes now.

        The first kernel run after an operation is slowed by what the
        operation left in the caches and the allocator, by an amount that
        depends on the operation; it runs untimed, so that the timed run
        measures the host and not the program.
        """
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` as on a host where the kernel takes ``REFERENCE_S``,
    given kernel times measured just before and just after the interval."""
    return seconds * 2.0 * REFERENCE_S / (before + after)
