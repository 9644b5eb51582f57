"""Machine-speed calibration.

The host is shared, and its speed drifts by tens of percent over seconds
to minutes, for every kind of work alike.  A fixed kernel that does not
touch aucmax (interpreter loop, small and medium numpy operations, an FFT
and a memory sweep, the same mix as the workloads) runs between commands.
Times are reported rescaled to the speed at which the kernel takes
``REFERENCE_S``: ``wall * REFERENCE_S / median(kernel times of the run)``.
The raw wall times are kept in the run's report.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.017          # kernel time on a quiet 2-core Xeon (Sapphire Rapids, 1 BLAS thread)


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._tall = rng.standard_normal((2400, 21))
        self._vec = rng.standard_normal(21)
        self._square = rng.standard_normal((200, 200))
        self._signal = rng.standard_normal((32, 8064))
        self._big = rng.standard_normal(1_000_000)
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(40_000):
            total += i * i
        for _ in range(300):
            self._tall @ self._vec
        for _ in range(4):
            self._square @ self._square
        np.fft.irfft(np.fft.rfft(self._signal, axis=-1), n=8064, axis=-1)
        for _ in range(4):
            self._big.sum()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self, samples=None) -> float:
        """Multiply a wall time by this to express it at reference speed;
        ``samples`` defaults to all taken so far."""
        return REFERENCE_S / statistics.median(self.samples if samples is None else samples)
