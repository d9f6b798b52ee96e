"""A fixed reference kernel that gauges the machine's speed during a run.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes as other tenants load the same cores, caches and memory: the
same labeling of the same graph has measured 0.45 s in one minute and
0.85 s a few minutes later.  A run's own medians cannot remove drift
that lasts longer than the run, so every run also times this kernel,
which never changes, between its requests.  Its timings say how fast
the machine was while the requests ran: :meth:`Gauge.speed_at` turns
the timings nearest a request into the factor that scales the request's
wall time to what it would have been at the kernel's nominal speed
(``NOMINAL_S``).  Contention comes in bursts of a few seconds, so each
request is scaled by the speed around it, not by the run's average.

The kernel mixes what the labelings do: a random gather over a 32 MB
array, a stable sort, a scatter-count into a 32 MB histogram and a
short interpreted loop.  Its inputs come from a fixed seed, so they are
the same in every run and do not depend on the workload seed.
"""

from __future__ import annotations

import statistics
import time
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

#: The kernel's median time on a quiet 2-vCPU Xeon (2.0 GHz, 105 MB L3).
#: Only the scale of the reported times depends on it.
NOMINAL_S = 0.055
#: The kernel runs between requests once this long has passed since
#: it last started, so it costs about a tenth of a run.
EVERY_S = 0.5

_SIZE = 1 << 22


@lru_cache(maxsize=None)
def _inputs() -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(20140623)
    return rng.integers(0, _SIZE, size=_SIZE), rng.integers(0, _SIZE, size=_SIZE // 4)


def kernel_seconds() -> float:
    """Wall seconds of one run of the reference kernel."""
    values, index = _inputs()
    start = time.perf_counter()
    gathered = values[index]
    np.argsort(gathered[: _SIZE // 32], kind="stable")
    np.bincount(gathered, minlength=_SIZE)
    acc = 0
    for i in range(5000):
        acc += i & 7
    return time.perf_counter() - start


class Gauge:
    """Kernel timings taken between a run's requests."""

    def __init__(self) -> None:
        #: ``(perf_counter at start, kernel seconds)`` per timing.
        self.samples: List[Tuple[float, float]] = []

    def take(self) -> None:
        """Time the kernel once."""
        start = time.perf_counter()
        self.samples.append((start, kernel_seconds()))

    def maybe_take(self) -> None:
        """Time the kernel unless it started less than ``EVERY_S`` ago."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= EVERY_S:
            self.take()

    def speed(self) -> float:
        """The run's speed: nominal over median kernel time, below 1 if slow."""
        return NOMINAL_S / statistics.median(s for _, s in self.samples)

    def speed_at(self, starts: Sequence[float]) -> np.ndarray:
        """The speed around each start time.

        That is nominal over the median of three kernel timings: the last
        one taken before the start, the one before it and the one after.
        """
        taken = np.array([t for t, _ in self.samples])
        seconds = np.array([s for _, s in self.samples])
        last = np.searchsorted(taken, np.asarray(starts, dtype=float)) - 1
        window = np.clip(last[:, None] + np.arange(-1, 2), 0, taken.size - 1)
        return NOMINAL_S / np.median(seconds[window], axis=1)
