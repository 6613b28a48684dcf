"""Machine-speed normalisation for timings taken on a shared, drifting host.

On a shared 2-core host the same code runs up to ~1.8x slower for tens of
seconds at a time, and the slowdown hits a fixed reference kernel by the
same factor as it hits fedkg (their ratio stays within a few per cent while
raw times swing). So the benchmark runs the kernel at call boundaries of
the workload, at most every PERIOD_S seconds, and rescales each timed
interval to the speed at which the kernel takes KERNEL_REF_S:

    normalised = (wall - kernel time inside the interval) * KERNEL_REF_S / kernel_s

piece by piece between samples, where kernel_s is the median of the
NEAREST kernel samples around the piece (a fixed count, so the estimate is
as steady where samples are sparse, between long rounds, as where they are
dense, inside an evaluation pass). The kernel draws from its own generator,
never from fedkg's.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

KERNEL_REF_S = 0.001  # the kernel's time on a quiet host of the reference kind
PERIOD_S = 0.05
NEAREST = 7  # samples behind each speed estimate


def kernel() -> float:
    """Fixed interpreter-plus-small-numpy work, the same mix as fedkg's hot paths."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((16, 16))
    acc: dict[int, float] = {}
    for _ in range(100):
        v = rng.integers(0, 50, size=4)
        x = m @ rng.standard_normal(16)
        acc[int(v[0])] = acc.get(int(v[0]), 0.0) + float(x.sum())
    return sum(acc.values())


class SpeedProbe:
    """Samples the kernel when poked (at most every PERIOD_S) and rescales intervals."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, kernel seconds)
        self.busy: list[tuple[float, float]] = []  # kernel intervals, excluded from timings
        self._last = -float("inf")

    def run(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.busy.append((start, end))
        self._last = end

    def poke(self) -> None:
        if time.perf_counter() - self._last >= PERIOD_S:
            self.run()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over the samples inside [start, end], or the NEAREST to it."""
        times = [t for t, _ in self.samples]  # appended in time order
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        if hi - lo < NEAREST:
            mid = (start + end) / 2
            pool = self.samples[max(0, lo - NEAREST):hi + NEAREST]
            near = sorted(pool, key=lambda s: abs(s[0] - mid))[:NEAREST]
        else:
            near = self.samples[lo:hi]
        if not near:
            raise ValueError("no speed samples taken")
        return statistics.median(k for _, k in near)

    def busy_s(self, start: float, end: float) -> float:
        return sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.busy)

    def normalise(self, start: float, end: float) -> float:
        """Seconds [start, end] would take at reference speed, kernel runs excluded.

        Speed can change within a long interval, so it is cut at every sample
        and each piece is rescaled by the speed around it.
        """
        edges = [start] + sorted(t for t, _ in self.samples if start < t < end) + [end]
        return sum((b - a - self.busy_s(a, b)) * KERNEL_REF_S / self.kernel_s(a, b)
                   for a, b in zip(edges, edges[1:]))
