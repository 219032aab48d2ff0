"""Host-speed reference: a fixed kernel timed next to every operation.

The host shares its cores with other tenants, and its speed is not steady:
a pure-Python loop runs up to 1.9x slower at times, a BLAS-bound SVD
1.3-1.4x.  The slow spells come and go within milliseconds or seconds and
sometimes last for minutes, and every timing of starrep moves with them.
The kernel below (pure-Python dict work, small complex SVDs and products,
one tall SVD) does not touch starrep, so no change to the program changes
its time.  It is timed right before every operation; each operation's
latency is scaled by REF_S over the mean kernel time in a window around the
operation, so it reads as at the speed where the kernel takes REF_S.

Import this module after the BLAS thread variables are set; it keeps the
unwrapped numpy functions, so the tracer never sees the kernel.
"""
from __future__ import annotations

import time

import numpy as np

_svd = np.linalg.svd
_abs = np.abs

# the kernel's mean time while the reference machine runs at its fast level;
# a scaled latency is "ms at the speed where the kernel takes REF_S"
REF_S = 200e-6
# kernel runs this far before an operation's start or after its end count
# towards its speed: wide enough to average the millisecond flips, narrow
# enough to follow the slow spells
WINDOW_S = 0.5


class Pace:
    """Kernel runs in call order: when each ended and how long it took."""

    def __init__(self, runs: int = 1):
        """`runs` kernel runs make one sample; several where the operations
        are long and few, so that their window still holds enough runs."""
        rng = np.random.default_rng(0x9ACE)
        self._small = [rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
                       for _ in range(4)]
        self._tall = rng.standard_normal((48, 24)) + 1j * rng.standard_normal((48, 24))
        self.runs = runs
        self._end: list = []
        self.took: list = []
        for _ in range(20):  # warm caches and the allocator
            self._kernel()

    def _kernel(self) -> float:
        acc = 0.0
        for a in self._small:
            acc += float(_svd(a, compute_uv=False)[0])
            acc += float(_abs(a @ a.conj().T).sum())
        acc += float(_svd(self._tall, compute_uv=False)[0])
        d: dict = {}
        for i in range(240):
            d[i % 13] = d.get(i % 13, 0.0) + i * 0.5
        return acc + sum(d.values())

    def sample(self) -> None:
        for _ in range(self.runs):
            start = time.perf_counter()
            self._kernel()
            end = time.perf_counter()
            self._end.append(end)
            self.took.append(end - start)

    def level(self, runs: int = 10) -> float:
        """Mean kernel time over `runs` fresh runs, not recorded."""
        start = time.perf_counter()
        for _ in range(runs):
            self._kernel()
        return (time.perf_counter() - start) / runs

    def scales(self, spans) -> np.ndarray:
        """For each (start, end) of an operation, the factor that brings its
        latency to the reference speed: REF_S over the mean time of the kernel
        runs that ended within WINDOW_S of it.  A sample taken right before
        each operation keeps that window from being empty."""
        spans = np.asarray(spans, dtype=float).reshape(-1, 2)
        end = np.asarray(self._end)
        csum = np.concatenate(([0.0], np.cumsum(self.took)))
        lo = np.searchsorted(end, spans[:, 0] - WINDOW_S, side="left")
        hi = np.searchsorted(end, spans[:, 1] + WINDOW_S, side="right")
        return REF_S * (hi - lo) / (csum[hi] - csum[lo])


class Stopwatch:
    """Elapsed time at the reference speed, for the set-up: the kernel is timed
    at the start and at every `mark()`, and each stretch between two marks is
    scaled by the mean of the kernel times at its two ends.  The kernel's own
    time is left out."""

    def __init__(self, pace: Pace):
        self.pace = pace
        self.total = 0.0
        self._level = pace.level()
        self._start = time.perf_counter()

    def mark(self) -> None:
        end = time.perf_counter()
        level = self.pace.level()
        self.total += (end - self._start) * REF_S / (0.5 * (self._level + level))
        self._level = level
        self._start = time.perf_counter()
