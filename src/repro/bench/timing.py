"""Timing protocols: the paper's trimmed mean and a steady-state harness.

Two measurement disciplines live here:

* the paper's protocol (§4) — "Execution times were measured by running
  the models five times, eliminating the two extrema, and averaging the
  remaining three" (:func:`measure`/:func:`trimmed_mean`);
* a steady-state harness (:func:`steady_state`) for intra-process
  comparisons — warmup iterations first, then N repeats each taking the
  **min of ``inner`` back-to-back timings** (min rejects preemption
  noise; repeats capture drift), summarized as median + IQR over the
  repeats.  All clocks are ``time.perf_counter`` (monotonic);
  ``limpet-bench perf`` measures with this harness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

DEFAULT_RUNS = 5
DEFAULT_TRIMMED = 3

#: steady-state defaults
DEFAULT_WARMUP = 2
DEFAULT_REPEATS = 5
DEFAULT_INNER = 1


@dataclass
class TimingStats:
    """Summary of one steady-state measurement (seconds per repeat)."""

    samples: List[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        ordered = sorted(self.samples)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    @property
    def best(self) -> float:
        if not self.samples:
            raise ValueError("no samples")
        return min(self.samples)

    def _quartile(self, q: float) -> float:
        """Linear-interpolated quantile of the sorted samples."""
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    @property
    def iqr(self) -> float:
        """Interquartile range: the harness's noise estimate."""
        if not self.samples:
            raise ValueError("no samples")
        return self._quartile(0.75) - self._quartile(0.25)

    def as_dict(self) -> dict:
        return {"median": self.median, "best": self.best, "iqr": self.iqr,
                "samples": list(self.samples)}


def steady_state(fn: Callable[[], object],
                 warmup: int = DEFAULT_WARMUP,
                 repeats: int = DEFAULT_REPEATS,
                 inner: int = DEFAULT_INNER) -> TimingStats:
    """Steady-state timing of ``fn``: warmup, then median-of-min repeats.

    ``warmup`` untimed calls bring caches, allocators, and (for NumPy
    kernels) ufunc dispatch into steady state.  Each of the ``repeats``
    samples is the minimum over ``inner`` back-to-back timed calls.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    for _ in range(warmup):
        fn()
    stats = TimingStats()
    for _ in range(repeats):
        best = math.inf
        for _ in range(max(inner, 1)):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        stats.samples.append(best)
    return stats


def trimmed_mean(samples: Sequence[float],
                 keep: int = DEFAULT_TRIMMED) -> float:
    """Drop extrema symmetrically until ``keep`` samples remain; average.

    With the paper's 5 runs this removes the min and the max.
    """
    if not samples:
        raise ValueError("no samples to average")
    ordered = sorted(samples)
    keep = max(1, min(keep, len(ordered)))
    drop_total = len(ordered) - keep
    drop_low = drop_total // 2
    drop_high = drop_total - drop_low
    kept = ordered[drop_low:len(ordered) - drop_high]
    return sum(kept) / len(kept)


def measure(fn: Callable[[], object], runs: int = DEFAULT_RUNS,
            keep: int = DEFAULT_TRIMMED) -> float:
    """Time ``fn`` with the paper's 5-run / drop-2-extrema protocol."""
    samples: List[float] = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return trimmed_mean(samples, keep)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean, the paper's aggregate for speedups (§4)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
