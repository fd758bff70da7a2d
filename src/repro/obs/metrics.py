"""Process-wide metrics: counters, gauges, histograms.

The subsystems each grew private counters (``CacheStats`` in the
kernel cache, ``hits/misses`` on the LUT cache, ``retries`` on the
watchdog report); this registry gives them one shared, thread-safe
home with two exports (both per process: the kernel cache persists no
counts, its hits and misses across processes are the run ledger's):

* :meth:`MetricsRegistry.snapshot` — a JSON-able dict for
  ``limpet-bench metrics --json`` and tests;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  (``# TYPE``/``# HELP`` + samples) for ``--prom``.

Metric names follow Prometheus conventions (``*_total`` counters,
bare gauges).  The canonical set, wired in this PR:

==============================  =======================================
``kernel_cache_hits_total``     persistent kernel-cache hits
``kernel_cache_misses_total``   ... misses
``kernel_cache_evictions_total`` ... LRU evictions
``fallback_tier_skips_total``   backend tiers skipped by the chain
``pass_quarantines_total``      passes quarantined by the sandbox
``sandbox_replays_total``       sandbox rollbacks replayed from the
                                checkpoint
``watchdog_nan_events_total``   NaN/Inf detections by the watchdog
``watchdog_retries_total``      checkpoint rollbacks (dt halving)
``shard_count``                 gauge: shards of the latest shard plan
``shard_imbalance_ratio``       gauge: max/mean shard size
``worker_restarts_total``       supervised workers killed + respawned
``shard_retries_total``         shard tasks re-dispatched after failure
``degradations_total``          execution-tier downgrades taken
``supervised_workers``          gauge: live supervised worker processes
``kernel_cache_corrupt_total``  corrupt cache entries quarantined
``population_instances``        gauge: instances per kernel call of the
                                latest population run
``sweep_compile_reuse_total``   sweeps served by an already-compiled
                                population kernel (same shape)
``artifact_hits_total``         kernels served by the AOT artifact tier
``artifact_misses_total``       artifact-tier lookups that fell through
                                to JIT compilation
``artifact_stale_total``        bundle entries rejected/flagged because
                                an input drifted (source, pipeline,
                                lowering)
``artifact_corrupt_total``      bundle entries failing their checksum
                                (audit quarantines them)
``artifact_build_seconds``      histogram: per-kernel ``build-all``
                                compile time
``cache_readonly_fallbacks_total`` persistent tiers whose root
                                stopped being written (unwritable
                                at start, failed mkdir, or a store
                                raised OSError)
==============================  =======================================

All mutation is lock-per-metric; creation is lock-on-registry.  The
increments sit on *cold* paths (construction, eviction, divergence),
never inside the per-step hot loop.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Counter", "LabeledCounter", "Gauge", "Histogram",
           "MetricsRegistry", "default_registry", "counter", "gauge",
           "histogram", "snapshot", "to_prometheus", "reset"]

#: default histogram buckets: wall-time seconds, log-spaced
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def _snapshot(self) -> Dict[str, Any]:
        return {"type": "counter", "help": self.help, "value": self._value}

    def _prometheus(self) -> List[str]:
        return [f"{self.name} {self._value}"]


class _LabeledChild:
    """One labeled series of a :class:`LabeledCounter`."""

    __slots__ = ("_parent", "_key")

    def __init__(self, parent: "LabeledCounter", key: str):
        self._parent = parent
        self._key = key

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self._parent.name}: negative increment")
        with self._parent._lock:
            self._parent._series[self._key] = \
                self._parent._series.get(self._key, 0) + amount

    @property
    def value(self) -> int:
        return self._parent._series.get(self._key, 0)


class LabeledCounter:
    """A counter fanned out over label sets (Prometheus-style).

    ``counter("worker_failures_total", labelnames=("shard", "reason"))``
    returns one of these; ``.labels(shard="2", reason="deadline").inc()``
    bumps the matching series.  ``value`` sums every series, so code
    that only knows the unlabeled convention still reads a total.
    """

    kind = "counter"
    __slots__ = ("name", "help", "labelnames", "_series", "_lock")

    def __init__(self, name: str, help: str = "",
                 labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: Dict[str, int] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: Any) -> _LabeledChild:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"counter {self.name!r} takes labels "
                f"{self.labelnames}, got {tuple(sorted(labels))}")
        key = ",".join(f'{k}="{_escape(str(labels[k]))}"'
                       for k in self.labelnames)
        return _LabeledChild(self, key)

    def inc(self, amount: int = 1, **labels: Any) -> None:
        self.labels(**labels).inc(amount)

    @property
    def value(self) -> int:
        with self._lock:
            return sum(self._series.values())

    def series(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._series)

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            series = dict(self._series)
        return {"type": "counter", "help": self.help,
                "labels": list(self.labelnames),
                "value": sum(series.values()), "series": series}

    def _prometheus(self) -> List[str]:
        with self._lock:
            series = sorted(self._series.items())
        return [f"{self.name}{{{key}}} {count}" for key, count in series]


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


class Gauge:
    """A value that goes up and down."""

    kind = "gauge"
    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "help": self.help, "value": self._value}

    def _prometheus(self) -> List[str]:
        return [f"{self.name} {_format_value(self._value)}"]


class Histogram:
    """Cumulative-bucket histogram of observed values."""

    kind = "histogram"
    __slots__ = ("name", "help", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._counts = [0] * len(self.buckets)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[i] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def _snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"type": "histogram", "help": self.help,
                    "count": self._count, "sum": self._sum,
                    "min": self._min, "max": self._max,
                    "buckets": {_format_value(b): c for b, c
                                in zip(self.buckets, self._counts)}}

    def _prometheus(self) -> List[str]:
        with self._lock:
            lines = [f'{self.name}_bucket{{le="{_format_value(b)}"}} {c}'
                     for b, c in zip(self.buckets, self._counts)]
            lines.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
            lines.append(f"{self.name}_sum {_format_value(self._sum)}")
            lines.append(f"{self.name}_count {self._count}")
            return lines


def _format_value(value: float) -> str:
    return repr(float(value)) if value != int(value) else str(int(value))


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, requested {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "",
                labelnames: Optional[Sequence[str]] = None):
        """A plain :class:`Counter`, or a :class:`LabeledCounter` when
        ``labelnames`` is given.  Requesting the same name with a
        different shape (labeled vs plain, or different label names)
        is a :class:`TypeError` — silent aliasing would split counts."""
        if labelnames is None:
            return self._get_or_create(name, Counter, help)
        metric = self._get_or_create(name, LabeledCounter, help,
                                     labelnames=labelnames)
        if metric.labelnames != tuple(labelnames):
            raise TypeError(
                f"metric {name!r} already registered with labels "
                f"{metric.labelnames}, requested {tuple(labelnames)}")
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(name, Histogram, help, buckets=buckets)

    def get(self, name: str):
        return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def reset(self) -> None:
        """Drop every metric (tests; process start state)."""
        with self._lock:
            self._metrics.clear()

    # -- export -------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """JSON-able view of every metric."""
        with self._lock:
            metrics = dict(self._metrics)
        return {name: metrics[name]._snapshot() for name in sorted(metrics)}

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        with self._lock:
            metrics = dict(self._metrics)
        lines: List[str] = []
        for name in sorted(metrics):
            metric = metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric._prometheus())
        return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# The process-default registry and module-level conveniences
# ---------------------------------------------------------------------------

_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    return _DEFAULT


def counter(name: str, help: str = "",
            labelnames: Optional[Sequence[str]] = None):
    return _DEFAULT.counter(name, help, labelnames=labelnames)


def gauge(name: str, help: str = "") -> Gauge:
    return _DEFAULT.gauge(name, help)


def histogram(name: str, help: str = "",
              buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
    return _DEFAULT.histogram(name, help, buckets=buckets)


def snapshot() -> Dict[str, Dict[str, Any]]:
    return _DEFAULT.snapshot()


def to_prometheus() -> str:
    return _DEFAULT.to_prometheus()


def reset() -> None:
    _DEFAULT.reset()
