"""Process-wide metrics: counters and gauges.

One shared, thread-safe home for the counts no other record keeps,
with two exports (both per process: the kernel cache persists no
counts, its hits and misses across processes are the run ledger's):

* :meth:`MetricsRegistry.snapshot` — a JSON-able dict for
  ``limpet-bench metrics --json`` and tests;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  (``# TYPE``/``# HELP`` + samples) for ``--prom``.

Metric names follow Prometheus conventions (``*_total`` counters,
bare gauges).  Each fact is counted once: a failure the Diagnostics,
the run ledger, a returned report or a span already records gets no
second counter.  The set:

================================== ====================================
``kernel_cache_hits_total``        persistent kernel-cache hits
``kernel_cache_misses_total``      ... misses
``kernel_cache_evictions_total``   ... LRU evictions
``kernel_cache_corrupt_total``     corrupt cache entries quarantined
``cache_readonly_fallbacks_total`` persistent tiers whose root stopped
                                   being written (unwritable at start,
                                   failed mkdir, or a store raised
                                   OSError)
``pass_quarantines_total``         passes quarantined by the sandbox
``worker_restarts_total``          supervised workers killed and
                                   respawned (one per shard retry)
``degradations_total``             execution-tier downgrades taken
``supervised_workers``             gauge: live supervised worker
                                   processes
``population_instances``           gauge: instances per kernel call of
                                   the latest population run
``sweep_compile_reuse_total``      sweeps served by an already-compiled
                                   population kernel (same shape)
``artifact_hits_total``            kernels served by the AOT artifact
                                   tier
``artifact_misses_total``          artifact-tier lookups that fell
                                   through to JIT compilation
``artifact_stale_total``           bundle entries rejected/flagged
                                   because an input drifted (source,
                                   pipeline, lowering)
``artifact_corrupt_total``         bundle entries failing their checksum
                                   (audit quarantines them)
================================== ====================================

All mutation is lock-per-metric; creation is lock-on-registry.  The
increments sit on *cold* paths (construction, eviction, failure),
never inside the per-step hot loop.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

__all__ = ["Counter", "Gauge", "MetricsRegistry", "default_registry",
           "counter", "gauge", "snapshot", "to_prometheus", "reset"]


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

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> Dict[str, Any]:
        return {"type": "gauge", "help": self.help, "value": self._value}

    def _prometheus(self) -> List[str]:
        return [f"{self.name} {_format_value(self._value)}"]


def _format_value(value: float) -> str:
    return repr(float(value)) if value != int(value) else str(int(value))


class MetricsRegistry:
    """A named collection of metrics with get-or-create accessors."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls, help: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, requested {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The :class:`Counter` named ``name``.  Requesting a gauge's
        name is a :class:`TypeError` — silent aliasing would split
        counts."""
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def get(self, name: str):
        return self._metrics.get(name)

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


def counter(name: str, help: str = "") -> Counter:
    return _DEFAULT.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return _DEFAULT.gauge(name, help)


def snapshot() -> Dict[str, Dict[str, Any]]:
    return _DEFAULT.snapshot()


def to_prometheus() -> str:
    return _DEFAULT.to_prometheus()


def reset() -> None:
    _DEFAULT.reset()
