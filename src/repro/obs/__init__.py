"""Observability: trace spans, metrics, pass instrumentation, profiling.

The unified measurement layer of the reproduction (DESIGN.md §8):

* :mod:`repro.obs.trace` — nested wall-clock spans over the whole
  compile-and-run pipeline, exported as Chrome trace-event JSON and a
  plain-text tree (``limpet-bench trace``, ``$LIMPET_TRACE``); forked
  supervised workers stream their spans into the parent's one trace;
* :mod:`repro.obs.metrics` — process-wide counters and gauges
  with JSON and Prometheus exports (``limpet-bench metrics``);
* :mod:`repro.obs.passes` — concrete
  :class:`~repro.ir.passes.PassInstrumentation` hooks (per-pass spans
  with op-count deltas, pre-pass IR snapshots);
* :mod:`repro.obs.profiler` — measured per-op kernel costs from
  profile-mode lowering: hot tables by op, dialect and cost class.

The fleet-telemetry addition (DESIGN.md §13):

* :mod:`repro.obs.ledger` — the append-only run ledger at
  ``$LIMPET_LEDGER`` recording every compile/run/degradation and
  worker restart (``limpet-bench ledger``).

Only modules that depend on nothing inside :mod:`repro` beyond
``obs`` itself are imported eagerly (any subsystem may import them
without cycles): ``trace``, ``metrics`` and ``ledger``, which defers
its one runtime dependency (the advisory file lock) to call time.
``passes`` and ``profiler`` are reached as submodules.
"""

from . import ledger, metrics, trace
from .metrics import MetricsRegistry, default_registry
from .trace import TraceContext, Tracer, activate, active_tracer, deactivate

__all__ = ["metrics", "trace", "ledger", "MetricsRegistry",
           "default_registry", "TraceContext", "Tracer", "activate",
           "active_tracer", "deactivate"]
