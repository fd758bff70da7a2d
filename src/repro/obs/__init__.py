"""Observability: trace spans, metrics, pass instrumentation, profiling.

The unified measurement layer of the reproduction (DESIGN.md §8):

* :mod:`repro.obs.trace` — nested wall-clock spans over the whole
  compile-and-run pipeline, exported as Chrome trace-event JSON and a
  plain-text tree (``limpet-bench trace``, ``$LIMPET_TRACE``);
* :mod:`repro.obs.metrics` — process-wide counters/gauges/histograms
  with JSON and Prometheus exports (``limpet-bench metrics``);
* :mod:`repro.obs.passes` — concrete
  :class:`~repro.ir.passes.PassInstrumentation` hooks (per-pass spans
  with op-count deltas, pre-pass IR snapshots);
* :mod:`repro.obs.profiler` — measured per-op kernel costs from
  profile-mode lowering: hot tables by op, dialect and cost class.

The fleet-telemetry additions (DESIGN.md §13):

* :mod:`repro.obs.flight` — the crash flight recorder: a bounded ring
  of recent spans/metric deltas/worker events, dumped as a black-box
  JSON file on worker death, degradation, quarantine, or unhandled
  exception (``limpet-bench flight``);
* :mod:`repro.obs.ledger` — the append-only run ledger at
  ``$LIMPET_LEDGER`` recording every compile/run/degradation
  (``limpet-bench ledger``).

Only modules that depend on nothing inside :mod:`repro` beyond
``obs`` itself are imported eagerly (any subsystem may import them
without cycles): ``trace``, ``metrics``, and ``flight`` (whose
listeners are installed here, so the black box records from process
start).  ``ledger`` defers its one runtime dependency (the advisory
file lock) to call time; ``passes`` and ``profiler`` are reached as
submodules.
"""

from . import metrics, trace
from . import flight, ledger
from .metrics import MetricsRegistry, default_registry
from .trace import (TraceContext, Tracer, activate, active_tracer,
                    deactivate, merge_files)

flight.install()

__all__ = ["metrics", "trace", "flight", "ledger", "MetricsRegistry",
           "default_registry", "TraceContext", "Tracer", "activate",
           "active_tracer", "deactivate", "merge_files"]
