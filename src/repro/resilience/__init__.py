"""Resilient compile-and-run pipeline.

Four cooperating pieces keep a full 47-model sweep alive through
failing passes, unsupported models and diverging ODEs:

* :mod:`~repro.resilience.fallback` — backend fallback chain
  (``limpet_mlir -> icc_simd -> baseline``) with a structured
  diagnostic trail;
* :mod:`~repro.resilience.sandbox` — sandboxed pass manager with
  rollback, quarantine and on-disk reproducer bundles;
* :mod:`~repro.resilience.watchdog` — periodic NaN/Inf scans with
  checkpoint-and-retry (dt halving) inside
  :meth:`repro.runtime.KernelRunner.run`;
* :mod:`~repro.resilience.faultinject` — deterministic fault injection
  so all of the above is testable (``limpet-bench faults``).
"""

from .diagnostics import (LOGGER, Diagnostic, DivergenceEvent,
                          HealthReport, Severity, format_trail,
                          log_diagnostic)
from .fallback import (DEFAULT_CHAIN, ResilientCompileError,
                       ResilientKernel, compile_resilient)
from .faultinject import (FaultInjector, FaultPlan, InjectedFault,
                          corrupt_cache_entry, poison_state)
from .sandbox import (SandboxedPassManager, load_reproducer,
                      sandboxed_pipeline, write_reproducer)
from .watchdog import (POLICIES, NumericalDivergenceError,
                       NumericalWatchdog, WatchdogConfig)

__all__ = [
    "LOGGER", "Diagnostic", "DivergenceEvent", "HealthReport", "Severity",
    "format_trail", "log_diagnostic",
    "DEFAULT_CHAIN", "ResilientCompileError",
    "ResilientKernel", "compile_resilient", "FaultInjector", "FaultPlan",
    "InjectedFault", "corrupt_cache_entry", "poison_state",
    "SandboxedPassManager",
    "load_reproducer", "sandboxed_pipeline", "write_reproducer",
    "POLICIES", "NumericalDivergenceError",
    "NumericalWatchdog", "WatchdogConfig",
]
