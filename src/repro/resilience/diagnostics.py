"""Structured diagnostics for the resilient compile-and-run pipeline.

Every recovery action the resilience layer takes — a backend tier
skipped, a pass quarantined, a run rolled back to a checkpoint — is
recorded as a :class:`Diagnostic` instead of (or in addition to) an
exception.  A bench sweep over the full 47-model suite then finishes
with a per-model diagnostic trail rather than dying on the first
failing model, mirroring how production compiler stacks (NMODL's
per-backend fallback paths, MLIR's transform-level verification)
degrade gracefully.
"""

from __future__ import annotations

import enum
import logging
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: every resilience diagnostic is also emitted on this logger, so user
#: logging config (handlers, levels, formatters) sees the trail without
#: touching the structured API; the NullHandler keeps an unconfigured
#: process quiet (the CLI renders trails itself via ``format_trail``)
LOGGER = logging.getLogger("repro.resilience")
LOGGER.addHandler(logging.NullHandler())


class Severity(enum.Enum):
    """How bad one diagnostic is."""

    INFO = "info"          # normal operation worth recording
    WARNING = "warning"    # recovered: a fallback or retry succeeded
    ERROR = "error"        # unrecovered: a tier/pass/run was abandoned

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class Diagnostic:
    """One structured record of a resilience decision.

    ``stage`` names the pipeline layer (``compile``, ``pass``, ``verify``,
    ``run``); ``component`` the specific backend, pass, or array involved.
    """

    stage: str
    component: str
    message: str
    severity: Severity = Severity.WARNING
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    data: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_exception(cls, stage: str, component: str, exc: BaseException,
                       severity: Severity = Severity.WARNING,
                       with_traceback: bool = True,
                       **data: Any) -> "Diagnostic":
        tb = None
        if with_traceback:
            tb = "".join(_traceback.format_exception(
                type(exc), exc, exc.__traceback__))
        return cls(stage=stage, component=component, message=str(exc),
                   severity=severity, error_type=type(exc).__name__,
                   traceback=tb, data=dict(data))

    def to_dict(self) -> Dict[str, Any]:
        return {"stage": self.stage, "component": self.component,
                "message": self.message, "severity": self.severity.value,
                "error_type": self.error_type, "traceback": self.traceback,
                "data": dict(self.data)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Diagnostic":
        return cls(stage=payload["stage"], component=payload["component"],
                   message=payload["message"],
                   severity=Severity(payload.get("severity", "warning")),
                   error_type=payload.get("error_type"),
                   traceback=payload.get("traceback"),
                   data=dict(payload.get("data") or {}))

    def describe(self) -> str:
        """One human-readable line, CLI/report friendly."""
        kind = f" [{self.error_type}]" if self.error_type else ""
        return (f"{self.severity.value:<7} {self.stage}/{self.component}"
                f"{kind}: {self.message}")


_LOG_LEVELS = {Severity.INFO: logging.INFO,
               Severity.WARNING: logging.WARNING,
               Severity.ERROR: logging.ERROR}


def log_diagnostic(diag: Diagnostic) -> Diagnostic:
    """Emit ``diag`` on the ``repro.resilience`` logger and the active
    trace, then return it (so call sites can append the same object to
    their structured trail — the trail API is unchanged).

    Severity maps onto logging levels (INFO/WARNING/ERROR); the trace
    export is an instant event on the current span carrying ``data``
    too, so recovery decisions show up inline in ``chrome://tracing``
    timelines with where they happened.
    """
    kind = f" [{diag.error_type}]" if diag.error_type else ""
    LOGGER.log(_LOG_LEVELS.get(diag.severity, logging.WARNING),
               "%s/%s%s: %s", diag.stage, diag.component, kind,
               diag.message)
    from ..obs import trace as _trace
    _trace.instant(f"diagnostic:{diag.stage}/{diag.component}",
                   **diag.data, severity=diag.severity.value,
                   message=diag.message, error_type=diag.error_type)
    return diag


@dataclass
class DivergenceEvent:
    """One NaN/Inf detection by the numerical watchdog."""

    step: int                       # steps completed when detected
    time: float                     # simulation time at detection
    dt: float                       # dt in effect when it happened
    arrays: List[str]               # which state/external arrays diverged
    action: str = "detected"        # detected | rolled_back | aborted

    def to_dict(self) -> Dict[str, Any]:
        return {"step": self.step, "time": self.time, "dt": self.dt,
                "arrays": list(self.arrays), "action": self.action}


@dataclass
class HealthReport:
    """Per-run numerical health, produced by the watchdog.

    ``ok`` means the run finished with finite state; ``retries`` counts
    checkpoint rollbacks taken (dt-halving policy); ``aborted`` is set
    by the ``abort_cell_report`` policy when divergence persisted.
    """

    policy: str
    initial_dt: float
    final_dt: float = 0.0
    checks: int = 0
    retries: int = 0
    ok: bool = True
    aborted: bool = False
    events: List[DivergenceEvent] = field(default_factory=list)
    diverged_cells: List[int] = field(default_factory=list)
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def nan_events(self) -> int:
        return len(self.events)

    def to_dict(self) -> Dict[str, Any]:
        return {"policy": self.policy, "initial_dt": self.initial_dt,
                "final_dt": self.final_dt, "checks": self.checks,
                "retries": self.retries, "ok": self.ok,
                "aborted": self.aborted,
                "events": [e.to_dict() for e in self.events],
                "diverged_cells": list(self.diverged_cells),
                "diagnostics": [d.to_dict() for d in self.diagnostics]}

    def summary(self) -> str:
        status = "ok" if self.ok else ("aborted" if self.aborted
                                       else "diverged")
        line = (f"health: {status} | policy={self.policy} "
                f"checks={self.checks} nan_events={self.nan_events} "
                f"retries={self.retries} dt {self.initial_dt:g}")
        if self.final_dt and self.final_dt != self.initial_dt:
            line += f" -> {self.final_dt:g}"
        if self.diverged_cells:
            shown = ", ".join(str(c) for c in self.diverged_cells[:8])
            more = ("..." if len(self.diverged_cells) > 8 else "")
            line += f" | diverged cells: {shown}{more}"
        return line


def format_trail(diagnostics: List[Diagnostic]) -> str:
    """Render a diagnostic trail as an indented block."""
    if not diagnostics:
        return "(no diagnostics)"
    return "\n".join("  " + d.describe() for d in diagnostics)
