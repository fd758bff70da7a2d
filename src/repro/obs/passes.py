"""Concrete :class:`~repro.ir.passes.PassInstrumentation` implementations.

The hook API lives in :mod:`repro.ir.passes.pass_manager` (so the IR
layer stays observability-free); this module provides the standard
instruments, mirroring upstream MLIR's tooling:

* :class:`OpCountInstrumentation` — per-pass op-count deltas by
  dialect (the ``-mlir-print-op-stats`` analog);
* :class:`TracePassInstrumentation` — one child span per pass on a
  :class:`~repro.obs.trace.Tracer`, carrying the change flag and the
  non-zero dialect deltas (``-mlir-timing``);
* :class:`PrintIRInstrumentation` — IR dumps after every pass or only
  after changing passes (``-print-ir-after-all`` /
  ``-print-ir-after-change``);
* :class:`IRSnapshotInstrumentation` — captures the printed pre-pass
  IR (what a sandbox reproducer's ``module.ir`` must equal);
* :class:`MetricsPassInstrumentation` — per-pass wall time into the
  ``pass_seconds`` histogram of the metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..ir.core import Module
from ..ir.passes.pass_manager import Pass, PassInstrumentation
from ..ir.printer import print_module
from . import metrics as _metrics
from .trace import Span, Tracer

__all__ = ["count_ops_by_dialect", "op_count_delta", "PassOpCounts",
           "OpCountInstrumentation", "TracePassInstrumentation",
           "PrintIRInstrumentation", "IRSnapshotInstrumentation",
           "MetricsPassInstrumentation"]


def count_ops_by_dialect(module: Module) -> Dict[str, int]:
    """Operation counts of ``module`` keyed by dialect prefix."""
    counts: Dict[str, int] = {}
    for op in module.walk():
        dialect = op.dialect
        counts[dialect] = counts.get(dialect, 0) + 1
    return counts


def op_count_delta(before: Dict[str, int],
                   after: Dict[str, int]) -> Dict[str, int]:
    """Non-zero per-dialect count changes (after - before)."""
    delta: Dict[str, int] = {}
    for dialect in set(before) | set(after):
        diff = after.get(dialect, 0) - before.get(dialect, 0)
        if diff:
            delta[dialect] = diff
    return delta


@dataclass
class PassOpCounts:
    """One pass execution's op-count record."""

    pass_name: str
    changed: bool
    seconds: float
    before: Dict[str, int] = field(default_factory=dict)
    after: Dict[str, int] = field(default_factory=dict)

    @property
    def delta(self) -> Dict[str, int]:
        return op_count_delta(self.before, self.after)

    @property
    def total_delta(self) -> int:
        return sum(self.after.values()) - sum(self.before.values())


class OpCountInstrumentation(PassInstrumentation):
    """Records per-pass op-count deltas by dialect, in execution order."""

    def __init__(self):
        self.records: List[PassOpCounts] = []
        self._before: Optional[Dict[str, int]] = None

    def before_pass(self, pass_: Pass, module: Module) -> None:
        self._before = count_ops_by_dialect(module)

    def after_pass(self, pass_: Pass, module: Module, changed: bool,
                   seconds: float) -> None:
        self.records.append(PassOpCounts(
            pass_name=pass_.name, changed=changed, seconds=seconds,
            before=self._before or {},
            after=count_ops_by_dialect(module)))
        self._before = None

    def on_pass_error(self, pass_: Pass, module: Module,
                      error: BaseException, seconds: float) -> None:
        # the module was rolled back: before == after by construction
        before = self._before or {}
        self.records.append(PassOpCounts(
            pass_name=pass_.name, changed=False, seconds=seconds,
            before=before, after=dict(before)))
        self._before = None

    def summary(self) -> str:
        lines = [f"{'pass':<16} {'changed':<8} {'Δops':>6}  delta"]
        for rec in self.records:
            inner = ",".join(f"{d}{n:+d}"
                             for d, n in sorted(rec.delta.items()))
            lines.append(f"{rec.pass_name:<16} {str(rec.changed):<8} "
                         f"{rec.total_delta:>+6d}  [{inner}]")
        return "\n".join(lines)


class TracePassInstrumentation(PassInstrumentation):
    """One child span per pass under the tracer's current span.

    The span args carry ``changed``, the non-zero per-dialect op-count
    delta (``op_delta``), and the post-pass op total — the trace-level
    equivalent of MLIR's ``-mlir-timing`` nested pipeline tree.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._open: List[Tuple[Span, Dict[str, int]]] = []

    def before_pass(self, pass_: Pass, module: Module) -> None:
        span = self.tracer.begin(f"pass:{pass_.name}", "pass")
        self._open.append((span, count_ops_by_dialect(module)))

    def after_pass(self, pass_: Pass, module: Module, changed: bool,
                   seconds: float) -> None:
        if not self._open:
            return
        span, before = self._open.pop()
        after = count_ops_by_dialect(module)
        self.tracer.end(span, changed=changed,
                        op_delta=op_count_delta(before, after),
                        ops_after=sum(after.values()))

    def on_pass_error(self, pass_: Pass, module: Module,
                      error: BaseException, seconds: float) -> None:
        if not self._open:
            return
        span, _ = self._open.pop()
        self.tracer.end(span, changed=False, error=type(error).__name__)


class PrintIRInstrumentation(PassInstrumentation):
    """IR dumps after passes, à la ``-print-ir-after-all``.

    ``after_all=False`` restricts dumps to passes that reported a
    change (``-print-ir-after-change``).  ``sink`` receives each dump
    (default: collect on :attr:`dumps`).
    """

    def __init__(self, after_all: bool = True,
                 sink: Optional[Callable[[str], None]] = None):
        self.after_all = after_all
        self.dumps: List[Tuple[str, str]] = []
        self._sink = sink

    def after_pass(self, pass_: Pass, module: Module, changed: bool,
                   seconds: float) -> None:
        if not (self.after_all or changed):
            return
        text = (f"// -----// IR dump after {pass_.name} "
                f"(changed={changed}) //----- //\n"
                + print_module(module))
        self.dumps.append((pass_.name, text))
        if self._sink is not None:
            self._sink(text)


class IRSnapshotInstrumentation(PassInstrumentation):
    """Captures the printed IR immediately before each pass.

    An ordinary instrument, attached by whoever wants the text: it
    prints the whole module per pass, which is why the
    :class:`~repro.resilience.sandbox.SandboxedPassManager` does not use
    it (it rebuilds the pre-pass module from one checkpoint instead).
    :attr:`last` is the latest capture; ``keep_history=True``
    additionally retains every ``(pass_name, ir_text)`` pair — the
    reference the sandbox's rollback is tested against.
    """

    def __init__(self, keep_history: bool = False):
        self.last: Optional[str] = None
        self.keep_history = keep_history
        self.history: List[Tuple[str, str]] = []

    def before_pass(self, pass_: Pass, module: Module) -> None:
        self.last = print_module(module)
        if self.keep_history:
            self.history.append((pass_.name, self.last))


class MetricsPassInstrumentation(PassInstrumentation):
    """Feeds per-pass wall time into the process metrics registry."""

    def __init__(self, registry=None):
        self._registry = registry or _metrics.default_registry()

    def after_pass(self, pass_: Pass, module: Module, changed: bool,
                   seconds: float) -> None:
        self._registry.counter(
            "pass_runs_total", "pass executions").inc()
        self._registry.histogram(
            "pass_seconds", "per-pass wall time (s)").observe(seconds)
