"""Concrete :class:`~repro.ir.passes.PassInstrumentation` implementations.

The hook API lives in :mod:`repro.ir.passes.pass_manager` (so the IR
layer stays observability-free); this module provides the instruments
with a reader:

* :class:`TracePassInstrumentation` — one child span per pass on a
  :class:`~repro.obs.trace.Tracer`, carrying the change flag and the
  non-zero dialect deltas (``-mlir-timing``; what ``limpet-bench
  trace`` prints);
* :class:`IRSnapshotInstrumentation` — captures the printed pre-pass
  IR (what a sandbox reproducer's ``module.ir`` must equal).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir.core import Module
from ..ir.passes.pass_manager import Pass, PassInstrumentation
from ..ir.printer import print_module
from .trace import Span, Tracer

__all__ = ["count_ops_by_dialect", "op_count_delta",
           "TracePassInstrumentation", "IRSnapshotInstrumentation"]


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


class IRSnapshotInstrumentation(PassInstrumentation):
    """Captures the printed IR immediately before each pass.

    An ordinary instrument, attached by whoever wants the text: it
    prints the whole module per pass, which is why the
    :class:`~repro.resilience.sandbox.SandboxedPassManager` does not use
    it (it rebuilds the pre-pass module instead: re-emit or re-parse,
    then replay its journal).
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
