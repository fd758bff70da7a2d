"""Pass infrastructure: a fixed-point pass manager with statistics.

limpetMLIR relies on MLIR's in-tree passes (the paper singles out loop
invariant code motion and common subexpression elimination); this
module provides the pipeline plumbing and :mod:`repro.ir.passes`
provides those passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core import Module
from ..verifier import verify_module


class Pass:
    """Base class: subclasses set ``name`` and implement ``run``."""

    name: str = "<unnamed>"
    #: bump when a pass's transformation changes semantics/output — the
    #: persistent kernel cache keys on every pass's (name, version)
    version: int = 1

    def run(self, module: Module) -> bool:
        """Transform ``module`` in place; return True if anything changed."""
        raise NotImplementedError


class PassInstrumentation:
    """Observation hooks fired around every pass execution.

    The analog of MLIR's ``PassInstrumentation``: attach instances via
    :meth:`PassManager.add_instrumentation` and they see every pass the
    manager (or its sandboxed subclass) runs.  Hooks must not mutate
    the module; concrete implementations (op-count deltas, trace spans,
    ``--print-ir-after-all``-style dumps, pre-pass IR snapshots) live
    in :mod:`repro.obs.passes`.
    """

    def before_pass(self, pass_: Pass, module: Module) -> None:
        """Fired immediately before ``pass_.run(module)``."""

    def after_pass(self, pass_: Pass, module: Module, changed: bool,
                   seconds: float) -> None:
        """Fired after a successful run (before per-pass verification)."""

    def on_pass_error(self, pass_: Pass, module: Module,
                      error: BaseException, seconds: float) -> None:
        """Fired when a pass raised or verification rejected its output
        (only reachable under the sandboxed manager, which contains the
        failure; the plain manager propagates the exception)."""


@dataclass
class PassStatistics:
    """Per-pass bookkeeping accumulated by the pass manager."""

    runs: int = 0
    changed: int = 0
    seconds: float = 0.0


class PassManager:
    """Runs a pipeline of passes, optionally to a fixed point."""

    def __init__(self, passes: Optional[List[Pass]] = None,
                 verify_each: bool = True, max_iterations: int = 8):
        self.passes: List[Pass] = list(passes or [])
        self.verify_each = verify_each
        self.max_iterations = max_iterations
        self.statistics: Dict[str, PassStatistics] = {}
        self.instrumentations: List[PassInstrumentation] = []

    def add(self, pass_: Pass) -> "PassManager":
        self.passes.append(pass_)
        return self

    def add_instrumentation(self, instr: PassInstrumentation
                            ) -> "PassManager":
        self.instrumentations.append(instr)
        return self

    # -- instrumentation fan-out (shared with the sandboxed subclass) ---------------

    def _notify_before(self, pass_: Pass, module: Module) -> None:
        for instr in self.instrumentations:
            instr.before_pass(pass_, module)

    def _notify_after(self, pass_: Pass, module: Module, changed: bool,
                      seconds: float) -> None:
        for instr in self.instrumentations:
            instr.after_pass(pass_, module, changed, seconds)

    def _notify_error(self, pass_: Pass, module: Module,
                      error: BaseException, seconds: float) -> None:
        for instr in self.instrumentations:
            instr.on_pass_error(pass_, module, error, seconds)

    def fingerprint(self) -> str:
        """A stable content-address of this pipeline's behaviour.

        Any change to the pass list, a pass version, or the iteration
        budget yields a different string, so the persistent kernel
        cache (and the AOT artifact bundles) can never serve a kernel
        produced by a different pipeline.  ``verify_each`` is
        deliberately NOT part of the fingerprint: per-pass verification
        only checks the module, it never transforms it, so the plain
        and sandboxed default pipelines produce identical IR and must
        share one content address.
        """
        stages = ",".join(f"{p.name}@{getattr(p, 'version', 1)}"
                          for p in self.passes)
        return f"[{stages}];iters={self.max_iterations}"

    def run(self, module: Module, fixed_point: bool = False,
            rebuild: Optional[Callable[[], Module]] = None) -> bool:
        """Run the pipeline once (or until stable); return overall change.

        ``rebuild``, when given, builds ``module`` again as it is now; a
        manager that rolls a failed pass back reads it, this one lets
        the failure propagate and ignores it."""
        any_change = False
        for _ in range(self.max_iterations if fixed_point else 1):
            round_change = False
            for pass_ in self.passes:
                stats = self.statistics.setdefault(pass_.name,
                                                   PassStatistics())
                if self.instrumentations:
                    self._notify_before(pass_, module)
                start = time.perf_counter()
                try:
                    changed = pass_.run(module)
                except BaseException as error:
                    if self.instrumentations:
                        self._notify_error(pass_, module, error,
                                           time.perf_counter() - start)
                    raise
                seconds = time.perf_counter() - start
                stats.seconds += seconds
                stats.runs += 1
                if changed:
                    stats.changed += 1
                    round_change = True
                if self.instrumentations:
                    self._notify_after(pass_, module, changed, seconds)
                if self.verify_each:
                    verify_module(module)
            any_change = any_change or round_change
            if not round_change:
                break
        return any_change

    def summary(self) -> str:
        lines = ["pass               runs  changed  seconds"]
        for name, stats in self.statistics.items():
            lines.append(f"{name:<18} {stats.runs:>4} {stats.changed:>8} "
                         f"{stats.seconds:>8.4f}")
        return "\n".join(lines)


def default_pipeline(verify_each: bool = True) -> PassManager:
    """The pipeline limpetMLIR applies to every generated module.

    canonicalize (fold + simplify) -> CSE -> LICM -> DCE, run to a fixed
    point, matching the in-tree MLIR pipeline the paper uses.
    """
    from .canonicalize import Canonicalize
    from .cse import CSE
    from .licm import LICM
    from .dce import DCE
    return PassManager([Canonicalize(), CSE(), LICM(), DCE()],
                       verify_each=verify_each)
