"""Sandboxed pass execution: run -> verify -> journal; rebuild + replay.

MLIR's structured-codegen line of work keeps long pass pipelines sound
by verifying after each transform; this module goes one step further
the way a production driver must: when a pass either raises or leaves
the module in a state the verifier rejects, the module is **rolled
back** to what the pass was given, the pass is **quarantined** for the
remainder of the pipeline, and a **reproducer bundle** (pre-pass IR +
pass name + traceback) is written to disk so the failure can be
replayed offline.

Rollback is a replay, not a stored snapshot: every invocation that ran
and verified goes into a **journal**, and a failure rebuilds the module
the pipeline was given, then re-runs the journal.  The rebuild re-emits
or re-parses.  A module fresh from its emitter (what every compile
through a runner runs) is emitted again, so the compile that never
fails, which is every zoo model, prints nothing.  A bare module is
printed once, on entry (the **checkpoint**), and re-parsed.  The
per-pass ``verify_module`` stays, including after a pass that reports
no change.

The bundle layout::

    <reproducer_dir>/<pass>-<n>/
        module.ir       # the generic-form IR the pass was given
        meta.json       # pass name, error type/message, pipeline position
        traceback.txt   # the full Python traceback

The bundle round-trips through :func:`load_reproducer`, which re-parses
``module.ir`` into a fresh :class:`~repro.ir.core.Module`.
"""

from __future__ import annotations

import functools
import json
import pathlib
import time
import traceback as _traceback
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..ir.core import Module
from ..ir.parser import parse_module
from ..ir.passes.pass_manager import (Pass, PassManager, PassStatistics,
                                      default_pipeline)
from ..ir.printer import print_module
from ..ir.verifier import VerificationError, verify_module
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .diagnostics import Diagnostic, Severity, log_diagnostic


def write_reproducer(directory: pathlib.Path, pass_name: str,
                     ir_text: str, error: BaseException,
                     position: int = 0) -> pathlib.Path:
    """Write one reproducer bundle; returns the bundle directory."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    serial = 0
    bundle = directory / f"{pass_name.replace('.', '_')}-{serial}"
    while bundle.exists():
        serial += 1
        bundle = directory / f"{pass_name.replace('.', '_')}-{serial}"
    bundle.mkdir()
    (bundle / "module.ir").write_text(ir_text)
    (bundle / "traceback.txt").write_text("".join(_traceback.format_exception(
        type(error), error, error.__traceback__)))
    meta = {"pass": pass_name, "error_type": type(error).__name__,
            "message": str(error), "pipeline_position": position,
            "format": "repro-reproducer-v1"}
    (bundle / "meta.json").write_text(json.dumps(meta, indent=2))
    return bundle


def load_reproducer(bundle: pathlib.Path) -> Tuple[Module, Dict]:
    """Load a bundle back: (re-parsed pre-pass module, metadata)."""
    bundle = pathlib.Path(bundle)
    meta = json.loads((bundle / "meta.json").read_text())
    module = parse_module((bundle / "module.ir").read_text())
    return module, meta


class ReplayError(RuntimeError):
    """Rebuilding the pre-pass module failed: the re-emitted or
    re-parsed module did not take a journaled pass through what it did
    the first time."""

    def __init__(self, detail: str):
        super().__init__("cannot rebuild the pre-pass module, the rebuild "
                         "or a journaled pass is not deterministic: "
                         f"{detail}")


def _replay(rebuild: Callable[[], Module],
            journal: List[Tuple[Pass, bool]]) -> Module:
    """Rebuild the module the journaled invocations left: build the
    module the pipeline was given again (re-emit or re-parse), re-run
    them, verify.  A fault-injection proxy is stepped around
    (``inner``), so a replay never counts as an invocation."""
    try:
        module = rebuild()
        repeated = [bool(getattr(pass_, "inner", pass_).run(module))
                    for pass_, _ in journal]
        verify_module(module)
    except Exception as err:  # noqa: BLE001 - re-raised, never contained
        raise ReplayError(f"{type(err).__name__}: {err}") from err
    if repeated != [changed for _, changed in journal]:
        raise ReplayError("the replay's change flags differ from the "
                          "journal's")
    return module


class SandboxedPassManager(PassManager):
    """A :class:`PassManager` where every pass runs in a sandbox.

    On a pass exception or a post-pass verification failure the module
    is rolled back to its pre-pass state, the pass is quarantined
    (skipped for the rest of this manager's lifetime), a diagnostic is
    recorded, and — when ``reproducer_dir`` is set — a reproducer
    bundle is written.  The pipeline itself never raises for a
    quarantined pass; callers inspect :attr:`diagnostics` and
    :attr:`quarantined`.

    The pre-pass state is rebuilt, not kept: :meth:`run` journals every
    invocation that ran and verified, and a rollback re-emits or
    re-parses the module it was given, then replays the journal.  Given
    ``rebuild`` (the emitter of a module nothing has changed yet) it
    re-emits and prints nothing; given a bare module it prints it once
    on entry (the checkpoint) and re-parses that.  Only a failure pays
    for a rollback and for the one print the reproducer needs.
    Emission and passes are deterministic, so the rebuilt module prints
    byte-identically to the one the failing pass was given; a replay
    that does not repeat raises :class:`ReplayError` instead of
    quarantining a second pass.
    """

    def __init__(self, passes: Optional[List[Pass]] = None,
                 verify_each: bool = True, max_iterations: int = 8,
                 reproducer_dir: Optional[pathlib.Path] = None):
        super().__init__(passes=passes, verify_each=verify_each,
                         max_iterations=max_iterations)
        self.reproducer_dir = (pathlib.Path(reproducer_dir)
                               if reproducer_dir else None)
        self.quarantined: Set[str] = set()
        self.diagnostics: List[Diagnostic] = []
        self.reproducers: List[pathlib.Path] = []
        #: names of the passes rollbacks re-ran, in order
        self.replayed_passes: List[str] = []

    # -- sandboxed execution -----------------------------------------------------

    def _quarantine(self, pass_: Pass, position: int, error: BaseException,
                    stage: str, module: Module,
                    rebuild: Callable[[], Module],
                    journal: List[Tuple[Pass, bool]]) -> None:
        """Roll ``module`` back in place to what the journal left of the
        rebuilt module, then quarantine ``pass_`` and leave the evidence."""
        restored = _replay(rebuild, journal)
        module.body = restored.body
        module.attributes = dict(restored.attributes)
        replayed = [ran.name for ran, _ in journal]
        self.replayed_passes.extend(replayed)
        self.quarantined.add(pass_.name)
        bundle: Optional[pathlib.Path] = None
        if self.reproducer_dir is not None:
            bundle = write_reproducer(self.reproducer_dir, pass_.name,
                                      print_module(module), error, position)
            self.reproducers.append(bundle)
        self.diagnostics.append(log_diagnostic(Diagnostic.from_exception(
            stage=stage, component=pass_.name, exc=error,
            severity=Severity.WARNING,
            reproducer=str(bundle) if bundle else None,
            pipeline_position=position, replayed_passes=replayed)))
        _metrics.counter("pass_quarantines_total",
                         "passes quarantined by the sandbox").inc()

    def run(self, module: Module, fixed_point: bool = False,
            rebuild: Optional[Callable[[], Module]] = None) -> bool:
        """Run the pipeline with per-pass rollback; never raises for a
        quarantined pass (the module is always left verifying).

        ``rebuild`` builds ``module`` again as it is now (its emitter,
        before any pass ran); without it the module is printed on entry
        and a rollback re-parses that checkpoint."""
        with _trace.span("sandbox") as span:
            source, checkpoint = "reemit", ""
            spent = {"checkpoint_s": 0.0, "verify_s": 0.0}
            if rebuild is None:
                start = time.perf_counter()
                source, checkpoint = "reparse", print_module(module)
                spent["checkpoint_s"] = time.perf_counter() - start
                rebuild = functools.partial(parse_module, checkpoint)
            journal: List[Tuple[Pass, bool]] = []
            contained = len(self.diagnostics)
            try:
                return self._run(module, fixed_point, rebuild, journal,
                                 spent)
            finally:
                replays = len(self.diagnostics) - contained
                span.annotate(
                    rollback=source,
                    checkpoint_bytes=len(checkpoint),
                    invocations=len(journal) + replays,
                    replays=replays, **spent)

    def _run(self, module: Module, fixed_point: bool,
             rebuild: Callable[[], Module], journal: List[Tuple[Pass, bool]],
             spent: Dict[str, float]) -> bool:
        any_change = False
        for _ in range(self.max_iterations if fixed_point else 1):
            round_change = False
            for position, pass_ in enumerate(self.passes):
                if pass_.name in self.quarantined:
                    continue
                stats = self.statistics.setdefault(pass_.name,
                                                   PassStatistics())
                self._notify_before(pass_, module)
                start = time.perf_counter()
                try:
                    changed = pass_.run(module)
                except Exception as err:  # noqa: BLE001 - sandbox boundary
                    seconds = time.perf_counter() - start
                    stats.seconds += seconds
                    stats.runs += 1
                    self._quarantine(pass_, position, err, "pass", module,
                                     rebuild, journal)
                    self._notify_error(pass_, module, err, seconds)
                    continue
                seconds = time.perf_counter() - start
                stats.seconds += seconds
                stats.runs += 1
                start = time.perf_counter()
                try:
                    verify_module(module)
                    rejected = None
                except VerificationError as err:
                    rejected = err
                spent["verify_s"] += time.perf_counter() - start
                if rejected is not None:
                    self._quarantine(pass_, position, rejected, "verify",
                                     module, rebuild, journal)
                    self._notify_error(pass_, module, rejected, seconds)
                    continue
                journal.append((pass_, bool(changed)))
                if changed:
                    stats.changed += 1
                    round_change = True
                self._notify_after(pass_, module, changed, seconds)
            any_change = any_change or round_change
            if not round_change:
                break
        return any_change


def sandboxed_pipeline(reproducer_dir: Optional[pathlib.Path] = None,
                       max_iterations: int = 8) -> SandboxedPassManager:
    """:func:`~repro.ir.passes.default_pipeline`'s passes in a sandbox."""
    return SandboxedPassManager(default_pipeline().passes,
                                verify_each=True,
                                max_iterations=max_iterations,
                                reproducer_dir=reproducer_dir)
