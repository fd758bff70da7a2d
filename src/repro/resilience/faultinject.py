"""Deterministic fault injection for the resilience layer.

Resilience code that is never exercised is resilience theater; this
module injects the three failure classes the pipeline defends against,
deterministically (no randomness — a :class:`FaultPlan` says exactly
what breaks and when), so the fallback chain, the pass sandbox and the
numerical watchdog are all testable:

* **pass exceptions** — a named pass raises on its nth invocation;
* **IR corruption** — a named pass completes but leaves an
  unregistered op in the module, so the post-pass verifier rejects it;
* **runtime NaNs** — a step hook poisons chosen cells of the state (or
  an external array) at a given executed step;
* **backend failures** — a compile tier raises, forcing the chain to
  fall through (how the bench exercises full-sweep survival);
* **process faults** — a supervised worker dies (``os._exit``) or
  hangs in a chosen step of its run segment (no step finishes, so the
  progress deadline fires), exercising the restart/retry path of
  :class:`~repro.runtime.supervised.SupervisedRunner`;
* **on-disk corruption** — :func:`corrupt_cache_entry` scrambles a
  persisted cache entry so the checksum-quarantine path is provable.

``limpet-bench faults`` drives these scenarios end-to-end from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..ir.core import Module, Operation
from ..ir.passes.pass_manager import Pass, PassManager


class InjectedFault(RuntimeError):
    """An error raised on purpose by the fault-injection harness."""


@dataclass
class FaultPlan:
    """What to break, where, and when — fully deterministic."""

    #: pass that raises :class:`InjectedFault` (by pass name)
    fail_pass: Optional[str] = None
    #: ... on this (1-based) invocation of that pass
    fail_pass_at: int = 1
    #: pass that completes but corrupts the module (verifier must catch)
    corrupt_after_pass: Optional[str] = None
    #: compile tiers that raise before codegen even starts
    fail_backends: Tuple[str, ...] = ()
    #: executed step (0-based, counting retries) after which state is poisoned
    nan_at_step: Optional[int] = None
    #: "sv" or an external array name ("Vm", "Iion", ...)
    nan_array: str = "sv"
    #: cell indices to poison
    nan_cells: Tuple[int, ...] = (0,)
    #: the poison value (NaN by default; use np.inf for overflow-style)
    nan_value: float = float("nan")
    #: supervised worker slot that crashes (``os._exit``) mid-segment
    kill_worker: Optional[int] = None
    #: ... as it begins this (1-based) step of its first life.  Despite
    #: the name it counts steps, not tasks: a task is a run segment of
    #: many steps, so the fault still fires mid-run in a one-segment run
    kill_worker_at_task: int = 1
    #: supervised worker slot one of whose steps hangs
    stall_worker: Optional[int] = None
    #: ... as it begins this (1-based) step of its first life (steps,
    #: like ``kill_worker_at_task``)
    stall_worker_at_task: int = 1
    #: how long the stalled worker sleeps (parent should give up first)
    stall_worker_seconds: float = 30.0


class _FaultyPassProxy(Pass):
    """Wraps a real pass; raises or corrupts per the plan."""

    def __init__(self, inner: Pass, injector: "FaultInjector"):
        self.inner = inner
        self.injector = injector
        self.name = inner.name
        self.invocations = 0

    def run(self, module: Module) -> bool:
        self.invocations += 1
        plan = self.injector.plan
        if plan.fail_pass == self.name and \
                self.invocations == plan.fail_pass_at:
            raise InjectedFault(
                f"injected exception in pass {self.name!r} "
                f"(invocation {self.invocations})")
        changed = self.inner.run(module)
        if plan.corrupt_after_pass == self.name and \
                self.invocations == plan.fail_pass_at:
            _corrupt_module(module)
            return True
        return changed


def _corrupt_module(module: Module) -> None:
    """Plant an unregistered op so the verifier rejects the module."""
    for fn in module.funcs():
        if fn.body is not None and fn.body.ops:   # skip declarations
            fn.body.insert_before(fn.body.ops[0], Operation("fault.corrupt"))
            return
    module.append(Operation("fault.corrupt"))


class FaultInjector:
    """Applies a :class:`FaultPlan` to pipelines, backends and runs.

    One injector instance tracks its own executed-step counter, so the
    runtime NaN fires exactly once even when the watchdog rolls the
    simulation state (and its ``steps_done``) back.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._executed_steps = 0
        self._nan_fired = False

    # -- compile-time ------------------------------------------------------------

    def maybe_fail_backend(self, backend: str) -> None:
        if backend in self.plan.fail_backends:
            raise InjectedFault(f"injected backend failure: {backend!r}")

    def wrap_pipeline(self, manager: PassManager) -> PassManager:
        """Replace targeted passes with faulty proxies, in place."""
        targets = {self.plan.fail_pass, self.plan.corrupt_after_pass}
        targets.discard(None)
        manager.passes = [
            _FaultyPassProxy(p, self) if p.name in targets else p
            for p in manager.passes]
        return manager

    # -- runtime -----------------------------------------------------------------

    def step_hook(self, state) -> None:
        """Per-step runner hook: poison the state at the planned step."""
        step = self._executed_steps
        self._executed_steps += 1
        if self._nan_fired or self.plan.nan_at_step is None:
            return
        if step < self.plan.nan_at_step:
            return
        self._nan_fired = True
        cells = list(self.plan.nan_cells)
        value = self.plan.nan_value
        if self.plan.nan_array == "sv":
            matrix = state.state_matrix()
            matrix[cells, :] = value
            state.set_state(matrix)
        else:
            state.externals[self.plan.nan_array][cells] = value

    @property
    def fired(self) -> bool:
        """Whether the runtime NaN has been injected yet."""
        return self._nan_fired


def poison_state(state, cells=(0,), array: str = "sv",
                 value: float = float("nan")) -> None:
    """Directly poison a simulation state (test helper)."""
    plan = FaultPlan(nan_at_step=0, nan_array=array,
                     nan_cells=tuple(cells), nan_value=value)
    injector = FaultInjector(plan)
    injector.step_hook(state)
    assert injector.fired


def corrupt_cache_entry(target, mode: str = "truncate"):
    """Deterministically corrupt one persisted cache entry on disk.

    ``target`` is a :class:`~repro.runtime.kernel_cache.KernelCache`,
    a cache directory, or a single entry/DB file path.  ``mode`` is
    ``truncate`` (torn write: the file ends mid-JSON) or ``scramble``
    (bit rot: valid JSON, wrong checksum).  Returns the corrupted path,
    or ``None`` when there was nothing to corrupt — so drills can
    assert the fault actually landed.
    """
    import pathlib
    if isinstance(target, (str, pathlib.PurePath)):
        root = target                   # Path.root is "/" — don't use it
    else:
        root = getattr(target, "root", target)
    path = pathlib.Path(root)
    if path.is_dir():
        entries = sorted(path.glob("*.json"))
        if not entries:
            return None
        path = entries[0]
    if not path.is_file():
        return None
    if mode == "truncate":
        data = path.read_bytes()
        path.write_bytes(data[:max(len(data) // 2, 1)])
    elif mode == "scramble":
        import json
        try:
            payload = json.loads(path.read_text())
        except ValueError:
            payload = {}
        if isinstance(payload, dict):
            payload["checksum"] = "0" * 64
            path.write_text(json.dumps(payload))
        else:
            path.write_text("{}")
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
