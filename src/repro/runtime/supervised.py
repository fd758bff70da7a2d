"""Supervised multiprocess execution: crash-isolated worker shards.

An inline run shares one address space, so a crash anywhere — a
segfaulting foreign function, an OOM kill, a wedged extension — takes
the whole sweep with it.  This tier puts each width-aligned cell shard
(the plan of :class:`~repro.runtime.sharded.ShardedRunner`) in its
**own worker process** over :mod:`multiprocessing.shared_memory`-backed
state arrays, supervised by the parent:

* **fork + inherited views** — workers are forked *after* the state is
  moved into shared memory, so they inherit the parent's numpy views
  of the segment (``MAP_SHARED``: child writes are visible to the
  parent with no re-attach by name, and a killed child can never leave
  the resource tracker confused about segment ownership);
* **heartbeats** — each worker beats a slot of a shared float64 array
  from a daemon thread; the parent treats a stale beat, a dead
  process, or a blown task deadline identically (restart + retry);
* **bounded retry** — a failed shard is restored from the pre-step
  backup (shards are disjoint, so only the failed slice is touched),
  the worker is respawned, and the task re-dispatched with exponential
  backoff, up to ``max_retries`` times;
* **graceful degradation** — when supervision itself gives up
  (:class:`SupervisedExecutionError`) or fails unexpectedly, the run
  restarts from its initial checkpoint on the single-process tier,
  recorded as one :class:`~repro.resilience.diagnostics.Diagnostic`,
  one ``degradations_total`` increment and one flight dump.

Correctness invariant: shards are disjoint width-aligned cell ranges
of a cell-local model, workers run the *same compiled kernel* the
parent would (fork-inherited) and rebuild LUTs deterministically per
quantized dt, so supervised trajectories are **bitwise identical** to
single-process runs (proven by the differential tests).

Deliberately *not* a throughput feature: process supervision buys
crash isolation.  The paper parallelises inside the generated code —
``omp.parallel`` around the cell loop, lowered by the openmp dialect
(PAPER.md §1, Figs. 3–4) — which is where a native lowering target puts
it (ROADMAP item 1), not in a Python-side tier.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..codegen.common import GeneratedKernel
from ..obs import flight as _flight
from ..obs import ledger as _ledger
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .executor import KernelRunner
from .sharded import ShardedRunner, available_cpus
from .state import SimulationState

try:                        # gate, don't require (minimal builds)
    from multiprocessing import shared_memory as _shm_mod
except ImportError:         # pragma: no cover - exotic platform
    _shm_mod = None

#: the degradation ladder, most to least isolated
TIERS = ("supervised", "single")


def multiprocess_supported() -> bool:
    """True when this platform can run the supervised tier (POSIX
    fork + ``multiprocessing.shared_memory``)."""
    return _shm_mod is not None and "fork" in mp.get_all_start_methods()


class SupervisedExecutionError(RuntimeError):
    """Supervision gave up on a shard: retries exhausted.

    ``run`` treats this as the signal to degrade to the single tier;
    it only escapes to the caller when degradation is disabled.
    """

    def __init__(self, message: str, slot: int = -1, attempts: int = 0,
                 step: int = -1):
        super().__init__(message)
        self.slot = slot
        self.attempts = attempts
        self.step = step


@dataclass
class SupervisionConfig:
    """Tunables of the worker supervisor."""

    #: seconds between heartbeat writes in each worker
    heartbeat_interval: float = 0.05
    #: a beat older than this marks the worker as stalled
    heartbeat_timeout: float = 5.0
    #: wall-clock budget for one dispatched shard task
    task_timeout: float = 30.0
    #: per-shard retry budget within one compute step
    max_retries: int = 2
    #: base seconds of the exponential retry backoff
    retry_backoff: float = 0.05
    #: degrade to the single tier instead of raising
    degrade: bool = True

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be > 0")
        if self.heartbeat_timeout <= self.heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed the interval")
        if self.task_timeout <= 0:
            raise ValueError("task_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")


@dataclass
class _WorkerFault:
    """Injected process-level fault, armed for one worker's first life."""

    kill_at_task: Optional[int] = None
    stall_at_task: Optional[int] = None
    stall_seconds: float = 30.0


def _worker_entry(runner: "SupervisedRunner", state: SimulationState,
                  slot: int, conn, heartbeats: np.ndarray,
                  config: SupervisionConfig,
                  fault: Optional[_WorkerFault],
                  trace_ctx: Optional[_trace.TraceContext] = None
                  ) -> None:
    """Worker main loop (runs in the forked child).

    Everything it needs — the compiled kernel, the shm-backed state
    views, its heartbeat slot — arrived via fork, not pickling.  It
    only ever touches its dispatched ``[start, end)`` slice, so
    concurrent workers never alias.

    With a ``trace_ctx`` the worker runs its own :class:`Tracer` under
    the parent's trace id and timebase (fork shares CLOCK_MONOTONIC),
    wraps each task in a ``shard_task`` span, and **streams** finished
    spans back piggybacked on every reply — the parent merges them as
    foreign events, so a worker killed mid-run has already delivered
    the spans of every task it completed.
    """
    stop = threading.Event()
    stalled = threading.Event()
    # drop the fork-inherited parent tracer: worker spans belong to the
    # worker's own tracer (or nowhere, when tracing is off)
    if trace_ctx is not None:
        tracer: Optional[_trace.Tracer] = _trace.Tracer(
            context=trace_ctx, process_name=f"limpet-worker-{slot}")
        _trace.activate(tracer)
    else:
        tracer = None
        _trace.deactivate(None)

    def beat() -> None:
        while not stop.is_set():
            if not stalled.is_set():
                heartbeats[slot] = time.monotonic()
            stop.wait(config.heartbeat_interval)

    threading.Thread(target=beat, daemon=True,
                     name=f"limpet-heartbeat-{slot}").start()
    fn = runner.kernel.fn
    tasks_done = 0
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                break
            _, seq, start, end, dt, now = msg
            tasks_done += 1
            if fault is not None:
                if fault.kill_at_task == tasks_done:
                    os._exit(1)         # simulated crash mid-shard
                if fault.stall_at_task == tasks_done:
                    stalled.set()       # heartbeat goes quiet...
                    time.sleep(fault.stall_seconds)   # ...and so do we
            task_span = _trace.span("shard_task", slot=slot, seq=seq,
                                    start=start, end=end)
            try:
                with task_span:
                    # the parent's own binding, over this shard: shm
                    # state views, fork-inherited read-only parameter
                    # arrays (exact copies, never in the segment), LUTs
                    # rebuilt deterministically per quantized dt
                    args = runner._bind_args(state, dt)
                    args[0], args[1], args[3] = start, end, now
                    fn(*args)
            except Exception as err:
                task_span.annotate(error=f"{type(err).__name__}: {err}")
                events = tracer.drain_events() if tracer else []
                conn.send(("err", seq, type(err).__name__, str(err),
                           events))
            else:
                events = tracer.drain_events() if tracer else []
                conn.send(("ok", seq, events))
    except (EOFError, OSError, KeyboardInterrupt):
        pass                            # parent went away: just exit
    finally:
        stop.set()


def _failure_kind(failure: str) -> str:
    """Fold a free-text failure reason into a low-cardinality label
    (labels are metric dimensions: bounded values only)."""
    if failure.startswith("worker exception"):
        return "exception"
    if failure.startswith("worker pipe"):
        return "pipe_closed"
    if failure.startswith("worker died"):
        return "died"
    if failure.startswith("heartbeat"):
        return "stalled"
    if failure.startswith("task deadline"):
        return "deadline"
    return "other"


#: every live runner, so interpreter exit / signal shutdown can reap
#: worker processes and unlink shared-memory segments
_ACTIVE_RUNNERS: "weakref.WeakSet[SupervisedRunner]" = weakref.WeakSet()


def close_all_runners() -> None:
    """Close every live :class:`SupervisedRunner` (shutdown hook)."""
    for runner in list(_ACTIVE_RUNNERS):
        try:
            runner.close()
        except Exception:               # pragma: no cover - best effort
            pass


atexit.register(close_all_runners)

from .shutdown import register_cleanup as _register_cleanup  # noqa: E402

_register_cleanup(close_all_runners, "supervised-runners")


class SupervisedRunner(ShardedRunner):
    """A runner that executes compute steps in supervised worker
    processes, degrading to the single tier on supervision failure.

    ``n_workers`` bounds the process count (shards are width-aligned,
    so fewer may run for small cell counts); ``fault_plan`` arms
    deterministic process-level faults
    (:class:`~repro.resilience.faultinject.FaultPlan`) for drills.
    Use as a context manager or call :meth:`close` — unclosed runners
    are reaped at interpreter exit.
    """

    _tier = TIERS[0]            # degradation rebinds it per instance

    def __init__(self, generated: GeneratedKernel, n_workers: int = 0,
                 config: Optional[SupervisionConfig] = None,
                 fault_plan=None, **kwargs):
        n_workers = n_workers or available_cpus()
        super().__init__(generated, n_threads=n_workers, **kwargs)
        self.n_workers = n_workers
        self.config = config or SupervisionConfig()
        self.fault_plan = fault_plan
        self._seq = 0
        self._procs: List[Optional[mp.process.BaseProcess]] = []
        self._conns: List = []
        self._spawns: List[int] = []
        self._hb_shm = None
        self._hb_view: Optional[np.ndarray] = None
        self._state_shm = None
        self._attached: Optional[SimulationState] = None
        self._orig_arrays: Optional[tuple] = None
        # register the counters up front so they show in snapshots
        # even before the first fault (operators see zeros, not gaps)
        _metrics.counter("worker_restarts_total",
                         "supervised workers killed and respawned")
        _metrics.counter("shard_retries_total",
                         "shard tasks re-dispatched after a failure")
        _metrics.counter("degradations_total",
                         "execution-tier downgrades taken")
        _metrics.gauge("supervised_workers",
                       "live worker processes of the supervised tier")
        if not multiprocess_supported():    # pragma: no cover - POSIX CI
            self._record_degradation(RuntimeError(
                "platform lacks fork/shared_memory"))
        _ACTIVE_RUNNERS.add(self)

    @property
    def tier(self) -> str:
        """``active_tier`` as ``benchmarks/e2e/workloads.py:231`` reads
        it; a runner without a ``tier`` is, to it, one that cannot
        degrade."""
        return self._tier

    # -- the degradation ladder ----------------------------------------------------

    def _record_degradation(self, error: BaseException) -> None:
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        target = TIERS[1]
        # which shard failed at which step, when supervision knows
        slot = getattr(error, "slot", None)
        step = getattr(error, "step", None)
        attempts = getattr(error, "attempts", None)
        diag = Diagnostic.from_exception(
            stage="run", component="supervised", exc=error,
            severity=Severity.WARNING, with_traceback=False,
            from_tier=self._tier, to_tier=target, model=self.model.name,
            slot=slot, step=step, attempts=attempts)
        diag.message = (f"degrading {self._tier} -> {target}: "
                        f"{diag.message}")
        log_diagnostic(diag)
        self.diagnostics.append(diag)
        from_tier = self._tier
        self._tier = target
        _metrics.counter("degradations_total",
                         "execution-tier downgrades taken").inc()
        _metrics.gauge("supervised_workers",
                       "live worker processes of the supervised "
                       "tier").set(0)
        _flight.dump("degradation",
                     extra={"from_tier": from_tier, "to_tier": target,
                            "model": self.model.name, "slot": slot,
                            "step": step, "attempts": attempts})
        _ledger.record_event("degradation", model=self.model.name,
                             tier=target, from_tier=from_tier,
                             disposition="degraded", slot=slot,
                             step=step, attempts=attempts)

    # -- run: attach state, supervise, degrade on failure --------------------------

    def run(self, state: SimulationState, n_steps: int, dt: float = 0.01,
            stimulus=None, record_vm: bool = False, watchdog=None,
            step_hook=None, time_breakdown: bool = False):
        from ..resilience.watchdog import NumericalDivergenceError
        args = (state, n_steps, dt, stimulus, record_vm, watchdog,
                step_hook, time_breakdown)
        if self._tier == "supervised":
            initial = state.checkpoint()
            try:
                self._attach_state(state)
                try:
                    self._ensure_workers(state)
                    return super().run(*args)
                finally:
                    self._detach_state()
            except NumericalDivergenceError:
                raise           # a watchdog verdict, not an infra failure
            except Exception as err:
                # supervision gave up (SupervisedExecutionError) or
                # broke: restart from the checkpoint on the single tier
                self._shutdown_workers()
                state.restore(initial)
                if not self.config.degrade:
                    raise
                self._record_degradation(err)
        return super().run(*args)

    # -- compute-step dispatch -----------------------------------------------------

    def compute_step(self, state: SimulationState, dt: float) -> None:
        if self._tier == "supervised" and self._procs \
                and state is self._attached:
            self._supervised_step(state, dt)
        else:
            KernelRunner.compute_step(self, state, dt)

    def _supervised_step(self, state: SimulationState, dt: float) -> None:
        shards = self.shards_for(state)
        if len(shards) <= 1:
            KernelRunner.compute_step(self, state, dt)
            return
        # pre-step backup: a failed shard restores only its own slice
        # before re-dispatch, so retried kernels re-run from identical
        # inputs (idempotent re-execution)
        backup_sv = state.sv.copy()
        backup_ext = {k: v.copy() for k, v in state.externals.items()}
        now = state.time
        pending: Dict[int, Tuple[int, int, int]] = {}
        deadlines: Dict[int, float] = {}
        attempts: Dict[int, int] = {}
        for slot, (start, end) in enumerate(shards):
            pending[slot] = (self._dispatch(slot, start, end, dt, now),
                             start, end)
            deadlines[slot] = time.monotonic() + self.config.task_timeout
            attempts[slot] = 0
        while pending:
            for slot in list(pending):
                seq, start, end = pending[slot]
                failure = self._poll_slot(slot, seq, deadlines[slot])
                if failure == "pending":
                    continue
                if failure is None:
                    del pending[slot]
                    continue
                attempts[slot] += 1
                _metrics.counter(
                    "shard_retries_total",
                    "shard tasks re-dispatched after a failure").inc()
                kind = _failure_kind(failure)
                _metrics.counter(
                    "worker_failures_total",
                    "supervised worker failures by shard and reason",
                    labelnames=("shard", "reason")).labels(
                        shard=str(slot), reason=kind).inc()
                _trace.instant("shard_failure", slot=slot,
                               attempt=attempts[slot], reason=failure)
                _flight.record("worker_failure", slot=slot,
                               step=state.steps_done, reason=kind,
                               detail=failure,
                               heartbeat_age=self._heartbeat_age(slot),
                               attempt=attempts[slot])
                if attempts[slot] > self.config.max_retries:
                    raise SupervisedExecutionError(
                        f"shard {slot} [{start}, {end}) failed "
                        f"{attempts[slot]} times at step "
                        f"{state.steps_done} ({failure})",
                        slot=slot, attempts=attempts[slot],
                        step=state.steps_done)
                self._restart_worker(slot, failure,
                                     step=state.steps_done)
                self._restore_shard(state, backup_sv, backup_ext,
                                    start, end)
                time.sleep(self.config.retry_backoff
                           * (2 ** (attempts[slot] - 1)))
                pending[slot] = (self._dispatch(slot, start, end, dt,
                                                now), start, end)
                deadlines[slot] = (time.monotonic()
                                   + self.config.task_timeout)

    def _poll_slot(self, slot: int, seq: int,
                   deadline: float) -> Optional[str]:
        """None = task done; "pending" = keep waiting; else the
        failure reason."""
        conn = self._conns[slot]
        try:
            while conn.poll(0.01):
                reply = conn.recv()
                self._harvest_events(reply)
                if reply[1] != seq:
                    continue            # stale reply from a pre-retry task
                if reply[0] == "ok":
                    return None
                return f"worker exception {reply[2]}: {reply[3]}"
        except (EOFError, OSError):
            return "worker pipe closed"
        proc = self._procs[slot]
        if proc is None or not proc.is_alive():
            code = proc.exitcode if proc is not None else None
            return f"worker died (exit code {code})"
        age = time.monotonic() - float(self._hb_view[slot])
        if age > self.config.heartbeat_timeout:
            return f"heartbeat stalled ({age:.2f}s old)"
        if time.monotonic() > deadline:
            return "task deadline exceeded"
        return "pending"

    def _restore_shard(self, state: SimulationState,
                       backup_sv: np.ndarray, backup_ext: Dict,
                       start: int, end: int) -> None:
        """Roll one shard's slice back to the pre-step backup.

        Shard bounds are width-aligned, so for AoS and AoSoA the cell
        range ``[start, end)`` is exactly the flat sv slice
        ``[start * n_states, end * n_states)``; SoA never reaches here
        (refused for >1 worker at construction).
        """
        n_states = len(self.model.states)
        state.sv[start * n_states:end * n_states] = \
            backup_sv[start * n_states:end * n_states]
        for name, saved in backup_ext.items():
            state.externals[name][start:end] = saved[start:end]

    def _dispatch(self, slot: int, start: int, end: int, dt: float,
                  now: float) -> int:
        self._seq += 1
        try:
            self._conns[slot].send(("step", self._seq, start, end, dt,
                                    now))
        except (OSError, BrokenPipeError):
            pass    # the poll path will see the dead worker and retry
        return self._seq

    # -- worker lifecycle ----------------------------------------------------------

    def _ensure_workers(self, state: SimulationState) -> None:
        if self._procs:
            return
        shards = self.shards_for(state)
        if len(shards) <= 1:
            return                      # nothing to supervise: inline
        n = len(shards)
        self._hb_shm = _shm_mod.SharedMemory(create=True,
                                             size=max(8 * n, 8))
        self._hb_view = np.ndarray((n,), dtype=np.float64,
                                   buffer=self._hb_shm.buf)
        self._hb_view[:] = time.monotonic()
        self._procs = [None] * n
        self._conns = [None] * n
        self._spawns = [0] * n
        ctx = mp.get_context("fork")
        for slot in range(n):
            self._spawn_worker(ctx, slot)
        _metrics.gauge("supervised_workers",
                       "live worker processes of the supervised "
                       "tier").set(n)

    def _fault_for_slot(self, slot: int) -> Optional[_WorkerFault]:
        plan = self.fault_plan
        if plan is None or self._spawns[slot] > 0:
            return None                 # faults arm only the first life
        kill_at = getattr(plan, "kill_worker_at_task", None) \
            if getattr(plan, "kill_worker", None) == slot else None
        stall_at = getattr(plan, "stall_worker_at_task", None) \
            if getattr(plan, "stall_worker", None) == slot else None
        if kill_at is None and stall_at is None:
            return None
        return _WorkerFault(
            kill_at_task=kill_at, stall_at_task=stall_at,
            stall_seconds=getattr(plan, "stall_worker_seconds", 30.0))

    def _spawn_worker(self, ctx, slot: int) -> None:
        fault = self._fault_for_slot(slot)
        self._spawns[slot] += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        # hand the worker the parent's trace identity (fork start
        # method: the TraceContext object travels in-memory)
        tracer = _trace.active_tracer()
        trace_ctx = tracer.context() if tracer is not None else None
        proc = ctx.Process(
            target=_worker_entry,
            args=(self, self._attached, slot, child_conn, self._hb_view,
                  self.config, fault, trace_ctx),
            daemon=True, name=f"limpet-worker-{slot}")
        proc.start()
        child_conn.close()
        self._hb_view[slot] = time.monotonic()  # fresh grace period
        self._procs[slot] = proc
        self._conns[slot] = parent_conn

    def _restart_worker(self, slot: int, reason: str,
                        step: int = -1) -> None:
        self._kill_worker(slot)
        _metrics.counter("worker_restarts_total",
                         "supervised workers killed and "
                         "respawned").inc()
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        diag = Diagnostic(
            stage="run", component="supervised",
            message=f"restarted worker {slot}: {reason}",
            severity=Severity.WARNING,
            data={"slot": slot, "reason": reason, "step": step,
                  "model": self.model.name})
        log_diagnostic(diag)
        self.diagnostics.append(diag)
        # black-box the moments before the death; the respawn marker
        # lands in the merged trace next to the dead worker's spans
        _flight.dump("worker_death",
                     extra={"slot": slot, "reason": reason,
                            "step": step, "model": self.model.name,
                            "spawns": self._spawns[slot]})
        self._spawn_worker(mp.get_context("fork"), slot)
        _trace.instant("worker_respawn", slot=slot, reason=reason,
                       spawn=self._spawns[slot])

    def _heartbeat_age(self, slot: int) -> Optional[float]:
        if self._hb_view is None or slot >= len(self._hb_view):
            return None
        return round(time.monotonic() - float(self._hb_view[slot]), 3)

    def _harvest_events(self, reply) -> None:
        """Merge the span events piggybacked on a worker reply into the
        parent tracer (every reply is harvested, even stale ones — a
        pre-retry task's spans are still real work that happened)."""
        if reply and isinstance(reply[-1], list) and reply[-1]:
            tracer = _trace.active_tracer()
            if tracer is not None:
                tracer.add_foreign_events(reply[-1])

    def _drain_conn(self, conn) -> None:
        """Best-effort harvest of every reply still queued on a pipe.

        Called before a worker's pipe is closed (kill, restart, or
        shutdown — including the SIGTERM path, which runs the cleanup
        hooks *before* the tracer is flushed and written), so span
        buffers in flight when a run is interrupted reach the merged
        trace instead of dying with the pipe.
        """
        if conn is None:
            return
        try:
            while conn.poll(0):
                self._harvest_events(conn.recv())
        except (EOFError, OSError):
            pass                        # sender already gone

    def _kill_worker(self, slot: int) -> None:
        conn = self._conns[slot]
        if conn is not None:
            self._drain_conn(conn)
            try:
                conn.close()
            except OSError:
                pass
            self._conns[slot] = None
        proc = self._procs[slot]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
                if proc.is_alive():     # pragma: no cover - stubborn
                    proc.kill()
                    proc.join(timeout=1.0)
            self._procs[slot] = None

    def _shutdown_workers(self) -> None:
        for slot, conn in enumerate(self._conns):
            if conn is not None:
                try:
                    conn.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
        for slot, proc in enumerate(self._procs):
            if proc is not None:
                proc.join(timeout=0.5)
            self._kill_worker(slot)
        self._procs = []
        self._conns = []
        self._spawns = []
        if self._hb_shm is not None:
            self._hb_view = None
            try:
                self._hb_shm.close()
            except BufferError:         # pragma: no cover - exported view
                pass
            try:
                self._hb_shm.unlink()
            except FileNotFoundError:   # pragma: no cover - already gone
                pass
            self._hb_shm = None
        _metrics.gauge("supervised_workers",
                       "live worker processes of the supervised "
                       "tier").set(0)

    # -- shared-memory state attach/detach -----------------------------------------

    def _attach_state(self, state: SimulationState) -> None:
        """Move ``state``'s arrays into one shared-memory segment and
        rebind the state to views of it (workers fork after this, so
        they inherit the views)."""
        if self._attached is state:
            return
        if self._attached is not None:
            self._detach_state()
        total = state.sv.nbytes + sum(a.nbytes
                                      for a in state.externals.values())
        self._state_shm = _shm_mod.SharedMemory(create=True,
                                                size=max(total, 1))
        buf = self._state_shm.buf
        offset = 0
        sv_view = np.ndarray(state.sv.shape, dtype=state.sv.dtype,
                             buffer=buf, offset=offset)
        sv_view[...] = state.sv
        offset += state.sv.nbytes
        ext_views: Dict[str, np.ndarray] = {}
        for name, array in state.externals.items():
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=buf, offset=offset)
            view[...] = array
            offset += array.nbytes
            ext_views[name] = view
        self._orig_arrays = (state.sv, dict(state.externals))
        state.sv = sv_view
        state.externals.update(ext_views)
        self._attached = state
        self._bound = None              # stale prebound args hold old arrays

    def _detach_state(self) -> None:
        """Shut the workers down, copy the shared segment back into the
        original arrays, rebind the state, and unlink the segment."""
        state = self._attached
        if state is None:
            return
        self._shutdown_workers()        # workers hold views of this segment
        orig_sv, orig_ext = self._orig_arrays
        orig_sv[...] = state.sv
        for name, array in orig_ext.items():
            array[...] = state.externals[name]
        state.sv = orig_sv
        state.externals.update(orig_ext)
        self._attached = None
        self._orig_arrays = None
        self._bound = None              # release view refs before close
        try:
            self._state_shm.close()
        except BufferError:             # pragma: no cover - exported view
            pass
        try:
            self._state_shm.unlink()
        except FileNotFoundError:       # pragma: no cover - already gone
            pass
        self._state_shm = None

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        self._detach_state()
        self._shutdown_workers()
        _ACTIVE_RUNNERS.discard(self)
        super().close()
