"""Supervised multiprocess execution: crash-isolated worker shards.

An inline run shares one address space, so a crash anywhere — a
segfaulting foreign function, an OOM kill, a wedged extension — takes
the whole sweep with it.  This tier puts each width-aligned cell shard
(the plan of :class:`~repro.runtime.sharded.ShardedRunner`) in its
**own worker process** over :mod:`multiprocessing.shared_memory`-backed
state arrays, supervised by the parent:

* **workers per state** — the workers fork over one shared-memory
  segment holding a shadow of the state (``sv``, the externals, the
  promoted parameters), so they inherit views of it (``MAP_SHARED``:
  no re-attach by name, and a killed child can never leave the
  resource tracker confused about segment ownership); they and the
  segment live until :meth:`SupervisedRunner.close` or a run on another
  state, and each segment copies the caller's arrays in and back out;
* **segments** — a task is a run segment of k steps: the worker runs
  the compute *and* the solver stage over its own ``[start, end)``
  slice k times, through :func:`~repro.runtime.executor.advance`, and
  replies once with the steps taken and the final time, which the
  parent adopts.  k comes from the run's own structure: the first step
  alone, then the rest; one watchdog ``check_interval`` stretch; 1
  under a per-step hook, which runs in the parent after each step;
* **progress** — each worker publishes the steps it has completed of
  its segment in a slot of a shared int64 array; the parent treats a
  closed pipe, a dead process, a worker exception, or a step that
  overruns ``task_timeout`` (the deadline restarts whenever the
  progress count moves) identically (restart + retry);
* **bounded retry** — a failed shard's slice of the shadow is restored
  from the caller's arrays, which hold the segment start until the
  copy-out (shards are disjoint, so only the failed slice is touched),
  the worker is respawned, and the whole segment re-dispatched at once,
  up to ``max_retries`` times; each restart is one
  :class:`~repro.resilience.diagnostics.Diagnostic` and one
  ``worker_restart`` ledger row;
* **graceful degradation** — when supervision itself gives up
  (:class:`SupervisedExecutionError`) or fails unexpectedly, the run
  restarts from its initial checkpoint on the single-process tier,
  recorded as one :class:`~repro.resilience.diagnostics.Diagnostic`,
  one ``degradations_total`` increment and one ``degradation`` ledger
  row;
* **shutdown by unwinding** — Ctrl-C (``KeyboardInterrupt``) or a
  SIGTERM under :func:`~repro.runtime.shutdown.install_signal_handlers`
  (``SystemExit``) passes through ``run``, which reaps the workers and
  unlinks the segments on its way out; ``atexit`` closes runners that
  no run was using.  Workers reset both signals: SIGTERM kills one
  outright, SIGINT is left to the parent.  Shutdown is a
  ``terminate()`` per worker, never a handshake: a worker mid-segment
  reads no message until the segment ends.

Correctness invariant: shards are disjoint width-aligned cell ranges
of a cell-local model, workers run the *same compiled kernel* the
parent would (fork-inherited), rebuild LUTs deterministically per
quantized dt, and apply the solver stage's elementwise update to their
slice, so supervised trajectories are **bitwise identical** to
single-process runs (proven by the differential tests).

Crash isolation is what the tier is for; segments and workers that
outlive ``run()`` keep it from costing speed, since a pipe round-trip
is paid once per k steps and a fork once per state (EXPERIMENTS.md
"Supervised workers per runner").  The paper parallelises inside the
generated code — ``omp.parallel`` around the cell loop, lowered by the
openmp dialect (PAPER.md §1, Figs. 3–4) — which is where a native
lowering target (C from the post-pipeline IR) would put it, with no
pipe at all.
"""

from __future__ import annotations

import atexit
import dataclasses
import multiprocessing as mp
import os
import signal
import time
import weakref
from contextlib import suppress
from dataclasses import dataclass
from math import inf
from multiprocessing.connection import wait as _wait
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..codegen.common import GeneratedKernel
from ..obs import ledger as _ledger
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .executor import ClockedCompute, advance
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

    ``run`` treats this as the signal to degrade to the single tier,
    so it never escapes ``run``; its ``slot``, ``attempts`` and
    ``step`` land on the degradation diagnostic and ledger row.
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

    #: wall-clock budget for one step of a dispatched segment (the
    #: deadline restarts whenever the worker's progress count moves):
    #: the only stall detector, so it also bounds a frozen worker
    task_timeout: float = 30.0
    #: retry budget per shard per segment
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.task_timeout <= 0:
            raise ValueError("task_timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


@dataclass
class _WorkerFault:
    """Injected process-level fault, armed for one worker's first life;
    the ``*_at_step`` fields count the steps that life has begun."""

    kill_at_step: Optional[int] = None
    stall_at_step: Optional[int] = None
    stall_seconds: float = 30.0


@dataclass
class _Shard:
    """What the two-stage loop touches of one shard in its worker: the
    clock, the step count, and the externals sliced to ``[start, end)``
    for the solver stage (the kernel binds the whole buffers)."""

    externals: Dict[str, np.ndarray]
    time: float
    steps_done: int = 0


@dataclass
class _Task:
    """One segment dispatched to one worker, as the parent tracks it."""

    slot: int
    seq: int
    start: int
    end: int
    deadline: float
    #: completed steps last read from the worker's progress slot
    progress: int = 0
    #: ``(steps taken, final time)`` once the worker replied ``ok``
    outcome: Optional[Tuple[int, float]] = None


def _solved_in_workers(state, dt, stimulus) -> None:
    """The parent's solver stage for a segment: the workers ran it."""


def _state_arrays(state: SimulationState) -> List[np.ndarray]:
    """``sv``, the externals, then the promoted-parameter arrays: what
    a shadow holds, in segment order."""
    return [state.sv, *state.externals.values(), *state.params.values()]


def _worker_entry(runner: "SupervisedRunner", state: SimulationState,
                  slot: int, conn, progress: np.ndarray,
                  fault: Optional[_WorkerFault],
                  trace_ctx: Optional[_trace.TraceContext] = None
                  ) -> None:
    """Worker main loop (runs in the forked child).

    Everything it needs — the compiled kernel, the shm-backed state
    views, its progress slot — arrived via fork, not pickling.  It runs
    on one thread, blocked in ``recv`` between tasks.  A task
    ``("run", seq, start, end, n_steps, dt, now, until, stimulus)``
    advances only the ``[start, end)`` slice, from the parent's clock
    ``now``, so concurrent workers never alias; the worker publishes
    each completed step in its progress slot and replies
    ``("ok", seq, steps taken, final time)``.

    With a ``trace_ctx`` the worker runs its own :class:`Tracer` under
    the parent's trace id and timebase (fork shares CLOCK_MONOTONIC),
    wraps each task in a ``shard_task`` span whose ``steps`` arg counts
    the steps it began, and **streams** finished spans back piggybacked
    on every reply — the parent merges them as foreign events, so a
    worker killed mid-run has already delivered the spans of every
    task it completed.

    The worker drops the parent's signal policy: SIGTERM kills it
    outright (``terminate()`` is how the parent reaps it) and SIGINT is
    ignored, since the parent reaps its workers on Ctrl-C.  There is
    no stop message: the parent terminates its workers.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # drop the fork-inherited parent tracer: worker spans belong to the
    # worker's own tracer (or nowhere, when tracing is off)
    if trace_ctx is not None:
        tracer: Optional[_trace.Tracer] = _trace.Tracer(
            context=trace_ctx, process_name=f"limpet-worker-{slot}")
        _trace.activate(tracer)
    else:
        tracer = None
        _trace.deactivate(None)
    fn = runner.kernel.fn
    args: list = []             # the current task's kernel arguments
    life_steps = 0              # steps begun in this life: faults count them

    def compute(shard: _Shard, cur_dt: float) -> None:
        nonlocal life_steps
        life_steps += 1
        if fault is not None:
            if fault.kill_at_step == life_steps:
                os._exit(1)                 # simulated crash mid-segment
            if fault.stall_at_step == life_steps:
                time.sleep(fault.stall_seconds)     # simulated hung step
        args[3] = shard.time
        fn(*args)

    def publish(shard: _Shard) -> None:
        progress[slot] = shard.steps_done

    try:
        while True:
            _, seq, start, end, n_steps, dt, now, until, stimulus = \
                conn.recv()
            begun = life_steps
            task_span = _trace.span("shard_task", slot=slot, seq=seq,
                                    start=start, end=end)
            try:
                with task_span:
                    # the parent's own binding, over this shard of the
                    # shadow: views of the segment, LUTs built
                    # deterministically per quantized dt
                    args = runner._bind_args(state, dt)
                    args[0], args[1] = start, end
                    shard = _Shard({name: array[start:end] for name, array
                                    in state.externals.items()}, now)
                    try:
                        advance(shard, n_steps, dt, compute,
                                runner.solver_step, stimulus, publish, until)
                    finally:
                        task_span.annotate(steps=life_steps - begun)
                reply = ("ok", seq, shard.steps_done, shard.time)
            except Exception as err:
                task_span.annotate(error=f"{type(err).__name__}: {err}")
                reply = ("err", seq, type(err).__name__, str(err))
            events = tracer.drain_events() if tracer else []
            conn.send(reply + (events,))
    except (EOFError, OSError):
        pass                            # parent went away: just exit


def _release(shm) -> None:
    """Close and unlink a segment this process created, once the views
    of it are dropped."""
    with suppress(BufferError):         # pragma: no cover - exported view
        shm.close()
    with suppress(FileNotFoundError):   # pragma: no cover - already gone
        shm.unlink()


#: every live runner, so interpreter exit can reap worker processes
#: and unlink shared-memory segments
_ACTIVE_RUNNERS: "weakref.WeakSet[SupervisedRunner]" = weakref.WeakSet()


def close_all_runners() -> None:
    """Close every live :class:`SupervisedRunner` (shutdown hook)."""
    for runner in list(_ACTIVE_RUNNERS):
        try:
            runner.close()
        except Exception:               # pragma: no cover - best effort
            pass


atexit.register(close_all_runners)


class SupervisedRunner(ShardedRunner):
    """A runner that executes run segments in supervised worker
    processes, degrading to the single tier on supervision failure.

    ``n_workers`` bounds the process count (shards are width-aligned,
    so fewer may run for small cell counts); ``fault_plan`` arms
    deterministic process-level faults
    (:class:`~repro.resilience.faultinject.FaultPlan`) for drills.
    Workers stay from the first run of a state until :meth:`close` or
    a run on another state.  Use as a context manager or call
    :meth:`close` — unclosed runners are reaped at interpreter exit.
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
        self._progress_shm = None
        self._progress: Optional[np.ndarray] = None
        self._state_shm = None
        #: the caller's state the workers hold, their shadow of it in
        #: ``_state_shm``, and the array shapes the shadow was cut to
        self._attached: Optional[SimulationState] = None
        self._shadow: Optional[SimulationState] = None
        self._shapes: Optional[tuple] = None
        # register the counters up front so they show in snapshots
        # even before the first fault (operators see zeros, not gaps)
        _metrics.counter("worker_restarts_total",
                         "supervised workers killed and respawned")
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
        """``active_tier`` as ``benchmarks/e2e/workloads.py:232`` reads
        it; a runner without a ``tier`` is, to it, one that cannot
        degrade."""
        return self._tier

    @property
    def live_workers(self) -> int:
        """Workers holding a state (0 after an inline run)."""
        return len(self._procs)

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
                return super().run(*args)
            except NumericalDivergenceError:
                raise           # a watchdog verdict, not an infra failure
            except Exception as err:
                # supervision gave up (SupervisedExecutionError) or
                # broke: restart from the checkpoint on the single tier
                self._detach_state()
                state.restore(initial)
                self._record_degradation(err)
            except BaseException:
                self._detach_state()    # workers may be mid-segment
                raise
        return super().run(*args)

    # -- segment dispatch ----------------------------------------------------------

    def _advance(self, state: SimulationState, n_steps: int, dt: float,
                 compute, stimulus, hook, until: float) -> int:
        """The segment runs in the workers while they hold ``state``,
        inline otherwise (a single shard, or a degraded runner)."""
        if not (self._procs and state is self._attached):
            return super()._advance(state, n_steps, dt, compute, stimulus,
                                    hook, until)
        if n_steps <= 0 or state.time >= until:
            return 0
        if hook is not None:
            # k = 1: the hook sees every step, in the parent, as inline
            def one_step(st: SimulationState, cur_dt: float) -> None:
                self._segment(st, 1, cur_dt, stimulus, inf, compute)
            return advance(state, n_steps, dt, one_step, _solved_in_workers,
                           None, hook, until)
        done, state.time = self._segment(state, n_steps, dt, stimulus,
                                         until, compute)
        state.steps_done += done
        return done

    def _segment(self, state: SimulationState, n_steps: int, dt: float,
                 stimulus, until: float, compute) -> Tuple[int, float]:
        """Advance every shard up to ``n_steps`` steps in its worker;
        return the steps taken and the final time, on which all shards
        must agree."""
        started = time.perf_counter()
        # copy-in: the shadow takes whatever the caller did since the
        # last segment (set_state, restore, writes to externals/params)
        shadow = self._shadow
        for view, array in zip(_state_arrays(shadow), _state_arrays(state)):
            view[...] = array
        segment = (n_steps, dt, state.time, until, stimulus)
        pending: Dict[int, _Task] = {
            slot: self._dispatch(slot, start, end, segment)
            for slot, (start, end) in enumerate(self.shards_for(state))}
        attempts = dict.fromkeys(pending, 0)
        outcomes = set()
        while pending:
            # wake on any reply; the liveness checks run every 10 ms
            _wait([self._conns[slot] for slot in pending], 0.01)
            for slot, task in list(pending.items()):
                failure = self._poll_slot(task)
                if failure is None:
                    if task.outcome is not None:
                        outcomes.add(task.outcome)
                        del pending[slot]
                    continue
                kind, reason = failure
                step = state.steps_done + int(self._progress[slot])
                attempts[slot] += 1
                if attempts[slot] > self.config.max_retries:
                    raise SupervisedExecutionError(
                        f"shard {slot} [{task.start}, {task.end}) failed "
                        f"{attempts[slot]} times at step {step} "
                        f"({reason})",
                        slot=slot, attempts=attempts[slot], step=step)
                self._restart_worker(slot, kind, reason, step,
                                     attempts[slot])
                self._restore_shard(state, task.start, task.end)
                pending[slot] = self._dispatch(slot, task.start, task.end,
                                               segment)
        if len(outcomes) != 1:
            raise SupervisedExecutionError(
                f"shards disagree on (steps, time) at the end of a "
                f"segment: {sorted(outcomes)}", step=state.steps_done)
        state.sv[...] = shadow.sv       # copy-out
        for name, array in state.externals.items():
            array[...] = shadow.externals[name]
        if isinstance(compute, ClockedCompute):
            compute.seconds += time.perf_counter() - started
        return outcomes.pop()

    def _poll_slot(self, task: _Task) -> Optional[Tuple[str, str]]:
        """None while the segment is pending or done (``task.outcome``
        set); on a failure ``(kind, reason)``: a low-cardinality metric
        label and the free-text reason."""
        slot = task.slot
        conn = self._conns[slot]
        try:
            while conn.poll():
                reply = conn.recv()
                self._harvest_events(reply)
                if reply[1] != task.seq:
                    continue            # stale reply from a pre-retry task
                if reply[0] == "ok":
                    task.outcome = (reply[2], reply[3])
                    return None
                return ("exception",
                        f"worker exception {reply[2]}: {reply[3]}")
        except (EOFError, OSError):
            return "pipe_closed", "worker pipe closed"
        proc = self._procs[slot]
        if proc is None or not proc.is_alive():
            code = proc.exitcode if proc is not None else None
            return "died", f"worker died (exit code {code})"
        now = time.monotonic()
        progress = int(self._progress[slot])
        if progress != task.progress:
            # a step finished: the next one gets a whole task_timeout
            task.progress = progress
            task.deadline = now + self.config.task_timeout
        elif now > task.deadline:
            return ("deadline", f"task deadline exceeded (no step "
                    f"finished in {self.config.task_timeout:g}s)")
        return None

    def _restore_shard(self, state: SimulationState, start: int,
                       end: int) -> None:
        """Roll one shard's slice of the shadow back to the caller's
        arrays, which hold the segment start until the copy-out.

        Shard bounds are width-aligned, so under either layout the cell
        range ``[start, end)`` is exactly the flat sv slice
        ``[start * n_states, end * n_states)``.
        """
        n_states = len(self.model.states)
        lo, hi = start * n_states, end * n_states
        self._shadow.sv[lo:hi] = state.sv[lo:hi]
        for name, array in state.externals.items():
            self._shadow.externals[name][start:end] = array[start:end]

    def _dispatch(self, slot: int, start: int, end: int,
                  segment: tuple) -> _Task:
        """Send ``("run", seq, start, end) + segment`` to one worker;
        ``segment`` is ``(n_steps, dt, now, until, stimulus)``."""
        self._seq += 1
        self._progress[slot] = 0    # before the send: the worker counts up
        try:
            self._conns[slot].send(("run", self._seq, start, end) + segment)
        except (OSError, BrokenPipeError):
            pass    # the poll path will see the dead worker and retry
        return _Task(slot, self._seq, start, end,
                     deadline=time.monotonic() + self.config.task_timeout)

    # -- worker lifecycle ----------------------------------------------------------

    def _fork_workers(self, n: int) -> None:
        # per worker: an int64 progress count (completed steps of its
        # current segment)
        self._progress_shm = _shm_mod.SharedMemory(create=True, size=8 * n)
        self._progress = np.ndarray((n,), dtype=np.int64,
                                    buffer=self._progress_shm.buf)
        self._progress[:] = 0
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
            kill_at_step=kill_at, stall_at_step=stall_at,
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
            args=(self, self._shadow, slot, child_conn, self._progress,
                  fault, trace_ctx),
            daemon=True, name=f"limpet-worker-{slot}")
        proc.start()
        child_conn.close()
        self._procs[slot] = proc
        self._conns[slot] = parent_conn

    def _restart_worker(self, slot: int, kind: str, reason: str,
                        step: int, attempt: int) -> None:
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
            data={"slot": slot, "kind": kind, "reason": reason,
                  "step": step, "attempt": attempt,
                  "model": self.model.name})
        log_diagnostic(diag)
        self.diagnostics.append(diag)
        _ledger.record_event("worker_restart", model=self.model.name,
                             slot=slot, kind=kind, attempt=attempt,
                             step=step, spawns=self._spawns[slot])
        # the respawn marker lands in the merged trace next to the dead
        # worker's spans
        self._spawn_worker(mp.get_context("fork"), slot)
        _trace.instant("worker_respawn", slot=slot, reason=reason,
                       spawn=self._spawns[slot])

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
        shutdown — including an interrupted run, whose workers are
        reaped while the exception unwinds, before the CLI writes the
        trace), so span buffers still queued when a run is interrupted
        reach the merged trace instead of dying with the pipe.
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

    # -- shared-memory state attach/detach -----------------------------------------

    def _attach_state(self, state: SimulationState) -> None:
        """Fork the workers over a shadow of ``state`` in one
        shared-memory segment, unless they already hold this object at
        these array shapes and names; a one-shard plan gets neither."""
        arrays = _state_arrays(state)
        shapes = ([a.shape for a in arrays], list(state.externals),
                  list(state.params))
        if state is self._attached and shapes == self._shapes:
            return
        self._detach_state()
        n = len(self.shards_for(state))
        if n <= 1:
            return                      # nothing to supervise: inline
        self._state_shm = _shm_mod.SharedMemory(
            create=True, size=max(sum(a.nbytes for a in arrays), 1))
        views, offset = [], 0
        for array in arrays:
            views.append(np.ndarray(array.shape, dtype=array.dtype,
                                    buffer=self._state_shm.buf,
                                    offset=offset))
            offset += array.nbytes
        n_ext = len(state.externals)
        self._shadow = dataclasses.replace(
            state, sv=views[0],
            externals=dict(zip(state.externals, views[1:1 + n_ext])),
            params=dict(zip(state.params, views[1 + n_ext:])))
        self._attached, self._shapes = state, shapes
        self._fork_workers(n)

    def _detach_state(self) -> None:
        """Kill the workers and unlink the progress segment and the one
        that shadowed the attached state (the caller's arrays already
        hold its values)."""
        for slot in range(len(self._procs)):    # they hold views of both
            self._kill_worker(slot)
        self._procs, self._conns, self._spawns = [], [], []
        self._progress = None
        self._attached = self._shadow = self._shapes = None
        for shm in (self._progress_shm, self._state_shm):
            if shm is not None:
                _release(shm)
        self._progress_shm = self._state_shm = None
        _metrics.gauge("supervised_workers",
                       "live worker processes of the supervised "
                       "tier").set(0)

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        self._detach_state()
        _ACTIVE_RUNNERS.discard(self)
        super().close()
