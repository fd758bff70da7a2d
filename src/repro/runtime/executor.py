"""The simulation driver: compile a kernel, run the two-stage flow.

Mirrors openCARP's ``bench`` execution (§3.1): per time step, (1) the
**compute stage** calls the generated ionic-model kernel for every
cell, then (2) the **solver stage** — out of the paper's scope, stubbed
here as an explicit membrane update — advances ``Vm`` from the computed
``Iion`` plus an optional stimulus.  The stub is identical for every
backend so trajectories are directly comparable.

Two resilience hooks thread through :meth:`KernelRunner.run`:

* ``watchdog`` — a :class:`~repro.resilience.watchdog.WatchdogConfig`
  (or ``NumericalWatchdog``) enabling periodic NaN/Inf scans with
  checkpoint-and-retry (see that module for the policies);
* ``step_hook`` — a callable invoked with the state after every
  executed step (instrumentation and fault injection).
"""

from __future__ import annotations

import time as _time
from collections import OrderedDict
from math import inf
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from ..codegen.common import GeneratedKernel
from ..frontend.model import IonicModel
from ..ir.passes.pass_manager import PassManager
from ..obs import trace as _trace
from .kernel_cache import KernelCache, default_cache
from .lut_runtime import LUTData, build_all_luts
from .resolve import resolve_kernel
from .state import SimulationState, StateCheckpoint, allocate_state


@dataclass
class Stimulus:
    """A periodic square current pulse, like bench's default stimulus."""

    amplitude: float = -30.0
    duration: float = 2.0
    period: float = 1000.0
    start: float = 0.0

    def current(self, t: float) -> float:
        phase = (t - self.start) % self.period
        if self.start <= t and 0.0 <= phase < self.duration:
            return self.amplitude
        return 0.0


@dataclass
class RunResult:
    """Outcome of a timed simulation run."""

    state: SimulationState
    n_steps: int
    dt: float
    elapsed_seconds: float
    vm_trace: Optional[np.ndarray] = None
    #: numerical health report (only when a watchdog guarded the run)
    health: Optional["object"] = None
    #: wall time inside the compute-stage kernel calls, only measured
    #: when ``run(..., time_breakdown=True)`` — ``None`` otherwise
    compute_seconds: Optional[float] = None
    #: population batch instances this run advanced per kernel call.
    #: 1 for ordinary runs; the population layer sets it on carved
    #: per-instance results so throughput stays comparable — the kernel
    #: really advanced ``instances × n_cells`` cells per step.
    instances: int = 1
    #: one-time kernel construction cost of the runner that produced
    #: this result (passes + verify + lowering on a JIT build, ~0 on a
    #: cache or AOT-artifact hit) — ``None`` on results not produced
    #: through :meth:`KernelRunner.run`
    compile_seconds: Optional[float] = None
    #: compile_seconds + the first step's wall time: how long a fresh
    #: process waits for its first simulated step (``None``: no step).
    time_to_first_step: Optional[float] = None

    @property
    def seconds_per_step(self) -> float:
        return self.elapsed_seconds / max(self.n_steps, 1)

    @property
    def overhead_seconds(self) -> Optional[float]:
        """Everything outside the kernel: solver stage, loop, binding.

        ``None`` unless the run measured a breakdown."""
        if self.compute_seconds is None:
            return None
        return max(self.elapsed_seconds - self.compute_seconds, 0.0)

    @property
    def steps_per_second(self) -> float:
        """Executed time steps per wall-clock second."""
        return self.n_steps / max(self.elapsed_seconds, 1e-12)

    @property
    def cell_steps_per_second(self) -> float:
        """Cell·steps per second — the paper's throughput unit, which
        stays comparable across cell counts (and, with a population
        axis, across batch sizes: the batch multiplier is included)."""
        return self.steps_per_second * self.state.n_cells * self.instances


#: LUT tables are dt-dependent; adaptive-dt retries must neither rebuild
#: tables for float-noise dt variations nor grow the cache unboundedly.
_LUT_CACHE_MAX = 8
_LUT_DT_DIGITS = 12


def _quantize_dt(dt: float) -> float:
    """Collapse float-noise dt values onto one cache key."""
    return round(float(dt), _LUT_DT_DIGITS)


def advance(state: SimulationState, n_steps: int, dt: float,
            compute: Callable[[SimulationState, float], None],
            solver: Callable[..., None],
            stimulus: Optional[Stimulus] = None,
            hook: Optional[Callable[[SimulationState], None]] = None,
            until: float = inf) -> int:
    """The two-stage loop (§3.1), the only copy of it: up to
    ``n_steps`` steps of compute stage then solver stage, ``hook``
    after each, stopping early once ``state.time`` reaches ``until``
    (the watchdog's target time; unguarded runs are count-based).
    Returns the number of steps taken."""
    done = 0
    while done < n_steps and state.time < until:
        compute(state, dt)
        solver(state, dt, stimulus)
        state.time += dt
        state.steps_done += 1
        done += 1
        if hook is not None:
            hook(state)
    return done


class ClockedCompute:
    """The compute stage of a ``time_breakdown`` run: calls ``kernel``
    and sums the wall time of the calls in ``seconds``.  A tier that
    runs whole segments out of process adds each segment's wall time
    to ``seconds`` instead of calling it."""

    __slots__ = ("kernel", "seconds")

    def __init__(self, kernel: Callable[[SimulationState, float], None]):
        self.kernel = kernel
        self.seconds = 0.0

    def __call__(self, state: SimulationState, dt: float) -> None:
        t0 = _time.perf_counter()
        self.kernel(state, dt)
        self.seconds += _time.perf_counter() - t0


class KernelRunner:
    """Owns one compiled kernel and runs simulations with it.

    ``fuse`` enables fused expression lowering (single-use SSA values
    inlined into compound expressions).

    ``cache`` wires in the persistent kernel cache: pass a
    :class:`~repro.runtime.kernel_cache.KernelCache`, or ``True`` for
    the process-default cache dir.  The kernel comes from
    :func:`~repro.runtime.resolve.resolve_kernel`; ``self.resolution``
    records which source served it, and ``cache_hit``, ``artifact_hit``,
    ``cache_key`` and ``compile_seconds`` view it.

    ``profile`` lowers the kernel with per-statement clock bracketing
    (see :mod:`repro.obs.profiler`): every compute statement's wall
    time accumulates into the kernel's ``profile_counters``, retrieved
    via :meth:`profile_report`.  Profiled kernels bypass the persistent
    cache (their source differs from the cacheable form) and produce
    bitwise-identical trajectories.
    """

    _tier = "single"            # the tier ladder rung (``active_tier``)

    def __init__(self, generated: GeneratedKernel, optimize: bool = True,
                 pipeline: Optional[PassManager] = None,
                 fuse: bool = True, cache=None, profile: bool = False,
                 population: Optional[str] = None,
                 artifacts=None):
        self.population = population
        self.generated = generated
        self.spec = generated.spec
        self.model: IonicModel = generated.spec.model
        self.layout = generated.layout
        self.pipeline = pipeline
        self.fuse = fuse
        # a profiled kernel's source differs from the cacheable form:
        # it bypasses the kernel cache and the artifact tier
        self.cache: Optional[KernelCache] = None
        store = None
        if not profile:
            from ..aot.bundle import resolve_store
            self.cache = default_cache() if cache is True else cache or None
            store = resolve_store(artifacts)
        self.kernel, self.resolution = resolve_kernel(
            generated, optimize=optimize, pipeline=pipeline, fuse=fuse,
            cache=self.cache, artifacts=store,
            profile=profile, population=population)
        #: run-time Diagnostics (worker restarts, tier degradations)
        self.diagnostics: List = []
        # LUTs include dt-dependent Rush-Larsen columns: built lazily
        # for the dt of the first step, rebuilt if dt changes.  Keyed by
        # quantized dt, LRU-bounded so watchdog dt-halving cannot leak.
        self._lut_cache: "OrderedDict[float, List[LUTData]]" = OrderedDict()
        self._lut_hits = 0
        self._lut_misses = 0
        self._lut_evictions = 0
        # prebound compute_step arguments (rebuilt on state/dt/sv change)
        self._bound: Optional[tuple] = None

    @property
    def cache_hit(self) -> bool:
        return self.resolution.source == "cache"

    @property
    def artifact_hit(self) -> bool:
        return self.resolution.source in ("bundle", "artifact")

    @property
    def cache_key(self) -> Optional[str]:
        return self.resolution.key

    @property
    def compile_seconds(self) -> float:
        return self.resolution.seconds

    @property
    def active_tier(self) -> str:
        """``single`` or ``supervised``: the tier in effect (a
        supervised runner steps down when supervision gives up)."""
        return self._tier

    def close(self) -> None:
        """Release workers and shared memory; none held inline."""

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def luts_for(self, dt: float) -> List[LUTData]:
        if not self.spec.use_lut:
            return []
        key = _quantize_dt(dt)
        cached = self._lut_cache.get(key)
        if cached is not None:
            self._lut_cache.move_to_end(key)
            self._lut_hits += 1
            return cached
        tables = build_all_luts(self.model, dt=dt)
        self._lut_cache[key] = tables
        self._lut_misses += 1
        while len(self._lut_cache) > _LUT_CACHE_MAX:
            self._lut_cache.popitem(last=False)
            self._lut_evictions += 1
        return tables

    def lut_cache_stats(self) -> Dict[str, int]:
        """hits/misses/evictions/entries/bytes for this runner's LUTs."""
        nbytes = sum(lut.memory_bytes()
                     for tables in self._lut_cache.values()
                     for lut in tables)
        return {"hits": self._lut_hits, "misses": self._lut_misses,
                "evictions": self._lut_evictions,
                "entries": len(self._lut_cache), "bytes": nbytes}

    # -- setup --------------------------------------------------------------------

    def make_state(self, n_cells: int, vm_init: Optional[float] = None,
                   perturbation: float = 0.0,
                   rng: Optional[np.random.Generator] = None,
                   param_values=None) -> SimulationState:
        return allocate_state(self.model, self.layout, n_cells,
                              width=self.spec.width, vm_init=vm_init,
                              perturbation=perturbation, rng=rng,
                              param_values=param_values)

    # -- stepping ------------------------------------------------------------------

    def _bind_args(self, state: SimulationState, dt: float) -> list:
        """The prebound compute_step argument list for ``(state, dt)``.

        Rebuilt whenever the state object, dt, or the state-vector
        buffer identity changes (``set_state`` rebinds ``state.sv``, so
        a stale binding would silently step the old buffer).  External
        arrays are mutated in place by the solver and restore paths, so
        their identity is stable and safe to prebind.
        """
        bound = self._bound
        if (bound is not None and bound[0] is state and bound[1] == dt
                and bound[2] == id(state.sv)):
            return bound[3]
        args = [0, state.n_alloc, dt, state.time, state.sv]
        args += [state.externals[ext] for ext in self.model.externals]
        args += [state.params[p] for p in self.model.promoted_params]
        if self.spec.use_lut:
            args += self.luts_for(dt)
        self._bound = (state, dt, id(state.sv), args)
        return args

    def compute_step(self, state: SimulationState, dt: float) -> None:
        """One compute-stage invocation over all cells."""
        args = self._bind_args(state, dt)
        args[3] = state.time
        self.kernel.fn(*args)

    def solver_step(self, state: SimulationState, dt: float,
                    stimulus: Optional[Stimulus] = None) -> None:
        """The stubbed solver stage: explicit membrane potential update.

        dVm/dt = -(Iion + Istim); models that do not write an ionic
        current leave ``Vm`` untouched (the solver has nothing to do).
        """
        if "Vm" not in state.externals or "Iion" not in state.externals:
            return
        if "Iion" not in self.model.outputs:
            return
        istim = stimulus.current(state.time) if stimulus else 0.0
        vm = state.externals["Vm"]
        vm -= dt * (state.externals["Iion"] + istim)

    def _advance(self, state: SimulationState, n_steps: int, dt: float,
                 compute: Callable[[SimulationState, float], None],
                 stimulus: Optional[Stimulus],
                 hook: Optional[Callable[[SimulationState], None]],
                 until: float) -> int:
        """One run segment: :func:`advance` with this runner's solver
        stage.  The supervised tier overrides it to run the segment's
        steps in its workers."""
        return advance(state, n_steps, dt, compute, self.solver_step,
                       stimulus, hook, until)

    def run(self, state: SimulationState, n_steps: int, dt: float = 0.01,
            stimulus: Optional[Stimulus] = None,
            record_vm: bool = False, watchdog=None,
            step_hook: Optional[Callable[[SimulationState], None]] = None,
            time_breakdown: bool = False) -> RunResult:
        """Run the two-stage simulation for ``n_steps`` steps of ``dt``.

        With ``watchdog`` set (a ``WatchdogConfig`` or
        ``NumericalWatchdog``), the run is guarded: state is scanned
        for NaN/Inf every ``check_interval`` steps and the configured
        policy (raise / halve_dt / abort_cell_report) applies; the
        result then carries a ``health`` report.

        ``time_breakdown`` additionally clocks every compute-stage call
        so the result carries ``compute_seconds``/``overhead_seconds``.
        The two extra clock reads per step perturb the total, so timed
        benchmarks take their headline number from a plain run and use
        a separate breakdown run only for attribution.  On the
        supervised tier, whose workers run the solver stage too,
        ``compute_seconds`` is the summed wall time of the segments
        dispatched to them, solver stage included.
        """
        with _trace.span("run", model=self.model.name,
                         n_cells=state.n_cells, n_steps=n_steps, dt=dt,
                         guarded=watchdog is not None):
            try:
                result = self._run(state, n_steps, dt, stimulus,
                                   record_vm, watchdog, step_hook,
                                   time_breakdown)
            except Exception as err:
                self._ledger_run_row(state, n_steps, dt, result=None,
                                     error=err)
                raise
        self._ledger_run_row(state, n_steps, dt, result=result)
        return result

    def _ledger_run_row(self, state: SimulationState, n_steps: int,
                        dt: float, result, error=None) -> None:
        """One ``run`` row in the env-gated ledger (no-op when off)."""
        from ..obs import ledger as _ledger_mod
        if error is not None:
            disposition = f"error:{type(error).__name__}"
            sps = ttfs = None
        else:
            health = result.health
            if health is not None and health.aborted:
                disposition = "aborted"
            elif health is not None and not health.ok:
                disposition = "diverged"
            else:
                disposition = "ok"
            sps = result.steps_per_second
            ttfs = result.time_to_first_step
        _ledger_mod.record_event(
            "run", model=self.model.name, key=self.cache_key,
            cache=self.resolution.cache_outcome, tier=self.active_tier,
            compile_seconds=self.compile_seconds,
            time_to_first_step=ttfs, steps_per_second=sps,
            n_steps=n_steps, n_cells=state.n_cells, dt=dt,
            population=self.population, disposition=disposition)

    def _run(self, state: SimulationState, n_steps: int, dt: float,
             stimulus: Optional[Stimulus], record_vm: bool, watchdog,
             step_hook: Optional[Callable[[SimulationState], None]],
             time_breakdown: bool) -> RunResult:
        """Every run mode is :meth:`_advance` plus wrappers: the time
        breakdown clocks ``compute``, the Vm trace is a step hook, the
        first step is taken alone so it can be timed, and the watchdog
        advances in ``check_interval`` segments."""
        clock = _time.perf_counter
        compute = ClockedCompute(self.compute_step) if time_breakdown \
            else self.compute_step
        trace: Optional[List[float]] = None
        hook = step_hook
        if record_vm and "Vm" in state.externals:
            trace = []
            vm = state.externals["Vm"]

            def hook(st):
                trace.append(vm[0])
                if step_hook is not None:
                    step_hook(st)
        first_step = None
        start = clock()

        def step(n: int, cur_dt: float, until: float = inf) -> int:
            nonlocal first_step
            done = 0
            if first_step is None and n > 0:
                done = self._advance(state, 1, cur_dt, compute, stimulus,
                                     hook, until)
                if done:
                    first_step = clock() - start
            return done + self._advance(state, n - done, cur_dt, compute,
                                        stimulus, hook, until)

        health = None
        if watchdog is None:
            step(n_steps, dt)
        else:
            n_steps, dt, health = self._run_guarded(
                state, n_steps, dt, watchdog, step, trace)
        elapsed = clock() - start
        return RunResult(
            state=state, n_steps=n_steps, dt=dt, elapsed_seconds=elapsed,
            vm_trace=None if trace is None else np.asarray(trace, float),
            health=health,
            compute_seconds=compute.seconds if time_breakdown else None,
            compile_seconds=self.compile_seconds,
            time_to_first_step=None if first_step is None
            else self.compile_seconds + first_step)

    # -- the guarded (watchdog) path ----------------------------------------------

    def _run_guarded(self, state: SimulationState, n_steps: int, dt: float,
                     watchdog, step: Callable[..., int],
                     trace: Optional[List[float]]):
        """Drive ``step`` towards the target time under the watchdog;
        returns ``(steps executed, final dt, health report)``."""
        from ..resilience.diagnostics import DivergenceEvent
        from ..resilience.watchdog import (NumericalDivergenceError,
                                           NumericalWatchdog,
                                           WatchdogConfig)
        if isinstance(watchdog, NumericalWatchdog):
            guard = watchdog
        elif isinstance(watchdog, WatchdogConfig):
            guard = NumericalWatchdog(watchdog)
        else:
            raise TypeError(f"watchdog must be a WatchdogConfig or "
                            f"NumericalWatchdog, got {watchdog!r}")
        config = guard.config
        report = guard.new_report(dt)
        target_time = state.time + n_steps * dt
        eps = dt * 1e-9
        checkpoint: StateCheckpoint = state.checkpoint()
        trace_mark = 0
        cur_dt = dt
        executed = 0
        while state.time < target_time - eps:
            executed += step(config.check_interval, cur_dt,
                             target_time - eps)
            report.checks += 1
            bad = guard.scan(state)
            if not bad:
                checkpoint = state.checkpoint()
                if trace is not None:
                    trace_mark = len(trace)
                continue
            event = DivergenceEvent(step=state.steps_done, time=state.time,
                                    dt=cur_dt, arrays=bad)
            report.events.append(event)
            _trace.instant("watchdog_divergence", step=state.steps_done,
                           dt=cur_dt, arrays=list(bad))
            report.ok = False
            if config.policy == "raise":
                report.final_dt = cur_dt
                raise NumericalDivergenceError(
                    f"non-finite values in {bad} at t={state.time:g} "
                    f"(dt={cur_dt:g})", report)
            if config.policy == "abort_cell_report":
                report.diverged_cells = guard.diverged_cells(state)
                state.restore(checkpoint)
                if trace is not None:
                    del trace[trace_mark:]
                event.action = "aborted"
                report.aborted = True
                break
            # halve_dt: bounded checkpoint-and-retry backoff
            next_dt = cur_dt * config.dt_factor
            if report.retries >= config.max_retries or \
                    next_dt < config.min_dt:
                report.final_dt = cur_dt
                raise NumericalDivergenceError(
                    f"divergence persisted after {report.retries} "
                    f"dt-halving retries (dt={cur_dt:g}, arrays={bad})",
                    report)
            state.restore(checkpoint)
            if trace is not None:
                del trace[trace_mark:]
            event.action = "rolled_back"
            report.retries += 1
            cur_dt = next_dt
        report.final_dt = cur_dt
        report.ok = not report.aborted and not guard.scan(state)
        return executed, cur_dt, report

    def profile_report(self, invocations: int = 0):
        """The per-op hot report for a ``profile=True`` runner.

        Call after one or more :meth:`run` calls; the counters
        accumulate across runs.  Raises ``ValueError`` on a runner that
        was not built with ``profile=True``.
        """
        from ..obs.profiler import KernelProfileReport
        return KernelProfileReport.from_kernel(self.kernel,
                                               model=self.model.name,
                                               invocations=invocations)

    def simulate(self, n_cells: int, n_steps: int, dt: float = 0.01,
                 stimulus: Optional[Stimulus] = None,
                 perturbation: float = 0.0,
                 record_vm: bool = False, watchdog=None) -> RunResult:
        """Allocate, run, return — the one-call benchmark entry point."""
        state = self.make_state(n_cells, perturbation=perturbation)
        return self.run(state, n_steps, dt, stimulus, record_vm,
                        watchdog=watchdog)


@dataclass
class TrajectoryComparison:
    """Result of :func:`compare_trajectories` — truthy when equivalent.

    ``mismatches`` lists the state/external keys that disagree;
    ``nan_keys`` the keys containing NaN in either snapshot (always
    mismatches: two NaN-diverged runs must NOT compare equal).
    """

    equivalent: bool
    mismatches: List[str] = field(default_factory=list)
    nan_keys: List[str] = field(default_factory=list)
    missing_keys: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent

    def __str__(self) -> str:
        return str(self.equivalent)      # drop-in for the old bool return

    def describe(self) -> str:
        if self.equivalent:
            return "trajectories equivalent"
        parts = []
        if self.missing_keys:
            parts.append(f"keys only on one side: "
                         f"{', '.join(self.missing_keys)}")
        if self.mismatches:
            parts.append(f"mismatched: {', '.join(self.mismatches)}")
        if self.nan_keys:
            parts.append(f"NaN present in: {', '.join(self.nan_keys)}")
        return "trajectories differ (" + "; ".join(parts) + ")"


def compare_trajectories(a: SimulationState, b: SimulationState,
                         rtol: float = 1e-9, atol: float = 1e-11
                         ) -> TrajectoryComparison:
    """Compare two runs' states and externals within tolerance.

    Returns a truthy :class:`TrajectoryComparison`.  Any NaN in either
    snapshot makes its key a mismatch — two diverged runs never
    "agree" — and the mismatching keys are reported so the watchdog's
    health report (and ``limpet-bench compare``) can say *what*
    disagreed, not just that something did.
    """
    snap_a, snap_b = a.snapshot(), b.snapshot()
    missing = sorted(set(snap_a) ^ set(snap_b))
    mismatches: List[str] = []
    nan_keys: List[str] = []
    for key in sorted(set(snap_a) & set(snap_b)):
        va, vb = snap_a[key], snap_b[key]
        has_nan = bool((~np.isfinite(va)).any() or (~np.isfinite(vb)).any())
        if has_nan:
            nan_keys.append(key)
            mismatches.append(key)
        elif not np.allclose(va, vb, rtol=rtol, atol=atol):
            mismatches.append(key)
    equivalent = not missing and not mismatches
    return TrajectoryComparison(equivalent=equivalent,
                                mismatches=mismatches, nan_keys=nan_keys,
                                missing_keys=missing)
