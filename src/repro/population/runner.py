"""Population execution: one kernel advancing N parameter-perturbed
model instances.

Instead of N sequential :class:`~repro.runtime.KernelRunner` runs, the
population layer compiles the model once with the swept parameters
*promoted* from baked-in constants to per-cell arrays, flattens the
(instance × cell) axes into one instance-major cell range, and
advances all ``N × cells_per_instance`` cells per kernel call.  The
per-instance parameter value is broadcast over the instance's cells,
so the kernel body is the ordinary vectorized cell loop — the batch
axis is just more cells (the NMODL move applied to limpet kernels).

Bitwise guarantee: the batched run and a loop of N single-instance
runs use the *same* promoted kernel, whose lane semantics are
elementwise — trajectories are bitwise identical, which
``tests/test_population.py`` enforces across layouts × widths ×
ragged cell counts × execution tiers.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..codegen import backend_for, check_population_legality, generate
from ..frontend.model import IonicModel
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..runtime.executor import KernelRunner, RunResult, Stimulus
from ..runtime.state import SimulationState
from ..runtime.tiers import make_runner
from .spec import PopulationSpec


@lru_cache(maxsize=64)
def load_promoted_model(name: str,
                        promote_params: Tuple[str, ...]) -> IonicModel:
    """A registry model re-analyzed with ``promote_params`` runtime-bound.

    Cached: every sweep of the same (model, params) shape shares one
    analysis, exactly as it shares one compiled kernel.
    """
    from ..frontend import load_model_file
    from ..models.registry import model_entry
    return load_model_file(model_entry(name).path,
                           promote_params=promote_params)


class PopulationRunResult:
    """Per-instance view over one batched population run."""

    def __init__(self, flat: RunResult, spec: PopulationSpec,
                 cells_per_instance: int,
                 vm_traces: Optional[np.ndarray] = None,
                 compile_reused: bool = False):
        #: the underlying flat run over all N × cells_per_instance cells
        self.flat = flat
        self.spec = spec
        self.cells_per_instance = cells_per_instance
        #: (n_steps, n_instances) Vm of each instance's first cell, or
        #: ``None`` when the run did not record traces
        self.vm_traces = vm_traces
        #: True when the compiled kernel came from the persistent cache
        self.compile_reused = compile_reused

    @property
    def n_instances(self) -> int:
        return self.spec.n_instances

    @property
    def n_steps(self) -> int:
        return self.flat.n_steps

    @property
    def elapsed_seconds(self) -> float:
        return self.flat.elapsed_seconds

    @property
    def steps_per_second(self) -> float:
        return self.flat.steps_per_second

    @property
    def cell_steps_per_second(self) -> float:
        """Aggregate cell·steps/s — the flat run already spans all
        instances' cells, so no extra multiplier is needed here."""
        return self.flat.cell_steps_per_second

    def instance_state_matrix(self, i: int) -> np.ndarray:
        """(cells_per_instance, n_states) final state of instance ``i``."""
        self._check_index(i)
        c = self.cells_per_instance
        return self.flat.state.state_matrix()[i * c:(i + 1) * c]

    def instance_param(self, name: str, i: int) -> float:
        self._check_index(i)
        return float(self.spec.values[name][i])

    def vm_trace_of(self, i: int) -> Optional[np.ndarray]:
        if self.vm_traces is None:
            return None
        self._check_index(i)
        return self.vm_traces[:, i]

    def instance_result(self, i: int) -> RunResult:
        self._check_index(i)
        c = self.cells_per_instance
        flat_state = self.flat.state
        from ..runtime.state import allocate_state
        values = {name: float(self.spec.values[name][i])
                  for name in self.spec.values}
        state = allocate_state(flat_state.model, flat_state.layout, c,
                               param_values=values)
        state.set_state(self.instance_state_matrix(i))
        for name, array in flat_state.externals.items():
            state.externals[name][:c] = array[i * c:(i + 1) * c]
            state.externals[name][c:] = array[i * c + c - 1] if c else 0.0
        state.time = flat_state.time
        state.steps_done = flat_state.steps_done
        return RunResult(state=state, n_steps=self.flat.n_steps,
                         dt=self.flat.dt,
                         elapsed_seconds=self.flat.elapsed_seconds,
                         vm_trace=self.vm_trace_of(i),
                         instances=self.n_instances)

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_instances:
            raise IndexError(f"instance {i} out of range "
                             f"[0, {self.n_instances})")


class PopulationRunner:
    """Compile once, advance N parameter-perturbed instances per step.

    ``model`` is a registry model name (promoted analysis is cached) or
    an already-promoted :class:`IonicModel` whose ``promoted_params``
    cover the spec.  Foreign models are never an error: they batch
    through the scalar baseline kernel instead of the vectorized one.

    ``n_workers`` > 1 shards the flattened (instance × cell) axis over
    supervised worker processes (crash isolation; the tier is chosen by
    :func:`~repro.runtime.tiers.make_runner`).  The batch axis is just
    more cells, so the shards are the plain width-aligned cell split
    (:func:`~repro.runtime.sharded.shard_bounds`) and may cut through
    an instance.
    """

    def __init__(self, model, spec: PopulationSpec,
                 width: int = 8, layout: Optional[str] = None,
                 use_lut: bool = True, n_workers: int = 0,
                 cache=None, **runner_kwargs):
        self.spec = spec
        self.model = self._promoted_model(model, spec)
        report = check_population_legality(self.model, spec.param_names)
        if not report.vectorizable:
            raise ValueError(report.describe())
        self.legality = report
        self.n_workers = n_workers
        self._runner_kwargs = dict(runner_kwargs)
        self._runner_kwargs["cache"] = cache
        self.foreign = bool(self.model.foreign_functions)
        self.generated = generate(
            self.model, backend_for("limpet_mlir", width, self.foreign),
            width=width, layout=layout, use_lut=use_lut)
        self._runner: Optional[KernelRunner] = None
        self._runner_cells: Optional[int] = None

    @staticmethod
    def _promoted_model(model, spec: PopulationSpec) -> IonicModel:
        if isinstance(model, IonicModel):
            missing = [p for p in spec.param_names
                       if p not in model.promoted_params]
            if not missing:
                return model
            from ..models.registry import model_entry
            try:
                model_entry(model.name)
            except Exception:
                raise ValueError(
                    f"model {model.name} does not promote "
                    f"{missing} and is not in the registry; analyze it "
                    f"with promote_params={list(spec.param_names)}")
            model = model.name
        promote = tuple(spec.param_names)
        return load_promoted_model(str(model), promote)

    # -- tier construction ---------------------------------------------------------

    def runner_for(self, cells_per_instance: int) -> KernelRunner:
        """The execution-tier runner for this population geometry."""
        if self._runner is not None and \
                self._runner_cells == cells_per_instance:
            return self._runner
        self.close()
        self._runner = make_runner(
            self.generated, workers=self.n_workers,
            population=self.spec.fingerprint(), **self._runner_kwargs)
        self._runner_cells = cells_per_instance
        return self._runner

    @property
    def cache_hit(self) -> bool:
        return self._runner is not None and self._runner.cache_hit

    @property
    def cache_key(self) -> Optional[str]:
        return self._runner.cache_key if self._runner is not None else None

    def close(self) -> None:
        if self._runner is not None:
            self._runner.close()
        self._runner = None
        self._runner_cells = None

    def __enter__(self) -> "PopulationRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- state ---------------------------------------------------------------------

    def make_state(self, cells_per_instance: int,
                   vm_init: Optional[float] = None,
                   perturbation: float = 0.0,
                   rng=None) -> SimulationState:
        """Instance-major flat state: cell ``i*c + j`` is instance i's
        cell j.  Parameter arrays broadcast each instance's value over
        its cells (padding replicates the last instance's value)."""
        if cells_per_instance < 1:
            raise ValueError("cells_per_instance must be >= 1")
        runner = self.runner_for(cells_per_instance)
        n = self.spec.n_instances
        flat_cells = n * cells_per_instance
        param_values = {
            name: np.repeat(vals, cells_per_instance)
            for name, vals in self.spec.values.items()}
        return runner.make_state(flat_cells, vm_init=vm_init,
                                 perturbation=perturbation, rng=rng,
                                 param_values=param_values)

    # -- running -------------------------------------------------------------------

    def run(self, state: SimulationState, n_steps: int, dt: float = 0.01,
            stimulus: Optional[Stimulus] = None,
            record_vm: bool = False, watchdog=None,
            time_breakdown: bool = False) -> PopulationRunResult:
        """Advance the whole population ``n_steps`` in one batched run."""
        c = state.n_cells // self.spec.n_instances
        if c * self.spec.n_instances != state.n_cells:
            raise ValueError(
                f"state has {state.n_cells} cells, not a multiple of "
                f"{self.spec.n_instances} instances")
        runner = self.runner_for(c)
        _metrics.gauge(
            "population_instances",
            "instances advanced per kernel call by the latest "
            "population run").set(self.spec.n_instances)
        traces: Optional[np.ndarray] = None
        hook = None
        if record_vm and "Vm" in state.externals:
            vm = state.externals["Vm"]
            first_cells = np.arange(self.spec.n_instances) * c
            traces = np.empty((n_steps, self.spec.n_instances))
            counter = [0]

            def hook(st, _traces=traces, _vm=vm, _idx=first_cells,
                     _ctr=counter):
                if _ctr[0] < n_steps:
                    _traces[_ctr[0]] = _vm[_idx]
                _ctr[0] += 1
        with _trace.span("population_run", model=self.model.name,
                         instances=self.spec.n_instances,
                         cells_per_instance=c, n_steps=n_steps):
            flat = runner.run(state, n_steps, dt, stimulus=stimulus,
                              record_vm=False, watchdog=watchdog,
                              step_hook=hook,
                              time_breakdown=time_breakdown)
        from ..obs import ledger as _ledger
        _ledger.record_event(
            "population_run", model=self.model.name,
            population=self.spec.fingerprint(),
            instances=self.spec.n_instances, cells_per_instance=c,
            tier=runner.active_tier,
            n_steps=n_steps, dt=dt,
            steps_per_second=flat.steps_per_second,
            disposition="ok")
        return PopulationRunResult(flat, self.spec, c, vm_traces=traces,
                                   compile_reused=runner.cache_hit)

    def simulate(self, cells_per_instance: int, n_steps: int,
                 dt: float = 0.01, stimulus: Optional[Stimulus] = None,
                 perturbation: float = 0.0,
                 record_vm: bool = False) -> PopulationRunResult:
        """Allocate, run, return — the one-call population entry point."""
        state = self.make_state(cells_per_instance,
                                perturbation=perturbation)
        return self.run(state, n_steps, dt, stimulus=stimulus,
                        record_vm=record_vm)
