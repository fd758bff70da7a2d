"""The bench-binary analog: build, run and model every configuration.

openCARP ships a ``bench`` executable that runs a 100,000-step
simulation of one ionic model over a mesh of cells (§4).  This module
is its equivalent entry point, in two modes:

* **measured** — wall-clock of the two real execution engines
  (scalar-interpreted baseline vs NumPy-vectorized limpetMLIR kernels),
  at a laptop-friendly scale;
* **modeled** — the calibrated Cascade Lake cost model evaluated on the
  kernels' actual IR at the paper's scale (8192 cells, 100k steps, 1–32
  threads, SSE/AVX2/AVX-512), which regenerates every figure.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

from ..codegen import BackendMode, GeneratedKernel, generate
from ..frontend import IonicModel
from ..ir.passes import default_pipeline
from ..machine import (AVX512, CostModel, KernelProfile, VectorISA,
                       profile_kernel)
from ..models import SIZE_CLASS, all_model_files, load_model
from ..resilience import (Diagnostic, HealthReport,
                          NumericalDivergenceError, Severity,
                          WatchdogConfig, compile_resilient)
from ..runtime import KernelRunner, Stimulus
from .timing import measure

#: the paper's bench defaults (§4): 100k steps of 0.01 ms over 8192 cells
PAPER_CELLS = 8192
PAPER_STEPS = 100_000
PAPER_DT = 0.01

#: backend variants the evaluation exercises -> generator coordinates
_VARIANT_COORDS = {
    "baseline": dict(backend="baseline"),
    "limpet_mlir": dict(backend="limpet_mlir"),
    "limpet_mlir_aos": dict(backend="limpet_mlir", layout="aos"),
    "icc_simd": dict(backend="icc_simd"),
    "limpet_mlir_nolut": dict(backend="limpet_mlir", use_lut=False),
    "baseline_nolut": dict(backend="baseline", use_lut=False),
}
VARIANTS = tuple(_VARIANT_COORDS)


@dataclass(frozen=True)
class BenchConfig:
    """One bench invocation's parameters."""

    n_cells: int = PAPER_CELLS
    n_steps: int = PAPER_STEPS
    dt: float = PAPER_DT
    stimulus_amplitude: float = -20.0
    stimulus_period: float = 400.0
    perturbation: float = 0.005

    def stimulus_for(self, model: IonicModel) -> Stimulus:
        amplitude = self.stimulus_amplitude
        # normalized-voltage models (resting near 0) get a small pulse
        if abs(model.external_init.get("Vm", 0.0)) < 5.0:
            amplitude = -0.3
        return Stimulus(amplitude=amplitude, duration=1.0,
                        period=self.stimulus_period)


def generate_variant(model: IonicModel, variant: str,
                     width: int = 8) -> GeneratedKernel:
    """Build one backend variant's kernel for ``model``."""
    coords = _VARIANT_COORDS.get(variant)
    if coords is None:
        raise ValueError(f"unknown variant {variant!r}; one of {VARIANTS}")
    return generate(model, width=width, **coords)


@lru_cache(maxsize=512)
def _cached_profile(model_name: str, variant: str,
                    width: int) -> KernelProfile:
    model = load_model(model_name)
    kernel = generate_variant(model, variant, width)
    default_pipeline(verify_each=False).run(kernel.module, fixed_point=True)
    return profile_kernel(kernel.module, kernel.spec.function_name)


@lru_cache(maxsize=256)
def _cached_runner(model_name: str, variant: str, width: int) -> KernelRunner:
    model = load_model(model_name)
    return KernelRunner(generate_variant(model, variant, width))


def kernel_profile(model_name: str, variant: str = "limpet_mlir",
                   width: int = 8) -> KernelProfile:
    """The optimized kernel's instruction profile (cached)."""
    return _cached_profile(model_name, variant, width)


_VARIANT_MODE = {
    "baseline": BackendMode.BASELINE,
    "baseline_nolut": BackendMode.BASELINE,
    "limpet_mlir": BackendMode.LIMPET_MLIR,
    "limpet_mlir_aos": BackendMode.LIMPET_MLIR,
    "limpet_mlir_nolut": BackendMode.LIMPET_MLIR,
    "icc_simd": BackendMode.ICC_SIMD,
}


@dataclass
class ModeledRun:
    """Cost-model evaluation of one (model, variant, isa, threads) point."""

    model: str
    variant: str
    isa: str
    threads: int
    seconds: float
    size_class: str


class ModeledBench:
    """Evaluates the full suite on the modeled Cascade Lake testbed."""

    def __init__(self, cost_model: Optional[CostModel] = None,
                 n_cells: int = PAPER_CELLS, n_steps: int = PAPER_STEPS):
        self.cost = cost_model or CostModel()
        self.n_cells = n_cells
        self.n_steps = n_steps

    def seconds(self, model_name: str, variant: str = "limpet_mlir",
                isa: VectorISA = AVX512, threads: int = 1) -> float:
        width = 1 if variant.startswith("baseline") else isa.width
        profile = kernel_profile(model_name, variant, width)
        return self.cost.total_time(profile, isa, threads, self.n_cells,
                                    self.n_steps, _VARIANT_MODE[variant])

    def run(self, model_name: str, variant: str = "limpet_mlir",
            isa: VectorISA = AVX512, threads: int = 1) -> ModeledRun:
        return ModeledRun(model=model_name, variant=variant, isa=isa.name,
                          threads=threads,
                          seconds=self.seconds(model_name, variant, isa,
                                               threads),
                          size_class=SIZE_CLASS[model_name])

    def speedup(self, model_name: str, isa: VectorISA = AVX512,
                threads: int = 1, variant: str = "limpet_mlir") -> float:
        """baseline time / variant time at the same point (Fig. 2/3)."""
        return (self.seconds(model_name, "baseline", isa, threads)
                / self.seconds(model_name, variant, isa, threads))


@dataclass
class MeasuredRun:
    """Wall-clock of one real-engine execution."""

    model: str
    variant: str
    width: int
    n_cells: int
    n_steps: int
    seconds: float


def run_measured(model_name: str, variant: str = "limpet_mlir",
                 width: int = 8, n_cells: int = 512, n_steps: int = 50,
                 dt: float = PAPER_DT, runs: int = 5,
                 config: Optional[BenchConfig] = None) -> MeasuredRun:
    """Time a real execution with the paper's 5-run protocol.

    Scales are smaller than the paper's (the baseline engine is an
    interpreter); speedup *ratios* between variants are the meaningful
    output.
    """
    runner = _cached_runner(model_name, variant, width)
    config = config or BenchConfig(n_cells=n_cells, n_steps=n_steps, dt=dt)
    stimulus = config.stimulus_for(runner.model)

    def one_run():
        runner.simulate(n_cells, n_steps, dt, stimulus,
                        perturbation=config.perturbation)

    seconds = measure(one_run, runs=runs)
    return MeasuredRun(model=model_name, variant=variant, width=width,
                       n_cells=n_cells, n_steps=n_steps, seconds=seconds)


# ---------------------------------------------------------------------------
# Resilient sweep: the figure-run workhorse that survives bad models
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    """Per-model outcome of a resilient sweep (never an exception)."""

    model: str
    ok: bool
    backend: Optional[str] = None       # tier that compiled (None = none)
    fell_back: bool = False
    seconds: Optional[float] = None
    health: Optional[HealthReport] = None
    #: execution tier the run finished on (None = it never started)
    tier: Optional[str] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)

    @property
    def status(self) -> str:
        if not self.ok:
            return "FAILED"
        if self.health is not None and self.health.retries:
            return "recovered"
        return "fell_back" if self.fell_back else "ok"


def resilient_sweep(model_names: Optional[Sequence[str]] = None,
                    width: int = 8, n_cells: int = 32, n_steps: int = 40,
                    dt: float = PAPER_DT,
                    watchdog: Optional[WatchdogConfig] = None,
                    strict: bool = False,
                    reproducer_dir: Optional[pathlib.Path] = None,
                    inject_factory: Optional[Callable[[str], object]] = None,
                    workers: int = 0, supervision=None
                    ) -> List[SweepRecord]:
    """Run every model through the resilient compile-and-run pipeline.

    This is what keeps a full figure sweep alive: each model compiles
    down the backend fallback chain (sandboxed passes, quarantine,
    reproducers) and runs under the numerical watchdog; any failure is
    captured as a :class:`SweepRecord` with diagnostics instead of
    aborting the sweep.  ``inject_factory(model_name)`` may return a
    :class:`~repro.resilience.FaultInjector` per model (fault drills).

    A parallel ``workers`` count (``make_runner``'s rule) executes each
    model on the supervised multiprocess tier, configured by
    ``supervision``: worker crashes are retried and supervision
    failures degrade down the tier ladder, so the sweep completes under
    injected process faults too.  The injector's
    :class:`~repro.resilience.FaultPlan` process-fault fields
    (``kill_worker``/``stall_worker``) are honored per model.
    """
    names = list(model_names) if model_names is not None \
        else list(all_model_files())
    guard = watchdog or WatchdogConfig()
    records: List[SweepRecord] = []
    for name in names:
        inject = inject_factory(name) if inject_factory else None
        record = SweepRecord(model=name, ok=False)
        records.append(record)
        try:
            compiled = compile_resilient(
                name, width=width, strict=strict,
                reproducer_dir=reproducer_dir, inject=inject,
                workers=workers, supervision=supervision)
        except Exception as err:  # noqa: BLE001 - sweep survives anything
            record.diagnostics.extend(getattr(err, "diagnostics", []))
            record.diagnostics.append(Diagnostic.from_exception(
                stage="compile", component="chain", exc=err,
                severity=Severity.ERROR, with_traceback=False, model=name))
            continue
        record.backend = compiled.backend
        record.fell_back = compiled.fell_back
        record.diagnostics.extend(compiled.diagnostics)
        hook = inject.step_hook if inject is not None else None
        runner = compiled.runner
        try:
            state = runner.make_state(n_cells)
            result = runner.run(state, n_steps, dt,
                                watchdog=guard, step_hook=hook)
        except NumericalDivergenceError as err:
            record.health = err.report
            record.diagnostics.append(Diagnostic.from_exception(
                stage="run", component=name, exc=err,
                severity=Severity.ERROR, with_traceback=False))
            continue
        except Exception as err:  # noqa: BLE001 - sweep survives anything
            record.diagnostics.append(Diagnostic.from_exception(
                stage="run", component=name, exc=err,
                severity=Severity.ERROR))
            continue
        finally:
            record.tier = runner.active_tier
            record.diagnostics.extend(runner.diagnostics)
            runner.close()
        record.health = result.health
        record.seconds = result.elapsed_seconds
        record.ok = bool(result.health is None or result.health.ok)
    return records


def format_sweep_table(records: Sequence[SweepRecord],
                       title: str = "resilient sweep") -> str:
    """Render sweep records as the CLI/CI report table."""
    lines = [title,
             f"{'model':<24} {'backend':<12} {'status':<10} "
             f"{'retries':>7}  notes"]
    for rec in records:
        retries = rec.health.retries if rec.health else 0
        notes = "; ".join(
            d.message.split("\n")[0][:48] for d in rec.diagnostics
            if d.severity is not Severity.INFO)[:72]
        lines.append(f"{rec.model:<24} {rec.backend or '-':<12} "
                     f"{rec.status:<10} {retries:>7}  {notes}")
    n_ok = sum(1 for r in records if r.ok)
    lines.append(f"{n_ok}/{len(records)} models completed "
                 f"({sum(1 for r in records if r.fell_back)} via fallback, "
                 f"{sum(1 for r in records if r.health and r.health.retries)}"
                 f" recovered by dt-halving)")
    return "\n".join(lines)
