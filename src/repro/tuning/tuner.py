"""The kernel autotuner: enumerate -> rank -> measure -> persist.

:func:`autotune` is the four-stage pipeline of this package:

1. **enumerate** the legal space (:mod:`repro.tuning.space`);
2. **rank** it with the runtime-calibrated cost model fed by real IR
   profiles (:mod:`repro.tuning.costrank`);
3. **measure-refine** the top-K candidates (the untuned default is
   always force-included, so the winner can never lose to it) with the
   interleaved steady-state harness of :mod:`repro.bench.timing`;
4. **persist** the decision in the :class:`~repro.tuning.database.TuningDB`
   keyed by :func:`~repro.tuning.database.tuning_db_key`, so the next
   tune of the same workload is a pure DB hit (zero measurements).

The recorded result keeps the cost-model-predicted vs measured ranking
so tuner accuracy is reportable (``tune --report --check`` asserts the
predicted top-1 lands in the measured top-3, up to timing noise, for
most workloads).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from ..bench.timing import TimingStats, interleaved_steady_state
from ..frontend.model import IonicModel
from ..models import load_model
from ..obs import metrics as _metrics
from ..obs import trace as _trace
from ..runtime import KernelRunner, make_runner
from .costrank import PredictedCandidate, generate_for, predict_ranking
from .database import TuningDB, tuning_db_key
from .space import (TuningConfig, Workload, default_config_for,
                    enumerate_space)

#: tuner measurement defaults: small enough for construction-time use,
#: large enough that the interleaved median separates real gaps
DEFAULT_TUNE_STEPS = 20
DEFAULT_TUNE_REPEATS = 5
DEFAULT_TOP_K = 5


def build_runner(model: Union[str, IonicModel], config: TuningConfig,
                 **runner_kwargs) -> KernelRunner:
    """A runner executing ``model`` under ``config``, on the thread
    tier when the config asks for more than one shard."""
    if isinstance(model, str):
        model = load_model(model)
    return make_runner(generate_for(model, config), threads=config.shards,
                       fuse=config.fuse, arena=config.arena,
                       **runner_kwargs)


@dataclass
class CandidateResult:
    """One measured candidate of the refinement stage."""

    config: TuningConfig
    predicted_seconds: float
    predicted_rank: int
    measured_seconds: Optional[float] = None    # median of repeats
    measured_iqr: Optional[float] = None
    measured_rank: Optional[int] = None
    is_default: bool = False

    def as_dict(self) -> Dict:
        return {"config": self.config.as_dict(),
                "predicted_seconds": self.predicted_seconds,
                "predicted_rank": self.predicted_rank,
                "measured_seconds": self.measured_seconds,
                "measured_iqr": self.measured_iqr,
                "measured_rank": self.measured_rank,
                "is_default": self.is_default}


@dataclass
class TuningResult:
    """Outcome of one :func:`autotune` call."""

    workload: Workload
    key: str
    winner: TuningConfig
    default_config: TuningConfig
    from_db: bool = False
    measurements: int = 0               # timed samples taken (0 on DB hit)
    space_size: int = 0
    candidates: List[CandidateResult] = field(default_factory=list)
    default_seconds: Optional[float] = None
    winner_seconds: Optional[float] = None
    #: did the cost model's top-1 land in the measured top-3?
    top1_in_measured_top3: Optional[bool] = None

    @property
    def speedup_vs_default(self) -> Optional[float]:
        if not self.default_seconds or not self.winner_seconds:
            return None
        return self.default_seconds / max(self.winner_seconds, 1e-12)

    def describe(self) -> str:
        head = f"{self.workload.describe()}: {self.winner.describe()}"
        if self.from_db:
            return head + " (tuning DB hit, 0 measurements)"
        speed = self.speedup_vs_default
        tail = f", {speed:.2f}x vs default" if speed else ""
        return (f"{head} ({self.space_size}-point space, "
                f"{len(self.candidates)} measured{tail})")

    def as_dict(self) -> Dict:
        return {
            "workload": {"model": self.workload.model,
                         "n_cells": self.workload.n_cells,
                         "dt": self.workload.dt,
                         "integrator": self.workload.integrator,
                         "machine": self.workload.machine},
            "key": self.key,
            "config": self.winner.as_dict(),
            "default_config": self.default_config.as_dict(),
            "from_db": self.from_db,
            "measurements": self.measurements,
            "space_size": self.space_size,
            "candidates": [c.as_dict() for c in self.candidates],
            "default_seconds": self.default_seconds,
            "winner_seconds": self.winner_seconds,
            "speedup_vs_default": self.speedup_vs_default,
            "top1_in_measured_top3": self.top1_in_measured_top3,
        }


def _measure_candidates(model: IonicModel,
                        candidates: List[CandidateResult],
                        workload: Workload, n_steps: int,
                        repeats: int) -> int:
    """Interleaved steady-state measurement of every candidate.

    Each candidate gets a preallocated state restored from a checkpoint
    before every sample, so all samples of all candidates walk the
    identical trajectory; the summarized numbers are the runner's own
    ``elapsed_seconds`` (the stepped loop only).  Returns the number of
    timed samples taken.
    """
    samples: List[List[float]] = [[] for _ in candidates]
    fns = []
    for slot, candidate in enumerate(candidates):
        runner = build_runner(model, candidate.config)
        state = runner.make_state(workload.n_cells)
        checkpoint = state.checkpoint()

        def fn(runner=runner, state=state, checkpoint=checkpoint,
               bucket=samples[slot]):
            state.restore(checkpoint)
            result = runner.run(state, n_steps, workload.dt)
            bucket.append(result.elapsed_seconds)

        fns.append(fn)
    interleaved_steady_state(fns, warmup=1, repeats=repeats)
    taken = 0
    for candidate, bucket in zip(candidates, samples):
        stats = TimingStats(samples=bucket[1:])     # drop the warmup
        candidate.measured_seconds = stats.median
        candidate.measured_iqr = stats.iqr
        taken += len(stats.samples)
    measured_order = sorted(candidates,
                            key=lambda c: c.measured_seconds)
    for rank, candidate in enumerate(measured_order):
        candidate.measured_rank = rank
    return taken


def _within_noise(slower: CandidateResult,
                  faster: CandidateResult) -> bool:
    """Is ``slower``'s median inside the harness's noise band of
    ``faster``'s (the larger of the two IQRs)?  Then the harness cannot
    tell them apart."""
    noise = max(slower.measured_iqr or 0.0, faster.measured_iqr or 0.0)
    return slower.measured_seconds - faster.measured_seconds <= noise


def _pick_winner(candidates: List[CandidateResult]) -> CandidateResult:
    """Fastest measured candidate, noise-tie-broken toward the default:
    a tuned config must beat the default by more than the harness can
    be wrong about."""
    best = min(candidates, key=lambda c: c.measured_seconds)
    default = next((c for c in candidates if c.is_default), None)
    if default is not None and _within_noise(default, best):
        return default
    return best


def _top1_agrees(candidates: List[CandidateResult]) -> bool:
    """Did the cost model's first pick measure among the three fastest?
    Where the whole space runs within the noise band that breaks the
    winner's ties, rank alone is a coin flip, so a pick no slower than
    the third-fastest by more than that band agrees too."""
    top1 = next(c for c in candidates if c.predicted_rank == 0)
    third = sorted(candidates, key=lambda c: c.measured_seconds)[:3][-1]
    return _within_noise(top1, third)


def autotune(model: Union[str, IonicModel], n_cells: int = 512,
             dt: float = 0.01, n_steps: int = DEFAULT_TUNE_STEPS,
             top_k: int = DEFAULT_TOP_K,
             repeats: int = DEFAULT_TUNE_REPEATS,
             db: Optional[TuningDB] = None, force: bool = False,
             include_worst: bool = False,
             machine: str = "python-numpy") -> TuningResult:
    """Tune one workload; see the module docstring for the stages.

    ``force=True`` ignores (and overwrites) an existing DB record.
    ``include_worst=True`` additionally measures the cost model's
    predicted-worst config — the ablation's "worst of space" row.
    """
    if isinstance(model, str):
        model = load_model(model)
    workload = Workload.from_model(model, n_cells, dt, machine=machine)
    db = db if db is not None else TuningDB()
    key = tuning_db_key(workload)

    if not force:
        record = db.get(key)
        config = db.get_config(key)
        if config is not None:
            return TuningResult(
                workload=workload, key=key, winner=config,
                default_config=default_config_for(model),
                from_db=True, measurements=0,
                space_size=int(record.get("space_size", 0)),
                default_seconds=record.get("default_seconds"),
                winner_seconds=record.get("winner_seconds"),
                top1_in_measured_top3=record.get("top1_in_measured_top3"))

    # 1. enumerate + 2. rank
    space = enumerate_space(model)
    predicted: List[PredictedCandidate] = predict_ranking(
        model, workload, space)

    # 3. measure-refine top-K (default always included; optionally the
    #    predicted-worst for the ablation)
    default_config = default_config_for(model)
    chosen: List[PredictedCandidate] = list(predicted[:max(top_k, 1)])
    if not any(p.config == default_config for p in chosen):
        chosen.append(next(p for p in predicted
                           if p.config == default_config))
    if include_worst and not any(p.config == predicted[-1].config
                                 for p in chosen):
        chosen.append(predicted[-1])
    candidates = [CandidateResult(config=p.config,
                                  predicted_seconds=p.predicted_seconds,
                                  predicted_rank=p.predicted_rank,
                                  is_default=p.config == default_config)
                  for p in chosen]
    with _trace.span("tune", model=model.name, n_cells=n_cells, dt=dt,
                     candidates=len(candidates)):
        measurements = _measure_candidates(model, candidates, workload,
                                           n_steps, repeats)
    _metrics.counter("tuner_measurements_total",
                     "timed samples taken by the autotuner"
                     ).inc(measurements)

    # 4. pick + persist
    winner = _pick_winner(candidates)
    default = next(c for c in candidates if c.is_default)
    top1_ok = _top1_agrees(candidates)
    result = TuningResult(
        workload=workload, key=key, winner=winner.config,
        default_config=default_config, from_db=False,
        measurements=measurements, space_size=len(space),
        candidates=candidates,
        default_seconds=default.measured_seconds,
        winner_seconds=winner.measured_seconds,
        top1_in_measured_top3=top1_ok)
    db.put(key, {
        "workload": result.as_dict()["workload"],
        "config": winner.config.as_dict(),
        "space_size": len(space),
        "default_seconds": default.measured_seconds,
        "winner_seconds": winner.measured_seconds,
        "top1_in_measured_top3": top1_ok,
        "candidates": [c.as_dict() for c in candidates],
    })
    return result


def tuned_runner(model: Union[str, IonicModel], n_cells: int = 512,
                 dt: float = 0.01, db: Optional[TuningDB] = None,
                 **autotune_kwargs) -> KernelRunner:
    """Autotune (or DB-hit) a workload and return its tuned runner."""
    if isinstance(model, str):
        model = load_model(model)
    result = autotune(model, n_cells=n_cells, dt=dt, db=db,
                      **autotune_kwargs)
    return build_runner(model, result.winner)


def lookup_config(model: IonicModel, n_cells: int, dt: float,
                  db: Optional[TuningDB] = None,
                  machine: str = "python-numpy",
                  population: str = "") -> Optional[TuningConfig]:
    """The stored tuned config for a workload, or None (no tuning run).

    This is the cheap DB-only path ``KernelRunner(tune=True)`` uses at
    construction; it never measures.  ``population`` is the population
    shape fingerprint — one tune serves every sweep of that shape.
    """
    workload = Workload.from_model(model, n_cells, dt, machine=machine,
                                   population=population)
    db = db if db is not None else TuningDB()
    return db.get_config(tuning_db_key(workload))


def tuned_config_for(model: Union[str, IonicModel], n_cells: int,
                     dt: float, db: Optional[TuningDB] = None,
                     population: str = "") -> Optional[TuningConfig]:
    """The recorded single-shard winner for a workload, or None: the
    one DB consultation behind every ``tune=True``.  Never measures and
    never raises — an unregistered model or unreadable DB is "no tuning"
    (an optimization, not a correctness dependency); so is a multi-shard
    winner, whose kernel is the single-shard one split at run time."""
    try:
        if isinstance(model, str):
            model = load_model(model)
        config = lookup_config(model, n_cells, dt, db=db,
                               population=population)
    except Exception:
        return None
    return config if config is not None and config.shards == 1 else None

