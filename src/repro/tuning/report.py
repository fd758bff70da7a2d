"""The tuner ablation report (tuned vs default vs worst): the ``tune``
section of the perf record (:mod:`repro.bench.record`).

Runs :func:`~repro.tuning.tuner.autotune` with ``force=True`` and
``include_worst=True`` over five representative models (two small, two
medium, one large — the paper's §4.1 size classes).  Per model the
section holds two variants, ``<model>.default`` (the untuned default
config) and ``<model>.tuned`` (the winner), the ratio
``<model>.tuned_vs_default``, and as evidence the predicted-worst
config's slowdown and whether the cost model's top-1 pick landed in the
measured top-3.  :func:`check_tuning_report` turns the acceptance
criteria into CI assertions.
"""

from __future__ import annotations

import tempfile
from typing import Dict, List, Optional, Sequence

from ..bench.record import make_section
from ..models import SIZE_CLASS
from .database import TuningDB
from .tuner import autotune

#: two small, two medium, one large (§4.1 classes)
REPRESENTATIVE_MODELS = ("FitzHughNagumo", "Plonsey", "LuoRudy91",
                         "Courtemanche", "OHara")

#: a tuned config may never be slower than the default beyond this
SLOWDOWN_TOLERANCE = 0.02
#: the ≥1.1x bar must hold on at least this many models
MIN_SPEEDUP = 1.1
MIN_MODELS_WITH_SPEEDUP = 3
#: cost-model top-1 must land in measured top-3 this often
MIN_TOP1_AGREEMENT = 0.8


def tuning_report(models: Sequence[str] = REPRESENTATIVE_MODELS,
                  n_cells: int = 4096, n_steps: int = 10,
                  dt: float = 0.01, top_k: int = 5, repeats: int = 5,
                  db: Optional[TuningDB] = None) -> Dict:
    """Build the ``tune`` section (see the module docstring).

    The forced re-tunes overwrite ``db``'s records for these workloads;
    without a ``db`` they go to a throw-away one, so measuring (the
    gate) never touches ``$LIMPET_TUNE_DB``.
    """
    if db is None:
        with tempfile.TemporaryDirectory(prefix="limpet-tune-") as tmp:
            return tuning_report(models, n_cells, n_steps, dt, top_k,
                                 repeats, TuningDB(path=f"{tmp}/db.json"))
    variants: List[Dict] = []
    ratios: Dict[str, float] = {}
    rows: Dict[str, Dict] = {}
    for name in models:
        result = autotune(name, n_cells=n_cells, dt=dt, n_steps=n_steps,
                          top_k=top_k, repeats=repeats, db=db,
                          force=True, include_worst=True)
        worst = max((c for c in result.candidates
                     if c.measured_seconds is not None),
                    key=lambda c: c.measured_seconds)
        for label, config, seconds in (
                ("default", result.default_config, result.default_seconds),
                ("tuned", result.winner, result.winner_seconds)):
            variants.append({"name": f"{name}.{label}",
                             "config": config.as_dict(),
                             "run_seconds": seconds,
                             "steps_per_second": n_steps / seconds})
        ratios[f"{name}.tuned_vs_default"] = result.speedup_vs_default
        rows[name] = {
            "size_class": SIZE_CLASS.get(name, "?"),
            "worst_config": worst.config.as_dict(),
            "worst_seconds": worst.measured_seconds,
            "slowdown_worst_vs_default": (worst.measured_seconds
                                          / result.default_seconds),
            "space_size": result.space_size,
            "measurements": result.measurements,
            "top1_in_measured_top3": result.top1_in_measured_top3,
            "candidates": [c.as_dict() for c in result.candidates],
        }
    return make_section(
        config={"models": list(models), "n_cells": n_cells,
                "n_steps": n_steps, "dt": dt, "top_k": top_k,
                "repeats": repeats},
        variants=variants, ratios=ratios,
        evidence={
            "protocol": "interleaved steady-state (warmup, median-of-"
                        "repeats); cost-model ranking over the full "
                        "legal space, measured refinement of top-k + "
                        "default + predicted-worst",
            "models": rows,
            "top1_agreement": (sum(bool(r["top1_in_measured_top3"])
                                   for r in rows.values())
                               / max(len(rows), 1)),
        })


def format_tuning_table(section: Dict) -> str:
    """Render a ``tune`` section as a table."""
    cfg = section["config"]
    variants = {v["name"]: v for v in section["variants"]}
    ratios = section["ratios"]
    lines = [
        f"autotuner ablation: {cfg['n_cells']} cells x "
        f"{cfg['n_steps']} steps, top-{cfg['top_k']} refinement",
        f"{'model':<18} {'class':<7} {'default':>10} {'tuned':>10} "
        f"{'speedup':>8} {'worst':>8} {'tuned config'}",
    ]
    for name, row in section["evidence"]["models"].items():
        tuned = variants[f"{name}.tuned"]["config"]
        desc = (f"w{tuned['width']}/{tuned['layout']}/lut={tuned['lut']}"
                f"{'' if tuned['fuse'] else '/nofuse'}"
                f"{'/arena' if tuned['arena'] else ''}"
                f"{'/x' + str(tuned['shards']) if tuned['shards'] > 1 else ''}")
        lines.append(
            f"{name:<18} {row['size_class']:<7} "
            f"{variants[f'{name}.default']['run_seconds'] * 1e3:>8.1f}ms "
            f"{variants[f'{name}.tuned']['run_seconds'] * 1e3:>8.1f}ms "
            f"{ratios[f'{name}.tuned_vs_default']:>7.2f}x "
            f"{row['slowdown_worst_vs_default']:>7.2f}x {desc}")
    lines.append(
        f"{sum(r >= MIN_SPEEDUP for r in ratios.values())}/{len(ratios)} "
        f"models >= {MIN_SPEEDUP}x tuned-vs-default; cost-model top-1 in "
        f"measured top-3 for "
        f"{section['evidence']['top1_agreement']:.0%} of workloads")
    return "\n".join(lines)


def check_tuning_report(section: Dict) -> List[str]:
    """The acceptance criteria as CI assertions (empty list = pass)."""
    failures: List[str] = []
    ratios = section["ratios"]
    for name, speedup in ratios.items():
        if speedup < 1.0 - SLOWDOWN_TOLERANCE:
            failures.append(
                f"{name}: tuned config "
                f"{1 / speedup:.3f}x SLOWER than default "
                f"(tolerance {SLOWDOWN_TOLERANCE:.0%})")
    with_speedup = sum(r >= MIN_SPEEDUP for r in ratios.values())
    if with_speedup < MIN_MODELS_WITH_SPEEDUP:
        failures.append(
            f"only {with_speedup}/{len(ratios)} models reached "
            f"{MIN_SPEEDUP}x tuned-vs-default "
            f"(need {MIN_MODELS_WITH_SPEEDUP})")
    agreement = section["evidence"]["top1_agreement"]
    if agreement < MIN_TOP1_AGREEMENT:
        failures.append(
            f"cost-model top-1 landed in measured top-3 for only "
            f"{agreement:.0%} of workloads (need "
            f"{MIN_TOP1_AGREEMENT:.0%})")
    return failures
