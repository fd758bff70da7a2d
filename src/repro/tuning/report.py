"""BENCH_PR3: the tuner ablation report (tuned vs default vs worst).

Runs :func:`~repro.tuning.tuner.autotune` with ``force=True`` and
``include_worst=True`` over five representative models (two small, two
medium, one large — the paper's §4.1 size classes) and records, per
model: the tuned configuration, its measured speedup over the untuned
PR 2 default, the predicted-worst config's slowdown, and whether the
cost model's top-1 pick landed in the measured top-3.
:func:`check_tuning_report` turns the acceptance criteria into CI
assertions.
"""

from __future__ import annotations

import platform
from typing import Dict, List, Optional, Sequence

from ..models import SIZE_CLASS
from ..runtime import available_cpus
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
    """Build the BENCH_PR3 report dict (see the module docstring)."""
    db = db if db is not None else TuningDB()
    rows: List[Dict] = []
    for name in models:
        result = autotune(name, n_cells=n_cells, dt=dt, n_steps=n_steps,
                          top_k=top_k, repeats=repeats, db=db,
                          force=True, include_worst=True)
        worst = max((c for c in result.candidates
                     if c.measured_seconds is not None),
                    key=lambda c: c.measured_seconds)
        row = {
            "model": name,
            "size_class": SIZE_CLASS.get(name, "?"),
            "tuned_config": result.winner.as_dict(),
            "default_config": result.default_config.as_dict(),
            "default_seconds": result.default_seconds,
            "tuned_seconds": result.winner_seconds,
            "speedup_tuned_vs_default": result.speedup_vs_default,
            "worst_config": worst.config.as_dict(),
            "worst_seconds": worst.measured_seconds,
            "slowdown_worst_vs_default": (
                worst.measured_seconds / result.default_seconds
                if result.default_seconds else None),
            "space_size": result.space_size,
            "measurements": result.measurements,
            "top1_in_measured_top3": result.top1_in_measured_top3,
            "candidates": [c.as_dict() for c in result.candidates],
        }
        rows.append(row)
    agreements = [r["top1_in_measured_top3"] for r in rows]
    return {
        "benchmark": "BENCH_PR3",
        "config": {"models": list(models), "n_cells": n_cells,
                   "n_steps": n_steps, "dt": dt, "top_k": top_k,
                   "repeats": repeats},
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "available_cpus": available_cpus()},
        "protocol": "interleaved steady-state (warmup, median-of-"
                    "repeats); cost-model ranking over the full legal "
                    "space, measured refinement of top-k + default + "
                    "predicted-worst",
        "models": rows,
        "summary": {
            "models_with_min_speedup": sum(
                1 for r in rows
                if (r["speedup_tuned_vs_default"] or 0) >= MIN_SPEEDUP),
            "worst_slowdown": min(
                (r["speedup_tuned_vs_default"] or 1.0) for r in rows),
            "top1_agreement": (sum(bool(a) for a in agreements)
                               / len(agreements)) if agreements else 0.0,
        },
    }


def format_tuning_table(report: Dict) -> str:
    """Render a BENCH_PR3 report dict as a table."""
    cfg = report["config"]
    lines = [
        f"BENCH_PR3 — autotuner ablation: {cfg['n_cells']} cells x "
        f"{cfg['n_steps']} steps, top-{cfg['top_k']} refinement",
        f"{'model':<18} {'class':<7} {'default':>10} {'tuned':>10} "
        f"{'speedup':>8} {'worst':>8} {'tuned config'}",
    ]
    for row in report["models"]:
        tuned = row["tuned_config"]
        desc = (f"w{tuned['width']}/{tuned['layout']}/lut={tuned['lut']}"
                f"{'' if tuned['fuse'] else '/nofuse'}"
                f"{'/arena' if tuned['arena'] else ''}"
                f"{'/x' + str(tuned['shards']) if tuned['shards'] > 1 else ''}")
        lines.append(
            f"{row['model']:<18} {row['size_class']:<7} "
            f"{row['default_seconds'] * 1e3:>8.1f}ms "
            f"{row['tuned_seconds'] * 1e3:>8.1f}ms "
            f"{row['speedup_tuned_vs_default']:>7.2f}x "
            f"{row['slowdown_worst_vs_default']:>7.2f}x {desc}")
    summary = report["summary"]
    lines.append(
        f"{summary['models_with_min_speedup']}/{len(report['models'])} "
        f"models >= {MIN_SPEEDUP}x tuned-vs-default; cost-model top-1 in "
        f"measured top-3 for {summary['top1_agreement']:.0%} of workloads")
    return "\n".join(lines)


def check_tuning_report(report: Dict) -> List[str]:
    """The acceptance criteria as CI assertions (empty list = pass)."""
    failures: List[str] = []
    rows = report["models"]
    for row in rows:
        speedup = row["speedup_tuned_vs_default"]
        if speedup is None:
            failures.append(f"{row['model']}: no measured speedup")
            continue
        if speedup < 1.0 - SLOWDOWN_TOLERANCE:
            failures.append(
                f"{row['model']}: tuned config "
                f"{1 / speedup:.3f}x SLOWER than default "
                f"(tolerance {SLOWDOWN_TOLERANCE:.0%})")
    with_speedup = report["summary"]["models_with_min_speedup"]
    if with_speedup < MIN_MODELS_WITH_SPEEDUP:
        failures.append(
            f"only {with_speedup}/{len(rows)} models reached "
            f"{MIN_SPEEDUP}x tuned-vs-default "
            f"(need {MIN_MODELS_WITH_SPEEDUP})")
    agreement = report["summary"]["top1_agreement"]
    if agreement < MIN_TOP1_AGREEMENT:
        failures.append(
            f"cost-model top-1 landed in measured top-3 for only "
            f"{agreement:.0%} of workloads (need "
            f"{MIN_TOP1_AGREEMENT:.0%})")
    return failures
