"""Figure/series generation: the rows the paper's plots are drawn from.

Each ``figure*`` function returns plain data structures plus a
``format_*`` companion that renders the same text table the benchmark
suite prints and EXPERIMENTS.md records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..codegen import BackendMode
from ..machine import AVX512, ISAS, VectorISA, machine_ceilings, roofline_point
from ..models import ALL_MODELS, SIZE_CLASS
from .harness import ModeledBench, kernel_profile
from .timing import geomean

THREAD_SWEEP = (1, 2, 4, 8, 16, 32)


# ---------------------------------------------------------------------------
# Fig. 2 / Fig. 3 — per-model speedup bars
# ---------------------------------------------------------------------------


@dataclass
class SpeedupBar:
    model: str
    size_class: str
    baseline_seconds: float
    speedup: float


def figure_speedups(threads: int, isa: VectorISA = AVX512,
                    bench: Optional[ModeledBench] = None,
                    models: Sequence[str] = ALL_MODELS) -> List[SpeedupBar]:
    """Fig. 2 (threads=1) / Fig. 3 (threads=32): per-model speedups,
    ordered by baseline execution time like the paper's x-axis."""
    bench = bench or ModeledBench()
    bars = []
    for name in models:
        base = bench.seconds(name, "baseline", isa, threads)
        bars.append(SpeedupBar(model=name, size_class=SIZE_CLASS[name],
                               baseline_seconds=base,
                               speedup=bench.speedup(name, isa, threads)))
    bars.sort(key=lambda b: b.baseline_seconds)
    return bars


def format_speedup_table(bars: Sequence[SpeedupBar], title: str) -> str:
    lines = [title,
             f"{'model':<24} {'class':<7} {'baseline(s)':>12} {'speedup':>8}"]
    for bar in bars:
        lines.append(f"{bar.model:<24} {bar.size_class:<7} "
                     f"{bar.baseline_seconds:>12.1f} {bar.speedup:>7.2f}x")
    by_class: Dict[str, List[float]] = {}
    for bar in bars:
        by_class.setdefault(bar.size_class, []).append(bar.speedup)
    lines.append("")
    for cls in ("small", "medium", "large"):
        if cls in by_class:
            lines.append(f"geomean {cls:<7}: "
                         f"{geomean(by_class[cls]):.2f}x")
    lines.append(f"geomean overall: "
                 f"{geomean([b.speedup for b in bars]):.2f}x")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 4 — class-average execution time vs threads
# ---------------------------------------------------------------------------


@dataclass
class ScalingSeries:
    size_class: str
    variant: str
    threads: Tuple[int, ...]
    seconds: Tuple[float, ...]


def figure_scaling(bench: Optional[ModeledBench] = None,
                   isa: VectorISA = AVX512,
                   thread_sweep: Sequence[int] = THREAD_SWEEP
                   ) -> List[ScalingSeries]:
    """Fig. 4: average execution times of the three classes, 1..32
    threads, baseline vs limpetMLIR."""
    bench = bench or ModeledBench()
    series = []
    for cls in ("small", "medium", "large"):
        names = [n for n in ALL_MODELS if SIZE_CLASS[n] == cls]
        for variant in ("baseline", "limpet_mlir"):
            seconds = tuple(
                sum(bench.seconds(n, variant, isa, t) for n in names)
                / len(names)
                for t in thread_sweep)
            series.append(ScalingSeries(size_class=cls, variant=variant,
                                        threads=tuple(thread_sweep),
                                        seconds=seconds))
    return series


def format_scaling_table(series: Sequence[ScalingSeries]) -> str:
    threads = series[0].threads
    lines = ["Fig. 4 — average execution time (s) per class vs threads "
             "(AVX-512)",
             f"{'class':<8} {'variant':<12} "
             + " ".join(f"{t:>9}T" for t in threads)]
    for entry in series:
        lines.append(f"{entry.size_class:<8} {entry.variant:<12} "
                     + " ".join(f"{s:>10.2f}" for s in entry.seconds))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 5 — geomean speedup per ISA x threads
# ---------------------------------------------------------------------------


@dataclass
class ISASweepRow:
    isa: str
    threads: Tuple[int, ...]
    geomean_speedup: Tuple[float, ...]


def figure_isa_sweep(bench: Optional[ModeledBench] = None,
                     thread_sweep: Sequence[int] = THREAD_SWEEP,
                     models: Sequence[str] = ALL_MODELS) -> List[ISASweepRow]:
    """Fig. 5: geomean speedups for SSE/AVX2/AVX-512 across threads."""
    bench = bench or ModeledBench()
    rows = []
    for isa in ISAS.values():
        values = tuple(
            geomean([bench.speedup(n, isa, t) for n in models])
            for t in thread_sweep)
        rows.append(ISASweepRow(isa=isa.name, threads=tuple(thread_sweep),
                                geomean_speedup=values))
    return rows


def format_isa_sweep(rows: Sequence[ISASweepRow]) -> str:
    threads = rows[0].threads
    lines = ["Fig. 5 — geomean speedup per vector ISA vs threads",
             f"{'isa':<8} " + " ".join(f"{t:>7}T" for t in threads)]
    for row in rows:
        lines.append(f"{row.isa:<8} "
                     + " ".join(f"{v:>7.2f}x" for v in row.geomean_speedup))
    overall = geomean([v for row in rows for v in row.geomean_speedup])
    lines.append(f"overall geomean (all ISAs, all thread counts): "
                 f"{overall:.2f}x   (paper: 2.90x)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 6 — roofline
# ---------------------------------------------------------------------------


def figure_roofline(n_cells: int = 8192, threads: int = 32,
                    models: Sequence[str] = ALL_MODELS):
    """Fig. 6: every model placed on the (F/B, GFlops/s) plane."""
    points = []
    for name in models:
        profile = kernel_profile(name, "limpet_mlir", AVX512.width)
        points.append(roofline_point(name, profile, n_cells=n_cells,
                                     threads=threads,
                                     size_class=SIZE_CLASS[name]))
    return points, machine_ceilings()


# ---------------------------------------------------------------------------
# Measured sections of the perf record (repro.bench.record)
# ---------------------------------------------------------------------------


def format_perf_table(section: Dict) -> str:
    """Render a :func:`repro.bench.perf.perf_report` section as a table.

    Throughput columns come from the runner's
    :class:`~repro.runtime.executor.RunResult` units
    (``steps_per_second`` / ``cell_steps_per_second``).
    """
    cfg = section["config"]
    ratios = section["ratios"]
    lines = [
        f"perf — {cfg['model_name']}: {cfg['n_cells']} cells x "
        f"{cfg['n_steps']} steps, dt={cfg['dt']}",
        f"{'variant':<14} {'construct':>11} {'ttfs':>11} {'run':>11} "
        f"{'compute':>11} {'overhead':>11} {'total':>11} "
        f"{'Mcell-steps/s':>14} {'speedup':>8}",
    ]

    def millis(seconds: Optional[float]) -> str:
        return f"{seconds * 1e3:>9.1f}ms" if seconds is not None \
            else f"{'-':>11}"

    for v in section["variants"]:
        # a population axis multiplies throughput: make it visible
        name = v["name"]
        if v.get("instances", 1) > 1:
            name += f"[x{v['instances']}]"
        if v.get("artifact_hit"):
            name += "*"     # construction served by the AOT bundle
        lines.append(
            f"{name:<14} {millis(v['construct_seconds'])} "
            f"{millis(v.get('time_to_first_step'))} "
            f"{millis(v['run_seconds'])} "
            f"{millis(v.get('compute_seconds'))} "
            f"{millis(v.get('overhead_seconds'))} "
            f"{millis(v['construct_seconds'] + v['run_seconds'])} "
            f"{v['cell_steps_per_second'] / 1e6:>14.2f} "
            f"{ratios.get(v['name'] + '.total', 1.0):>7.2f}x")
    return "\n".join(lines)


def format_sweep_report(section: Dict) -> str:
    """Render a :func:`repro.bench.perf.sweep_report` section as a
    table."""
    cfg = section["config"]
    evidence = section["evidence"]
    params = ", ".join(f"{k}={v}" for k, v in cfg["params"].items())
    lines = [
        f"sweep — {cfg['model_name']} {params}: "
        f"{evidence['instances']} instances x "
        f"{cfg['cells_per_instance']} "
        f"cells x {cfg['n_steps']} steps, dt={cfg['dt']}, single thread",
        f"{'variant':<14} {'run':>11} {'iqr':>9} "
        f"{'Mcell-steps/s':>14} {'instances':>10}",
    ]
    for v in section["variants"]:
        lines.append(
            f"{v['name']:<14} {v['run_seconds'] * 1e3:>9.1f}ms "
            f"{v['run_seconds_iqr'] * 1e3:>7.1f}ms "
            f"{v['cell_steps_per_second'] / 1e6:>14.2f} "
            f"{v.get('instances', 1):>10}")
    lines.append(f"batched vs loop-of-{evidence['instances']}: "
                 f"{section['ratios']['batched_vs_loop']:.2f}x")
    reuse = evidence.get("compile_reuse", {})
    lines.append(f"compile reuse (same shape): first build "
                 f"{'hit' if reuse.get('first_build_cache_hit') else 'miss'}"
                 f", second build "
                 f"{'hit' if reuse.get('second_build_cache_hit') else 'miss'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# §4.4 / §5 — sweep statistics
# ---------------------------------------------------------------------------


def sweep_average_geomean(variant: str,
                          bench: Optional[ModeledBench] = None,
                          isa: VectorISA = AVX512,
                          thread_sweep: Sequence[int] = THREAD_SWEEP,
                          models: Sequence[str] = ALL_MODELS) -> float:
    """The paper's '1 to 32 thread AVX-512 configuration' statistic:
    the mean over thread counts of the per-thread-count geomeans."""
    bench = bench or ModeledBench()
    values = [geomean([bench.speedup(n, isa, t, variant) for n in models])
              for t in thread_sweep]
    return sum(values) / len(values)
