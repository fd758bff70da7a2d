"""Benchmark harness: measured engines + the modeled Cascade Lake bench.

The perf record (:mod:`repro.bench.record`) and the regression gate
(:mod:`repro.bench.regress`) are imported by name, not re-exported
here.
"""

from .harness import (PAPER_CELLS, PAPER_DT, PAPER_STEPS, VARIANTS,
                      BenchConfig, MeasuredRun, ModeledBench, ModeledRun,
                      SweepRecord, format_sweep_table, generate_variant,
                      kernel_profile, resilient_sweep, run_measured)
from .perf import (CANONICAL_CELLS, CANONICAL_DT, CANONICAL_MODEL,
                   CANONICAL_STEPS, CANONICAL_WIDTH, PerfVariant,
                   check_report, check_sweep_report, perf_report,
                   sweep_report)
from .report import (THREAD_SWEEP, figure_isa_sweep, figure_roofline,
                     figure_scaling, figure_speedups, format_isa_sweep,
                     format_perf_table, format_scaling_table,
                     format_speedup_table, format_sweep_report,
                     sweep_average_geomean)
from .timing import TimingStats, geomean, measure, trimmed_mean

__all__ = ["PAPER_CELLS", "PAPER_DT", "PAPER_STEPS", "VARIANTS",
           "BenchConfig", "MeasuredRun", "ModeledBench", "ModeledRun",
           "SweepRecord", "format_sweep_table", "resilient_sweep",
           "generate_variant", "kernel_profile", "run_measured",
           "CANONICAL_CELLS", "CANONICAL_DT", "CANONICAL_MODEL",
           "CANONICAL_STEPS", "CANONICAL_WIDTH", "PerfVariant",
           "check_report", "check_sweep_report",
           "perf_report", "sweep_report", "format_sweep_report",
           "THREAD_SWEEP", "figure_isa_sweep", "figure_roofline",
           "figure_scaling", "figure_speedups", "format_isa_sweep",
           "format_perf_table", "format_scaling_table",
           "format_speedup_table",
           "sweep_average_geomean", "geomean", "measure", "trimmed_mean",
           "TimingStats"]
