#!/usr/bin/env python3
"""Regenerate the paper's evaluation figures from the modeled testbed.

Prints the data behind Figures 2-6 plus the §4.4 data-layout and §5
icc statistics — the same artifact the paper's ``evaluation.sh`` /
``res.sh`` scripts produce, as text tables.  Runs in seconds because
the modeled Cascade Lake bench evaluates the generated IR instead of
executing 10+ hours of simulation (§A.2).
"""

from repro.bench import (ModeledBench, figure_isa_sweep, figure_roofline,
                         figure_scaling, figure_speedups, format_isa_sweep,
                         format_scaling_table, format_speedup_table,
                         sweep_average_geomean)
from repro.machine import format_roofline_table


def banner(title: str) -> None:
    print()
    print("#" * 72)
    print(f"# {title}")
    print("#" * 72)


def main() -> None:
    bench = ModeledBench()

    banner("Figure 2 — speedup, 1 thread, AVX-512 (paper geomean 5.25x)")
    print(format_speedup_table(figure_speedups(1, bench=bench), ""))

    banner("Figure 3 — speedup, 32 threads, AVX-512 (paper 1.93x; "
           "0.83/1.34/6.03 per class)")
    print(format_speedup_table(figure_speedups(32, bench=bench), ""))

    banner("Figure 4 — class-average execution time vs threads")
    print(format_scaling_table(figure_scaling(bench=bench)))

    banner("Figure 5 — ISA sweep (paper overall 2.90x)")
    print(format_isa_sweep(figure_isa_sweep(bench=bench)))

    banner("Figure 6 — roofline, 32 cores AVX-512")
    points, ceilings = figure_roofline()
    print(format_roofline_table(points, ceilings))

    banner("§4.4 data layout and §5 icc comparator")
    aosoa = sweep_average_geomean("limpet_mlir", bench=bench)
    aos = sweep_average_geomean("limpet_mlir_aos", bench=bench)
    icc = sweep_average_geomean("icc_simd", bench=bench)
    print(f"AoS -> AoSoA sweep geomean : {aos:.2f}x -> {aosoa:.2f}x "
          f"(paper 3.12x -> 3.37x)")
    print(f"icc omp-simd sweep geomean : {icc:.2f}x vs limpetMLIR "
          f"{aosoa:.2f}x (paper 2.19x vs 3.37x)")


if __name__ == "__main__":
    main()
