"""Roofline analysis (paper §4.5, Figure 6).

Places each ionic model on the (operational intensity, GFlops/s) plane
of the 32-core AVX-512 machine, together with the machine's ceilings:
ERT peak performance, ERT DRAM bandwidth, spec DRAM bandwidth and L1
bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..codegen.common import BackendMode
from .arch import CASCADE_LAKE, AVX512, Machine, VectorISA
from .costmodel import CostModel
from .instrument import KernelProfile


@dataclass(frozen=True)
class RooflinePoint:
    """One model's placement on the roofline plane."""

    model: str
    operational_intensity: float   # Flops/Byte
    gflops: float
    memory_bound: bool
    size_class: str = ""


@dataclass(frozen=True)
class RooflineCeilings:
    """The machine's ceilings, as plotted in Fig. 6."""

    peak_gflops: float
    dram_bw_gbs: float
    dram_bw_spec_gbs: float
    l1_bw_gbs: float

    @property
    def ridge_point(self) -> float:
        """Intensity where the DRAM roof meets peak (≈4 F/B in §4.5)."""
        return self.peak_gflops / self.dram_bw_gbs

    def attainable_gflops(self, intensity: float) -> float:
        """max performance the DRAM roofline allows at ``intensity``."""
        return min(self.peak_gflops, intensity * self.dram_bw_gbs)


def machine_ceilings(machine: Machine = CASCADE_LAKE) -> RooflineCeilings:
    return RooflineCeilings(peak_gflops=machine.peak_gflops,
                            dram_bw_gbs=machine.dram_bw_gbs,
                            dram_bw_spec_gbs=machine.dram_bw_spec_gbs,
                            l1_bw_gbs=machine.l1_bw_gbs)


def roofline_point(model_name: str, profile: KernelProfile,
                   n_cells: int = 8192, threads: int = 32,
                   isa: VectorISA = AVX512,
                   machine: Machine = CASCADE_LAKE,
                   mode: BackendMode = BackendMode.LIMPET_MLIR,
                   size_class: str = "") -> RooflinePoint:
    """Place one kernel on the roofline plane."""
    cost = CostModel(machine)
    point = cost.step_time(profile, isa, threads, n_cells, mode)
    intensity = (point.flops_per_cell / point.bytes_per_cell
                 if point.bytes_per_cell else float("inf"))
    return RooflinePoint(
        model=model_name,
        operational_intensity=intensity,
        gflops=point.flops_total / point.seconds / 1e9,
        memory_bound=point.memory_seconds > point.compute_seconds,
        size_class=size_class)


def format_roofline_table(points: List[RooflinePoint],
                          ceilings: Optional[RooflineCeilings] = None
                          ) -> str:
    """The Fig. 6 data as text: one row per model plus the ceilings."""
    ceilings = ceilings or machine_ceilings()
    lines = [f"{'model':<28} {'class':<8} {'F/B':>8} {'GFlops/s':>10} "
             f"{'bound':>8}"]
    for point in sorted(points, key=lambda p: p.operational_intensity):
        lines.append(f"{point.model:<28} {point.size_class:<8} "
                     f"{point.operational_intensity:>8.3f} "
                     f"{point.gflops:>10.1f} "
                     f"{'memory' if point.memory_bound else 'compute':>8}")
    lines.append("")
    lines.append(f"peak performance : {ceilings.peak_gflops:.0f} GFlops/s")
    lines.append(f"DRAM bandwidth   : {ceilings.dram_bw_gbs:.0f} GB/s "
                 f"(spec {ceilings.dram_bw_spec_gbs:.1f} GB/s)")
    lines.append(f"L1 bandwidth     : {ceilings.l1_bw_gbs:.0f} GB/s")
    lines.append(f"ridge point      : {ceilings.ridge_point:.2f} Flops/Byte")
    return "\n".join(lines)
