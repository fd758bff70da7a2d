"""The machine model: ISA specs, cost model, instrumentation, roofline."""

from .arch import AVX2, AVX512, CASCADE_LAKE, ISAS, SSE, Machine, VectorISA
from .costmodel import CostModel, TimePoint, isa_for_width
from .energy import EnergyModel, EnergyPoint, compare_energy
from .gpu import V100, GPUCostModel, GPUDevice, GPUTimePoint
from .instrument import KernelProfile, profile_kernel
from .roofline import (RooflineCeilings, RooflinePoint, format_roofline_table,
                       machine_ceilings, roofline_point)

__all__ = ["AVX2", "AVX512", "CASCADE_LAKE", "ISAS", "SSE", "Machine",
           "VectorISA", "CostModel", "TimePoint", "isa_for_width",
           "EnergyModel", "EnergyPoint", "compare_energy",
           "V100", "GPUCostModel", "GPUDevice", "GPUTimePoint",
           "KernelProfile", "profile_kernel", "RooflineCeilings",
           "RooflinePoint", "format_roofline_table", "machine_ceilings",
           "roofline_point"]
