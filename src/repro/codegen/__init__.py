"""Code generators: one kernel emitter, four named targets."""

from .common import (BackendMode, ExprEmitter, GeneratedKernel, KernelSpec,
                     UnsupportedModelError)
from .layout import Layout, LayoutKind, aos, aosoa, pack_state, unpack_state
from .backends import (backend_for, generate, generate_baseline,
                       generate_icc_simd, generate_limpet_mlir,
                       generate_plugin)
from .legality import (Finding, LegalityReport, check_population_legality,
                       check_simd_legality)

__all__ = ["BackendMode", "ExprEmitter", "GeneratedKernel", "KernelSpec",
           "Layout", "LayoutKind", "aos", "aosoa", "pack_state",
           "unpack_state", "backend_for", "generate",
           "generate_baseline", "generate_icc_simd", "generate_limpet_mlir",
           "generate_plugin", "Finding", "LegalityReport",
           "check_simd_legality", "check_population_legality",
           "UnsupportedModelError"]
