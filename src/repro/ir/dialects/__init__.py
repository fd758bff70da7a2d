"""MLIR-style dialects used by limpetMLIR code generation.

Importing this package registers every op's :class:`~repro.ir.core.OpInfo`
(traits, verifier, folder, evaluator) with the global registry.
"""

from . import arith, func, math, memref, omp, scf, vector

__all__ = ["arith", "func", "math", "memref", "omp", "scf", "vector"]
