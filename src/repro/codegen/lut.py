"""IR emission for lookup-table interpolation (paper §3.4.2).

Three call shapes are generated:

* baseline — one scalar ``LUT_interpRow`` call per cell, the routine
  "the compiler could not automatically vectorize";
* limpetMLIR — one ``LUT_interpRow_n_elements_vec`` call per vector of
  cells, the manually vectorized implementation (Listing 3, line 21);
* icc_simd — per-lane scalar calls stitched together with
  ``vector.extract``/``vector.insert``: how a serialized call inside an
  ``omp simd`` loop behaves, which is precisely why icc's speedup stays
  at 2.19x (§5).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence

from ..frontend.model import LUTTable
from ..ir.builder import IRBuilder
from ..ir.core import Module, Value
from ..ir.dialects import func as func_dialect, vector as vector_dialect
from ..ir.types import VectorType, f64, memref_of, vector_of

SCALAR_INTERP = "LUT_interpRow"
VECTOR_INTERP = "LUT_interpRow_n_elements_vec"
SCALAR_SPLINE = "LUT_interpRowSpline"
VECTOR_SPLINE = "LUT_interpRowSpline_n_elements_vec"

#: element type of a LUT argument: rows x columns of f64
LUT_MEMREF = memref_of(f64, None, None)


def interp_symbol(table: LUTTable, vectorized: bool, width: int = 0,
                  spline: bool = False) -> str:
    """The callee symbol for a table, e.g. LUT_interpRow_Vm."""
    if vectorized:
        base = VECTOR_SPLINE if spline else VECTOR_INTERP
        return f"{base}_{width}xf64_{table.var}"
    return f"{SCALAR_SPLINE if spline else SCALAR_INTERP}_{table.var}"


def declare_interp_functions(module: Module, tables: Sequence[LUTTable],
                             vectorized: bool, width: int,
                             spline: bool = False) -> None:
    """Add ``func.func private`` declarations for each table's routine."""
    elem = vector_of(width, f64) if vectorized else f64
    for table in tables:
        func_dialect.func(module,
                          interp_symbol(table, vectorized, width, spline),
                          [LUT_MEMREF, elem], [elem] * table.n_columns,
                          declaration=True)


def emit_direct_interp(builder: IRBuilder, table: LUTTable, lut_arg: Value,
                       key: Value, env: Dict[str, Value], width: int,
                       spline: bool) -> None:
    """One call at the key's own width, results into ``env``: the scalar
    routine per cell (Listing 2) or the vectorized one for all lanes."""
    vectorized = isinstance(key.type, VectorType)
    call = func_dialect.call(builder,
                             interp_symbol(table, vectorized, width, spline),
                             [lut_arg, key], [key.type] * table.n_columns)
    for name, result in zip(table.column_names, call.results):
        env[name] = result


def emit_serialized_interp(builder: IRBuilder, table: LUTTable,
                           lut_arg: Value, key_vec: Value,
                           env: Dict[str, Value], width: int,
                           spline: bool) -> None:
    """icc_simd path: the vector call is serialized lane by lane.

    Each lane's key is extracted, the scalar routine is called, and the
    scalar results are inserted back into result vectors — the code an
    auto-vectorizer produces for a function call it cannot vectorize.
    """
    lane_results: List[List[Value]] = [[] for _ in range(table.n_columns)]
    for lane in range(width):
        key = vector_dialect.extract(builder, key_vec, lane)
        call = func_dialect.call(builder,
                                 interp_symbol(table, False, spline=spline),
                                 [lut_arg, key], [f64] * table.n_columns)
        for col, result in enumerate(call.results):
            lane_results[col].append(result)
    zero = builder.constant(0.0, f64)
    for col, name in enumerate(table.column_names):
        vec = vector_dialect.broadcast(builder, zero, width)
        for lane, scalar in enumerate(lane_results[col]):
            vec = vector_dialect.insert(builder, scalar, vec, lane)
        env[name] = vec


class LutShape(NamedTuple):
    """A target's LUT call shape: which routine it declares and how it
    is called from the cell loop."""

    vectorized: bool
    emit: Callable[..., None]


SCALAR_LUT = LutShape(False, emit_direct_interp)
VECTOR_LUT = LutShape(True, emit_direct_interp)
SERIALIZED_LUT = LutShape(False, emit_serialized_interp)
