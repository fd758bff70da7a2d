"""Runtime lookup tables and their interpolation kernels (§3.4.2).

A :class:`LUTData` tabulates every column of a frontend
:class:`~repro.frontend.model.LUTTable` over its declared grid.  At
simulation time a row is reconstructed by linear interpolation:

* :func:`lut_interp_row` — the scalar routine the baseline C code calls
  per cell (``LUT_interpRow`` in Listing 2);
* :func:`lut_interp_row_vec` — the fully vectorized version limpetMLIR
  emits (``LUT_interpRow_n_elements_vec`` in Listing 3), here one NumPy
  pass over all lanes.

Out-of-range keys clamp to the table ends, matching openCARP.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..frontend.model import LUTTable
from .expr_eval import eval_expr

#: indices of the table columns one interpolation call returns
Columns = Tuple[int, ...]


class LUTData:
    """A tabulated lookup table in the kernel's own layout.

    ``values[c, i]`` is column c at key ``lo + i*step``: column-major,
    so the row of one column is contiguous and a vector gather of any
    set of columns returns C-contiguous per-column arrays, like every
    other vector value of the kernel (DESIGN.md §6.5).  ``rows`` is the
    row-major ``(n_rows, n_cols)`` *view* of the same memory for the
    scalar path; the constructor takes the table in that orientation.
    """

    def __init__(self, var: str, lo: float, step: float, rows,
                 column_names: List[str]):
        self.var = var
        self.lo = lo
        self.step = step
        # no copy when ``rows`` is the transpose of a C-contiguous table
        self.values = np.ascontiguousarray(
            np.asarray(rows, dtype=np.float64).T)
        self.values.flags.writeable = False
        self.rows = self.values.T
        self.column_names = column_names
        #: column subset (None = all) -> its compact values / slopes
        self._values: Dict[Optional[Columns], np.ndarray] = {
            None: self.values}
        self._slopes: Dict[Optional[Columns], np.ndarray] = {}

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[1])

    @property
    def n_cols(self) -> int:
        return int(self.values.shape[0])

    @property
    def hi(self) -> float:
        return self.lo + (self.n_rows - 1) * self.step

    def column_values(self, columns: Optional[Columns] = None
                      ) -> np.ndarray:
        """``values`` restricted to ``columns`` (None = all), compact:
        a gather along axis 1 touches no column the caller did not ask
        for.  Built once per subset and kept with the table.  Threads
        sharing the table may both build a subset; the copies are equal
        and ``setdefault`` keeps one.
        """
        values = self._values.get(columns)
        if values is None:
            values = self._values.setdefault(columns,
                                             self.values[list(columns)])
        return values

    def column_slopes(self, columns: Optional[Columns] = None
                      ) -> np.ndarray:
        """Per-interval differences ``values[c, i+1] - values[c, i]`` of
        :meth:`column_values`: the operands the interpolation used to
        subtract per lane, so ``low + frac*slope`` is bitwise what
        ``low + frac*(high - low)`` was."""
        slopes = self._slopes.get(columns)
        if slopes is None:
            values = self.column_values(columns)
            slopes = self._slopes.setdefault(
                columns, values[:, 1:] - values[:, :-1])
        return slopes

    def memory_bytes(self) -> int:
        """Bytes of every array the table holds: the table itself and
        the per-subset gather tables built so far."""
        return sum(a.nbytes for held in (self._values, self._slopes)
                   for a in held.values())


def build_lut(table: LUTTable, constants: Dict[str, float],
              dt: float = 0.01) -> LUTData:
    """Tabulate all columns of ``table`` over its declared grid.

    ``constants`` carries parameters and preprocessor-folded values the
    column expressions may reference.  Columns may reference earlier
    columns (evaluation order is the plan order).  ``dt`` resolves the
    synthetic Rush–Larsen decay columns; tables must be rebuilt when
    the time step changes, exactly as in openCARP.
    """
    spec = table.spec
    grid = spec.lo + spec.step * np.arange(spec.n_rows, dtype=np.float64)
    env: Dict[str, object] = dict(constants)
    env[table.var] = grid
    env.setdefault("dt", dt)
    values = np.empty((len(table.columns), spec.n_rows), dtype=np.float64)
    for column, comp in zip(values, table.columns):
        column[...] = eval_expr(comp.expr, env)
        env[comp.target] = column
    return LUTData(table.var, spec.lo, spec.step, values.T,
                   [c.target for c in table.columns])


def lut_interp_row(lut: LUTData, x: float) -> Tuple[float, ...]:
    """Scalar linear interpolation of one row (baseline code path).

    The two bracketing rows are read with one ``tolist()`` and the row
    is interpolated in Python floats: bitwise what the same operations
    on NumPy scalars give, without their per-operation dispatch.
    """
    position = (x - lut.lo) / lut.step
    if position <= 0.0:
        idx, frac = 0, 0.0
    elif position >= lut.n_rows - 1:
        idx, frac = lut.n_rows - 2, 1.0
    elif position != position:          # NaN key -> NaN row
        idx, frac = 0, float("nan")
    else:
        idx = int(position)
        frac = position - idx
    low, high = lut.rows[idx:idx + 2].tolist()
    return tuple(a + frac * (b - a) for a, b in zip(low, high))


def _index_frac(lut: LUTData, x) -> Tuple[np.ndarray, np.ndarray]:
    """Lower bracketing row and position within the interval, per lane:
    keys clamp to the table ends, NaN keys read row 0 and carry NaN."""
    position = (np.asarray(x, dtype=np.float64) - lut.lo) / lut.step
    position = np.clip(position, 0.0, float(lut.n_rows - 1))
    with np.errstate(invalid="ignore"):
        safe = np.where(np.isnan(position), 0.0, position)
        idx = np.minimum(safe.astype(np.int64), lut.n_rows - 2)
        frac = position - idx
    return idx, frac


def lut_interp_row_vec(lut: LUTData, x: np.ndarray,
                       columns: Optional[Columns] = None
                       ) -> Tuple[np.ndarray, ...]:
    """Vectorized row interpolation — one lane per cell (Listing 3).

    Returns one C-contiguous array per entry of ``columns`` (default:
    every column), in that order.
    """
    idx, frac = _index_frac(lut, x)
    low = np.take(lut.column_values(columns), idx, axis=1)
    row = np.take(lut.column_slopes(columns), idx, axis=1)
    np.multiply(frac, row, out=row)
    np.add(low, row, out=row)
    return tuple(row)


def build_all_luts(model, dt: float = 0.01,
                   extra_constants: Dict[str, float] = None
                   ) -> List[LUTData]:
    """Tabulate every LUT of an analyzed model for time step ``dt``."""
    constants = dict(model.params)
    constants.update(model.folded_constants)
    constants.update(extra_constants or {})
    return [build_lut(table, constants, dt) for table in model.lut_tables]


# ---------------------------------------------------------------------------
# Spline interpolation (paper §7: "an efficient spline interpolation
# method to replace or complement in some cases the currently used
# linear interpolation")
# ---------------------------------------------------------------------------


def lut_interp_row_spline_vec(lut: LUTData, x: np.ndarray,
                              columns: Optional[Columns] = None):
    """Catmull-Rom cubic interpolation of one row, vectorized.

    Uses the two bracketing rows plus one neighbor on each side
    (clamped at the table ends).  Exact at grid points like the linear
    interpolation, but with O(h^4) error between them — so tables can
    use much coarser steps for the same accuracy (the §7 motivation).
    """
    values = lut.column_values(columns)
    idx, t = _index_frac(lut, x)
    p0 = np.take(values, np.maximum(idx - 1, 0), axis=1)
    p1 = np.take(values, idx, axis=1)
    p2 = np.take(values, idx + 1, axis=1)
    p3 = np.take(values, np.minimum(idx + 2, lut.n_rows - 1), axis=1)
    # Catmull-Rom basis (tension 0.5)
    a = 2.0 * p1
    b = p2 - p0
    c = 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
    d = -p0 + 3.0 * p1 - 3.0 * p2 + p3
    row = 0.5 * (a + b * t + c * t * t + d * t * t * t)
    return tuple(row)


def lut_interp_row_spline(lut: LUTData, x: float):
    """Scalar Catmull-Rom interpolation (baseline spline mode)."""
    result = lut_interp_row_spline_vec(lut, np.float64(x))
    return tuple(float(v) for v in result)
