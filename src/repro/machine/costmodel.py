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


class PythonRuntimeCostModel(CostModel):
    """Cost model of the *executing* NumPy runtime, for the autotuner.

    The base :class:`CostModel` models the paper's Cascade Lake — real
    SIMD units, caches, SVML.  But this repository's kernels execute as
    flattened NumPy statements (``repro.runtime.lowering``): every IR
    op in the cell loop runs **once per step over all cells**, so the
    real costs are (a) per-statement interpreter/ufunc dispatch and
    (b) per-element ufunc work — a completely different balance (LUT
    gathers lose to recomputed ``exp``; fusion saves dispatch, not
    flops).  This subclass keeps the :meth:`step_time` contract but
    prices that runtime, so the tuner's predicted ranking matches what
    measurement will see.

    Two keyword-only extensions price lowering flags that do not change
    the IR: ``fuse`` (fewer statements after expression fusion) and
    ``arena`` (a measured *penalty* — ``out=`` reuse into long-lived
    buffers defeats NumPy's temp-buffer cache here).  ``threads``
    models :class:`~repro.runtime.sharded.ShardedRunner` shards: element
    work parallelizes (ufuncs release the GIL), dispatch does not, and
    each step pays a pool-submission cost per shard.

    Memory accesses are priced by the addressing mode the lowering
    gives them (DESIGN.md §6.2), read off the profile's layout: a
    ``vector.load`` / ``vector.store`` is a *unit-stride* slice copy —
    one flat loop under SoA and for externals, one inner loop per block
    row under AoSoA (``EL_ROW_NS``); a ``vector.gather`` /
    ``vector.scatter`` is a *strided* slice copy under AoS and an
    *indexed* access (index array + fancy gather, masked multimodel
    kernels) under every other layout.  Index arithmetic and broadcasts
    of loop invariants cost nothing: sliced accesses never materialise
    them.

    Constants were calibrated against measured ``steady_state`` runs of
    representative models on CPython 3.11 + NumPy (see EXPERIMENTS.md,
    tuner ablation); they need to *rank* configurations, not predict
    absolute seconds.
    """

    #: per-statement cost of one lowered NumPy statement (ufunc dispatch,
    #: temporary allocation, name binding)
    DISPATCH_US = 0.6
    #: extra dispatch for transcendental statements (libm setup)
    DISPATCH_EXP_US = 1.9
    #: statement-count ratio after fused expression lowering
    FUSED_STATEMENT_RATIO = 0.55
    #: buffer-arena penalties — measured: ``out=`` reuse into long-lived
    #: arena buffers defeats NumPy's temporary-buffer reuse and costs
    #: more than the allocations it saves on this runtime
    ARENA_DISPATCH_RATIO = 1.35
    ARENA_ELEMENT_RATIO = 1.1
    #: per-element costs (nanoseconds) by operation class, calibrated in
    #: the throughput regime (arrays of thousands of cells)
    EL_SIMPLE_NS = 0.5
    EL_DIV_NS = 2.0
    EL_EXP_NS = 3.5
    EL_POW_NS = 6.0
    EL_MOVE_NS = 0.35         # unit-stride access (flat slice copy)
    EL_GATHER_NS = 1.25       # strided access (AoS: stride n_states)
    EL_INDEXED_NS = 2.6       # indexed access (fancy gather/scatter)
    #: per live column: two contiguous-row gathers (values, slopes) and
    #: an in-place multiply-add (3.1-3.5 measured over OHara,
    #: Courtemanche, LuoRudy91, TenTusscherPanfilov at 4096 cells)
    EL_LUT_COLUMN_NS = 3.3
    #: per-block cost of an access that cannot run as one flat loop: a
    #: unit-stride access under AoSoA copies one W-element row per block
    #: (rows are n_states*W apart), an indexed access builds one index
    #: row per block — so wider kernels pay it less often (this is what
    #: separates width 8 from width 4 at runtime)
    EL_ROW_NS = 6.0
    #: statements per live LUT column: a call costs ~15 us of index
    #: arithmetic and gathers however many columns it returns, plus
    #: ~0.5 us per column (view, unpack); spread over the 15-27 live
    #: columns of the tuner's representative models (2.7-4.2 measured)
    LUT_COLUMN_STATEMENTS = 3.6
    #: per-op per-cell cost of the scalar baseline's Python loop
    PY_SCALAR_OP_NS = 60.0
    #: per-shard pool submission cost per step, and thread efficiency
    POOL_SUBMIT_US = 60.0
    THREAD_EFFICIENCY = 0.85

    def __init__(self, machine: Machine = CASCADE_LAKE,
                 host_cpus: Optional[int] = None):
        super().__init__(machine)
        import os
        self.host_cpus = host_cpus or (os.cpu_count() or 1)

    def step_time(self, profile: KernelProfile, isa: VectorISA,
                  threads: int, n_cells: int,
                  mode: BackendMode = BackendMode.LIMPET_MLIR,
                  state_bytes_per_cell: Optional[float] = None, *,
                  fuse: bool = True, arena: bool = False) -> TimePoint:
        """Modeled wall time of one compute step on the NumPy runtime."""
        p = profile
        if p.width == 1:
            return self._scalar_step(p, n_cells)
        # statements executed per step (flattened: one per IR op)
        statements = (p.simple_fp + p.div_fp + p.exp_class + p.pow_class
                      + p.contiguous_loads + p.contiguous_stores
                      + p.gathers + p.scatters + p.inserts_extracts
                      + p.lut_columns_live * self.LUT_COLUMN_STATEMENTS
                      + p.lut_columns_scalar * self.LUT_COLUMN_STATEMENTS)
        if fuse:
            statements *= self.FUSED_STATEMENT_RATIO
        if p.layout == "soa":
            # every slot is its own region of the buffer, so each state
            # binds its own block view where the interleaved layouts
            # share one
            statements += p.contiguous_stores
        dispatch_us = self.DISPATCH_US
        if arena:
            dispatch_us *= self.ARENA_DISPATCH_RATIO
        # transcendental statements survive fusion (each exp/pow is one
        # libm-backed ufunc call regardless) and pay extra setup
        t_dispatch = (statements * dispatch_us
                      + (p.exp_class + p.pow_class)
                      * self.DISPATCH_EXP_US) * 1e-6

        unit = p.contiguous_loads + p.contiguous_stores
        gathers = p.gathers + p.scatters
        aosoa = p.layout.startswith("aosoa")
        aos = _is_aos(p.layout)
        per_el_ns = (p.simple_fp * self.EL_SIMPLE_NS
                     + p.div_fp * self.EL_DIV_NS
                     + p.exp_class * self.EL_EXP_NS
                     + p.pow_class * self.EL_POW_NS
                     + unit * self.EL_MOVE_NS
                     + gathers * (self.EL_GATHER_NS if aos
                                  else self.EL_INDEXED_NS)
                     + (p.lut_columns_live + p.lut_columns_scalar)
                     * self.EL_LUT_COLUMN_NS)
        row_accesses = (unit if aosoa else 0.0) + (0.0 if aos else gathers)
        n_blocks = n_cells / max(p.width, 1)
        t_element = (n_cells * per_el_ns
                     + row_accesses * n_blocks * self.EL_ROW_NS) * 1e-9
        if arena:
            t_element *= self.ARENA_ELEMENT_RATIO

        t_pool = 0.0
        eff_threads = max(1, min(threads, self.host_cpus))
        if threads > 1:
            t_pool = threads * self.POOL_SUBMIT_US * 1e-6
            t_element /= 1.0 + (eff_threads - 1) * self.THREAD_EFFICIENCY
        seconds = t_dispatch + t_element + t_pool
        flops_cell = p.flops_per_cell
        return TimePoint(seconds=seconds, compute_seconds=t_element,
                         memory_seconds=0.0,
                         overhead_seconds=t_dispatch + t_pool,
                         cycles_per_cell=0.0,
                         bytes_per_cell=p.bytes_per_cell,
                         flops_per_cell=flops_cell,
                         flops_total=flops_cell * n_cells)

    def _scalar_step(self, p: KernelProfile, n_cells: int) -> TimePoint:
        """The baseline per-cell Python interpreter loop."""
        ops = (p.simple_fp + p.div_fp + p.exp_class + p.pow_class
               + p.int_ops
               + p.scalar_loads + p.scalar_stores
               + p.lut_calls_scalar * 4.0
               + p.lut_columns_scalar * 2.0
               + p.other_calls * 2.0)
        t_compute = ops * n_cells * self.PY_SCALAR_OP_NS * 1e-9
        seconds = t_compute + 2e-6          # loop setup
        flops_cell = p.flops_per_cell
        return TimePoint(seconds=seconds, compute_seconds=t_compute,
                         memory_seconds=0.0, overhead_seconds=2e-6,
                         cycles_per_cell=0.0,
                         bytes_per_cell=p.bytes_per_cell,
                         flops_per_cell=flops_cell,
                         flops_total=flops_cell * n_cells)
