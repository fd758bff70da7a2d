"""Architecture descriptions for the analytical machine model.

The paper's testbed is a 2x 18-core Cascade Lake Xeon Gold 6240
@2.6 GHz (Turbo/HT off), 192 GB RAM, evaluated with SSE (2 doubles),
AVX2 (4) and AVX-512 (8) and 1-32 threads.  Empirical Roofline Tool
measurements reported in §4.5: peak 760 GFlops/s on 32 cores, DRAM
bandwidth 199 GB/s, L1 bandwidth 1052 GB/s (spec DRAM: 140.8 GB/s).

We reproduce that machine as a calibrated cost model (see DESIGN.md §2
for the substitution rationale).  All constants below are in cycles,
bytes or GB/s; per-op costs are derived from published instruction
tables (Agner Fog / uops.info class numbers) and the SVML throughput
class, rounded to the granularity an analytical model supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class VectorISA:
    """One SIMD instruction-set tier."""

    name: str
    width: int                    # doubles per vector register
    #: throughput cost (cycles per instruction) of a simple FP vector op
    fp_cycles: float
    #: cycles per vectorized transcendental (SVML class: exp/log)
    svml_exp_cycles: float
    #: cycles per vectorized division/sqrt
    fp_div_cycles: float
    #: cycles to gather one full vector (scales with lanes)
    gather_cycles: float
    #: cycles to scatter one full vector
    scatter_cycles: float
    #: cycles for a contiguous vector load/store (L1 hit)
    load_cycles: float

    def __str__(self) -> str:
        return self.name


SSE = VectorISA(name="sse", width=2, fp_cycles=1.0,
                svml_exp_cycles=18.0, fp_div_cycles=8.0,
                gather_cycles=5.0, scatter_cycles=6.0, load_cycles=1.0)

AVX2 = VectorISA(name="avx2", width=4, fp_cycles=1.0,
                 svml_exp_cycles=22.0, fp_div_cycles=10.0,
                 gather_cycles=8.0, scatter_cycles=9.0, load_cycles=1.0)

AVX512 = VectorISA(name="avx512", width=8, fp_cycles=1.0,
                   svml_exp_cycles=30.0, fp_div_cycles=16.0,
                   gather_cycles=12.0, scatter_cycles=14.0, load_cycles=1.0)

ISAS: Dict[str, VectorISA] = {isa.name: isa for isa in (SSE, AVX2, AVX512)}


@dataclass(frozen=True)
class ScalarCosts:
    """Per-operation scalar costs (the baseline's world).

    Scalar libm calls are genuinely more expensive per element than
    SVML's per-lane cost — that is part of why Fig. 2 speedups exceed
    the lane count on math-heavy models (e.g. ISAC_Hu, §4.1).
    """

    fp_cycles: float = 1.0
    libm_exp_cycles: float = 48.0     # glibc exp/log class
    libm_pow_cycles: float = 160.0    # pow/atan class (call + argument
                                      # reduction dominate per element)
    fp_div_cycles: float = 7.0        # divsd throughput, not latency
    load_cycles: float = 1.0
    #: per-iteration loop/bookkeeping overhead of the scalar cell loop
    #: (address arithmetic, struct pointer chasing, spills)
    loop_overhead_cycles: float = 12.0


@dataclass(frozen=True)
class Machine:
    """The full platform: cores, frequency, memory system, OMP costs."""

    name: str = "cascadelake-2x6240"
    n_cores: int = 32
    frequency_hz: float = 2.6e9
    #: ERT-measured peak and bandwidths (§4.5)
    peak_gflops: float = 760.0
    dram_bw_gbs: float = 199.0
    dram_bw_spec_gbs: float = 140.8
    l1_bw_gbs: float = 1052.0
    #: last-level cache per socket (Cascade Lake 6240: 24.75 MB x2)
    llc_bytes: float = 2 * 24.75e6
    #: single-core sustainable DRAM bandwidth
    core_bw_gbs: float = 13.0
    #: aggregate cache-hierarchy bandwidth for LLC-resident working sets
    llc_bw_gbs: float = 400.0
    #: per-core cache-bandwidth advantage over DRAM streaming
    cache_bw_factor: float = 2.7
    #: OpenMP static-for fork/join + barrier cost per parallel region,
    #: as base + per-doubling growth (microseconds)
    omp_base_us: float = 1.6
    omp_log_us: float = 1.1
    scalar: ScalarCosts = field(default_factory=ScalarCosts)

    def omp_overhead_seconds(self, threads: int) -> float:
        """Synchronization cost of one parallel compute step."""
        if threads <= 1:
            return 0.0
        import math
        return (self.omp_base_us
                + self.omp_log_us * math.log2(threads)) * 1e-6

    def memory_bandwidth_gbs(self, threads: int,
                             working_set_bytes: float) -> float:
        """Aggregate bandwidth available to ``threads`` cores.

        Bandwidth scales with cores until the DRAM limit; a working set
        that fits in LLC sees cache bandwidth instead (how OHara and
        Courtemanche exceed the DRAM roof in Fig. 6).
        """
        dram = min(threads * self.core_bw_gbs, self.dram_bw_gbs)
        if working_set_bytes <= self.llc_bytes:
            cached = min(threads * self.core_bw_gbs * self.cache_bw_factor,
                         self.llc_bw_gbs)
            return max(dram, cached)
        return dram


CASCADE_LAKE = Machine()
