"""The shard plan: how a cell range splits into width-aligned shards.

The generated kernels wrap their cell loop in ``omp.parallel`` — the
compute stage is embarrassingly parallel over cells — and every model
is cell-local, so ``[0, n_alloc)`` can be cut into disjoint contiguous
shards that are stepped independently.  :class:`ShardedRunner` holds
that decomposition (DESIGN.md §10.1) and nothing else: it steps like a
:class:`KernelRunner`; the supervised tier
(:class:`~repro.runtime.supervised.SupervisedRunner`, its subclass)
hands each shard to a worker process.

Invariants the plan guarantees:

* shards are disjoint cell ranges, so trajectories are **bitwise
  identical** for 1 vs N shards;
* shard bounds are multiples of the SIMD width so vector kernels see
  whole blocks.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..codegen.common import GeneratedKernel
from .executor import KernelRunner
from .state import SimulationState


def available_cpus() -> int:
    """CPUs on this machine: the parallel tier's default worker count."""
    return os.cpu_count() or 1


def shard_bounds(n_alloc: int, n_shards: int, width: int
                 ) -> List[Tuple[int, int]]:
    """Split ``[0, n_alloc)`` into ≤ ``n_shards`` width-aligned ranges.

    Bounds land on multiples of ``width`` (vector kernels consume whole
    blocks); trailing shards may be empty and are dropped, so fewer
    shards than requested can come back for small cell counts.
    """
    if width <= 0:
        width = 1
    n_blocks = (n_alloc + width - 1) // width
    n_shards = max(1, min(n_shards, n_blocks if n_blocks else 1))
    base, extra = divmod(n_blocks, n_shards)
    bounds: List[Tuple[int, int]] = []
    block = 0
    for i in range(n_shards):
        take = base + (1 if i < extra else 0)
        start = block * width
        block += take
        end = min(block * width, n_alloc)
        if end > start:
            bounds.append((start, end))
    return bounds


class ShardedRunner(KernelRunner):
    """A :class:`KernelRunner` that knows its shard decomposition.

    ``n_threads`` is the shard count (default: the machine's CPU
    count); the name is what ``benchmarks/e2e/workloads.py:190`` passes.
    """

    def __init__(self, generated: GeneratedKernel, n_threads: int = 0,
                 **kwargs):
        super().__init__(generated, **kwargs)
        self.n_threads = n_threads or available_cpus()
        self._shards: Optional[Tuple[int, List[Tuple[int, int]]]] = None

    def shards_for(self, state: SimulationState) -> List[Tuple[int, int]]:
        cached = self._shards
        if cached is not None and cached[0] == state.n_alloc:
            return cached[1]
        bounds = shard_bounds(state.n_alloc, self.n_threads, self.spec.width)
        self._shards = (state.n_alloc, bounds)
        return bounds
