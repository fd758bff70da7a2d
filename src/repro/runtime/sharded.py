"""Real multi-thread execution: shard cells across a thread pool.

The generated kernels wrap their cell loop in ``omp.parallel`` —
openCARP's compute stage is embarrassingly parallel over cells — but
until this layer that region was merely simulated (executed inline on
one thread).  :class:`ShardedRunner` honors it for real: the allocated
cell range ``[0, n_alloc)`` is split into per-thread, width-aligned
contiguous shards and each compute step submits one kernel call per
shard to a :class:`~concurrent.futures.ThreadPoolExecutor`.

Why threads work here despite the GIL: the lowered vector kernels
spend their time inside NumPy ufunc inner loops, which release the
GIL, so shards genuinely overlap (the paper's Figs. 3–4 scaling,
reproduced with wall clocks rather than a model).

Correctness invariants:

* shards are disjoint cell ranges and every model is cell-local, so
  sharded trajectories are **bitwise identical** for 1 vs N shards;
* shard bounds are multiples of the SIMD width so vector kernels see
  whole blocks;
* the buffer arena is refused — arena slots are per-kernel scratch and
  would alias across concurrently running shards.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Tuple

from ..codegen.common import GeneratedKernel
from ..ir.core import Module, Operation
from ..obs import metrics as _metrics
from .executor import KernelRunner
from .state import SimulationState


def available_cpus() -> int:
    """CPUs on this machine: the default width of both parallel tiers."""
    return os.cpu_count() or 1


def _module_has_omp(module: Module, sym_name: str) -> bool:
    """True when the kernel function contains an ``omp.parallel`` region."""

    def walk(op: Operation) -> bool:
        if op.name == "omp.parallel":
            return True
        return any(walk(inner) for region in op.regions
                   for block in region.blocks for inner in block.ops)

    for op in module.ops:
        if op.name == "func.func" and \
                op.attributes.get("sym_name") == sym_name:
            return walk(op)
    return False


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
    """A :class:`KernelRunner` that executes compute steps on N threads.

    ``n_threads`` defaults to the machine's CPU count.  Use as a
    context manager (or call :meth:`close`) to shut the pool down
    promptly; an unclosed pool is reclaimed at interpreter exit.
    """

    _tier = "threads"

    def __init__(self, generated: GeneratedKernel, n_threads: int = 0,
                 shard_plan: Optional[List[Tuple[int, int]]] = None,
                 **kwargs):
        if kwargs.get("arena"):
            raise ValueError("ShardedRunner cannot use the buffer arena: "
                             "arena slots would alias across shards")
        kwargs["arena"] = False
        super().__init__(generated, **kwargs)
        self.n_threads = n_threads or available_cpus()
        # an explicit decomposition (e.g. the population layer sharding
        # along the instance axis) overrides the default cell split
        if shard_plan is not None:
            width = generated.spec.width
            for start, end in shard_plan:
                if start % width or (end % width and end != shard_plan[-1][1]):
                    raise ValueError(
                        f"shard_plan bound ({start}, {end}) is not "
                        f"aligned to the kernel width {width}")
                if end <= start:
                    raise ValueError(
                        f"shard_plan bound ({start}, {end}) is empty")
        self.shard_plan = shard_plan
        from ..codegen.layout import LayoutKind
        if self.layout.kind is LayoutKind.SOA and self.n_threads > 1:
            raise ValueError(
                "ShardedRunner cannot shard SoA kernels: their slot "
                "stride is the `end` argument, so they are only valid "
                "over the whole allocation (end == n_alloc)")
        if generated.module is None:
            # an AOT ArtifactKernel: no module to walk — the bundle
            # entry recorded whether the kernel was omp-marked
            self.parallel_marked = bool(
                getattr(generated, "omp_parallel", False))
        else:
            self.parallel_marked = _module_has_omp(
                generated.module, generated.spec.function_name)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._shards: Optional[Tuple[int, List[Tuple[int, int]]]] = None

    # -- pool lifecycle ------------------------------------------------------------

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.n_threads,
                thread_name_prefix="limpet-shard")
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- sharded compute stage -----------------------------------------------------

    def shards_for(self, state: SimulationState) -> List[Tuple[int, int]]:
        cached = self._shards
        if cached is not None and cached[0] == state.n_alloc:
            return cached[1]
        if self.shard_plan is not None:
            if self.shard_plan[-1][1] != state.n_alloc or \
                    self.shard_plan[0][0] != 0:
                raise ValueError(
                    f"shard_plan covers "
                    f"[{self.shard_plan[0][0]}, {self.shard_plan[-1][1]})"
                    f" but the allocation is [0, {state.n_alloc})")
            bounds = list(self.shard_plan)
        else:
            bounds = shard_bounds(state.n_alloc, self.n_threads,
                                  self.spec.width)
        self._shards = (state.n_alloc, bounds)
        sizes = [end - start for start, end in bounds]
        if sizes:
            mean = sum(sizes) / len(sizes)
            _metrics.gauge("shard_count",
                           "shards of the latest decomposition"
                           ).set(len(bounds))
            _metrics.gauge("shard_imbalance_ratio",
                           "largest shard / mean shard size"
                           ).set(max(sizes) / mean if mean else 1.0)
        return bounds

    def compute_step(self, state: SimulationState, dt: float) -> None:
        """One compute-stage invocation, fanned out over cell shards."""
        shards = self.shards_for(state)
        args = self._bind_args(state, dt)
        args[3] = state.time
        if len(shards) <= 1:
            self.kernel.fn(*args)
            return
        fn = self.kernel.fn
        tail = args[2:]
        pool = self._ensure_pool()
        futures = [pool.submit(fn, start, end, *tail)
                   for start, end in shards]
        for future in futures:
            future.result()     # propagate the first kernel exception
