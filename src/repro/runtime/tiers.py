"""Tier: inline, threads, or supervised processes (DESIGN.md §5.1).

Callers hand their thread/worker count to :func:`make_runner` instead
of picking a runner class, so "how many is parallel" has one answer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..codegen.common import GeneratedKernel
from .executor import KernelRunner
from .sharded import ShardedRunner
from .supervised import SupervisedRunner


def choose_tier(threads: int = 1, workers: int = 0) -> Tuple[str, int]:
    """The one rule, as ``(tier, shard count)``: a count above 1 is
    parallel, worker processes win over threads, and 0 and 1 both mean
    "not this tier"."""
    if workers > 1:
        return "supervised", workers
    if threads > 1:
        return "threads", threads
    return "single", 1


def make_runner(generated: GeneratedKernel, threads: int = 1,
                workers: int = 0,
                shard_plan: Optional[List[Tuple[int, int]]] = None,
                supervision=None, fault_plan=None,
                **runner_kwargs) -> KernelRunner:
    """The runner for ``generated`` on the tier the counts select:
    ``shard_plan`` applies to either parallel tier, ``supervision`` (a
    ``SupervisionConfig``) and ``fault_plan`` to the supervised one;
    ``runner_kwargs`` are :class:`KernelRunner`'s keywords."""
    tier, count = choose_tier(threads, workers)
    if tier == "supervised":
        return SupervisedRunner(generated, n_workers=count,
                                config=supervision, fault_plan=fault_plan,
                                shard_plan=shard_plan, **runner_kwargs)
    if tier == "threads":
        return ShardedRunner(generated, n_threads=count,
                             shard_plan=shard_plan, **runner_kwargs)
    return KernelRunner(generated, **runner_kwargs)
