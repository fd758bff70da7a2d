"""Tier: inline, or supervised worker processes (DESIGN.md §5.1).

Callers hand their worker count to :func:`make_runner` instead of
picking a runner class, so "how many is parallel" has one answer.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..codegen.common import GeneratedKernel
from .executor import KernelRunner
from .supervised import SupervisedRunner


def make_runner(generated: GeneratedKernel, workers: int = 0,
                shard_plan: Optional[List[Tuple[int, int]]] = None,
                supervision=None, fault_plan=None,
                **runner_kwargs) -> KernelRunner:
    """The runner for ``generated``: a ``workers`` count above 1 is the
    supervised tier (0 and 1 both mean inline), which takes
    ``shard_plan``, ``supervision`` (a ``SupervisionConfig``) and
    ``fault_plan``; ``runner_kwargs`` are :class:`KernelRunner`'s
    keywords."""
    if workers > 1:
        return SupervisedRunner(generated, n_workers=workers,
                                config=supervision, fault_plan=fault_plan,
                                shard_plan=shard_plan, **runner_kwargs)
    return KernelRunner(generated, **runner_kwargs)
