"""The one-call parameter-sweep API: ``repro.population.sweep()``.

A sweep is a population run built from ``"lo:hi:N"`` range strings —
the drug-block idiom (``GKr="0.1:1.0:16"`` scales IKr conductance from
90% block to none).  The compiled kernel is keyed by the population
*shape* (parameter names + N), so every sweep of the same shape after
the first is a compile-cache hit, counted in
``sweep_compile_reuse_total``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..obs import metrics as _metrics
from ..obs import trace as _trace
from .runner import PopulationRunner, PopulationRunResult, \
    load_promoted_model
from .spec import PopulationSpec


def sweep(model: str, params: Mapping[str, str],
          cells_per_instance: int = 256, n_steps: int = 100,
          dt: float = 0.01, absolute: bool = False,
          n_workers: int = 0, width: int = 8,
          layout: Optional[str] = None, cache=None,
          record_vm: bool = False, perturbation: float = 0.0,
          stimulus=None, **runner_kwargs) -> PopulationRunResult:
    """Run one batched parameter sweep of a registry model.

    ``params`` maps parameter names to ``"lo:hi:N"`` ranges — scale
    factors of the declared value by default, raw values with
    ``absolute=True``.  Returns a
    :class:`~repro.population.PopulationRunResult` whose
    ``compile_reused`` flag says whether the kernel came from the
    persistent cache (one compile serves every sweep of this shape).
    """
    promoted = load_promoted_model(
        model, tuple(dict.fromkeys(params)))
    spec = PopulationSpec.from_ranges(promoted, params, absolute=absolute)
    with _trace.span("sweep", model=model,
                     instances=spec.n_instances,
                     params=",".join(spec.param_names)):
        pop = PopulationRunner(promoted, spec, width=width, layout=layout,
                               n_workers=n_workers, cache=cache,
                               **runner_kwargs)
        try:
            state = pop.make_state(cells_per_instance,
                                   perturbation=perturbation)
            if pop.cache_hit:
                _metrics.counter(
                    "sweep_compile_reuse_total",
                    "sweeps served by an already-compiled population "
                    "kernel").inc()
            result = pop.run(state, n_steps, dt, stimulus=stimulus,
                             record_vm=record_vm)
        finally:
            pop.close()
    return result
