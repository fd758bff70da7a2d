"""Population-batched execution: one kernel, N parameter-perturbed
instances (the batch-axis throughput lever).

* :class:`PopulationSpec` — which params vary, per-instance values;
* :class:`PopulationRunner` — compile once (params promoted to
  per-instance arrays), advance all instances per kernel call;
* :func:`sweep` — the drug-block one-liner over ``"lo:hi:N"`` ranges.
"""

from .runner import (PopulationRunner, PopulationRunResult,
                     load_promoted_model)
from .spec import PopulationSpec, parse_range
from .sweep import sweep

__all__ = ["PopulationSpec", "PopulationRunner", "PopulationRunResult",
           "load_promoted_model", "parse_range", "sweep"]
