"""Stage 2 of the autotuner: cost-model ranking of the legal space.

Only the (width, layout, lut) axes change the generated IR — ``fuse``,
``arena`` and ``shards`` are lowering/runtime flags — so this module
generates and profiles **one IR variant per unique accessor/LUT
combination** (:func:`profile_variants`), then prices every config in
the space with
:class:`~repro.machine.costmodel.PythonRuntimeCostModel.step_time`,
passing the flags as analytic adjustments.  A 75-point space therefore
costs at most 18 codegen+pipeline+instrument runs and 75 closed-form
evaluations — cheap enough to rank everything before any measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..codegen import backend_for, generate
from ..frontend.model import IonicModel
from ..ir.passes import default_pipeline
from ..machine.costmodel import (PythonRuntimeCostModel, isa_for_width)
from ..machine.instrument import KernelProfile, profile_kernel
from .space import TuningConfig, Workload

#: IR-variant identity: the only axes that change generated code
VariantKey = Tuple[int, str, str]          # (width, layout, lut)


def variant_key(config: TuningConfig) -> VariantKey:
    return (config.width, config.layout, config.lut)


def generate_for(model: IonicModel, config: TuningConfig):
    """The generated kernel for one config's IR variant."""
    return generate(model, backend_for("limpet_mlir", config.width),
                    width=config.width, layout=config.layout,
                    use_lut=config.use_lut,
                    lut_interpolation=config.lut_interpolation)


def profile_variants(model: IonicModel, configs: List[TuningConfig]
                     ) -> Dict[VariantKey, KernelProfile]:
    """Post-pipeline :class:`KernelProfile` per unique IR variant.

    The profile is taken *after* the default pass pipeline — the same
    module state the runtime lowers — so dead code and hoisted
    invariants do not inflate the statement counts the cost model
    prices.
    """
    profiles: Dict[VariantKey, KernelProfile] = {}
    for config in configs:
        key = variant_key(config)
        if key in profiles:
            continue
        generated = generate_for(model, config)
        default_pipeline(verify_each=False).run(generated.module,
                                                fixed_point=True)
        profiles[key] = profile_kernel(generated.module,
                                       generated.spec.function_name)
    return profiles


@dataclass
class PredictedCandidate:
    """One config with its modeled step time and rank (0 = fastest)."""

    config: TuningConfig
    predicted_seconds: float
    predicted_rank: int = -1

    def as_dict(self) -> Dict:
        return {"config": self.config.as_dict(),
                "predicted_seconds": self.predicted_seconds,
                "predicted_rank": self.predicted_rank}


def predict_ranking(model: IonicModel, workload: Workload,
                    configs: List[TuningConfig],
                    cost_model: Optional[PythonRuntimeCostModel] = None
                    ) -> List[PredictedCandidate]:
    """Rank ``configs`` by modeled step time, fastest first."""
    cost_model = cost_model or PythonRuntimeCostModel()
    profiles = profile_variants(model, configs)
    # the scalar path ignores the ISA; AVX2 stands in for width 1
    placeholder_isa = isa_for_width(4)
    ranked: List[PredictedCandidate] = []
    for config in configs:
        profile = profiles[variant_key(config)]
        isa = placeholder_isa if config.width == 1 \
            else isa_for_width(config.width)
        point = cost_model.step_time(
            profile, isa, threads=config.shards,
            n_cells=workload.n_cells, fuse=config.fuse,
            arena=config.arena)
        ranked.append(PredictedCandidate(config=config,
                                         predicted_seconds=point.seconds))
    ranked.sort(key=lambda c: c.predicted_seconds)
    for rank, candidate in enumerate(ranked):
        candidate.predicted_rank = rank
    return ranked
