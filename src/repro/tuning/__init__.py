"""Cost-model-guided kernel autotuner with a persistent tuning DB.

The four-stage shape of production kernel autotuners, applied to this
repository's codegen/runtime knobs: enumerate the legal configuration
space, rank it with a cost model fed by real IR profiles, measure-refine
the top-K with the steady-state harness, and persist the decision keyed
by the same content-hash discipline as the kernel cache.  See
DESIGN.md §7.
"""

from .costrank import (PredictedCandidate, generate_for, predict_ranking,
                       profile_variants, variant_key)
from .database import (TUNE_DB_VERSION, TuningDB, default_db_path,
                       model_source_hash, tuning_db_key)
from .report import (MIN_SPEEDUP, MIN_TOP1_AGREEMENT,
                     REPRESENTATIVE_MODELS, SLOWDOWN_TOLERANCE,
                     check_tuning_report, format_tuning_table,
                     tuning_report)
from .space import (LAYOUTS, LUT_MODES, WIDTHS, TuningConfig, Workload,
                    default_config_for, enumerate_space,
                    integrator_summary)
from .tuner import (CandidateResult, TuningResult, autotune, build_runner,
                    lookup_config, tuned_config_for, tuned_runner)

__all__ = [
    "LAYOUTS", "LUT_MODES", "WIDTHS", "TuningConfig", "Workload",
    "default_config_for", "enumerate_space", "integrator_summary",
    "TUNE_DB_VERSION", "TuningDB", "default_db_path",
    "model_source_hash", "tuning_db_key",
    "PredictedCandidate", "generate_for", "predict_ranking",
    "profile_variants", "variant_key",
    "CandidateResult", "TuningResult", "autotune", "build_runner",
    "lookup_config", "tuned_config_for", "tuned_runner",
    "MIN_SPEEDUP", "MIN_TOP1_AGREEMENT", "REPRESENTATIVE_MODELS",
    "SLOWDOWN_TOLERANCE", "check_tuning_report", "format_tuning_table",
    "tuning_report",
]
