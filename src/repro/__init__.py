"""limpetMLIR reproduction — MLIR-style code generation for cardiac
ionic models.

Reproduces Thangamani, Trevisan Jost, Loechner, Genaud & Bramas,
"Lifting Code Generation of Cardiac Physiology Simulation to Novel
Compiler Technology", CGO 2023.  See DESIGN.md for the system inventory
and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import load_model, generate_limpet_mlir, KernelRunner

    model = load_model("Courtemanche")            # one of 43 models
    kernel = generate_limpet_mlir(model, width=8)  # AVX-512-style lanes
    runner = KernelRunner(kernel)                  # optimize + lower
    result = runner.simulate(n_cells=8192, n_steps=1000)

The package layers, bottom-up:

* :mod:`repro.easyml` — the EasyML DSL (lexer, parser, AST);
* :mod:`repro.frontend` — the limpet frontend (analysis, preprocessor);
* :mod:`repro.ir` — the MLIR-style SSA IR, dialects and passes;
* :mod:`repro.codegen` — baseline, limpetMLIR and icc_simd backends;
* :mod:`repro.runtime` — lowering to executable kernels, LUTs, driver;
* :mod:`repro.machine` — the calibrated Cascade Lake cost model;
* :mod:`repro.models` — the 43-model suite;
* :mod:`repro.bench` — the bench harness regenerating every figure;
* :mod:`repro.resilience` — backend fallback chain, sandboxed passes,
  numerical watchdog, fault injection.
"""

from .easyml import parse_model, parse_model_file
from .frontend import IonicModel, Method, analyze
from .frontend import load_model as load_model_source
from .frontend import load_model_file
from .codegen import (BackendMode, GeneratedKernel, KernelSpec, Layout,
                      aos, aosoa, generate, generate_baseline,
                      generate_icc_simd, generate_limpet_mlir, soa)
from .runtime import (KernelRunner, RunResult, SimulationState, Stimulus,
                      TrajectoryComparison, compare_trajectories)
from .resilience import (Diagnostic, FaultInjector, FaultPlan, HealthReport,
                         NumericalDivergenceError, ResilientCompileError,
                         ResilientKernel, WatchdogConfig, compile_resilient)
from .machine import (AVX2, AVX512, CASCADE_LAKE, SSE, CostModel,
                      profile_kernel)
from .models import ALL_MODELS, SIZE_CLASS, list_models, load_model
from .bench import ModeledBench, geomean, run_measured

__version__ = "1.0.0"

__all__ = [
    "parse_model", "parse_model_file", "IonicModel", "Method", "analyze",
    "load_model_source", "load_model_file", "BackendMode",
    "GeneratedKernel", "KernelSpec", "Layout", "aos", "aosoa", "soa",
    "generate", "generate_baseline", "generate_icc_simd",
    "generate_limpet_mlir",
    "KernelRunner", "RunResult", "SimulationState", "Stimulus",
    "compare_trajectories", "AVX2", "AVX512", "CASCADE_LAKE", "SSE",
    "CostModel", "profile_kernel", "ALL_MODELS", "SIZE_CLASS",
    "list_models", "load_model", "ModeledBench", "geomean",
    "run_measured", "TrajectoryComparison", "Diagnostic", "FaultInjector",
    "FaultPlan", "HealthReport", "NumericalDivergenceError",
    "ResilientCompileError", "ResilientKernel", "WatchdogConfig",
    "compile_resilient", "__version__",
]
