"""Runtime: lowering to executable kernels, state, LUTs, the driver."""

from .executor import (KernelRunner, RunResult, Stimulus,
                       TrajectoryComparison, compare_trajectories)
from .resolve import Resolution, resolve_kernel
from .lowering import (LOWERING_VERSION, CompiledKernel, LoweringError,
                       kernel_from_payload, kernel_payload, lower_function)
from .kernel_cache import (CacheStats, KernelCache, default_cache,
                           default_cache_dir, kernel_cache_key)
from .sharded import ShardedRunner, available_cpus, shard_bounds
from .supervised import (SupervisedExecutionError, SupervisedRunner,
                         SupervisionConfig, close_all_runners,
                         multiprocess_supported)
from .tiers import make_runner
from .locking import file_lock, locking_available
from .shutdown import (install_signal_handlers, register_cleanup,
                       run_cleanups, unregister_cleanup)
from .lut_runtime import (LUTData, build_all_luts, build_lut,
                          lut_interp_row, lut_interp_row_vec)
from .state import SimulationState, StateCheckpoint, allocate_state
from .expr_eval import eval_expr
from .hierarchy import HierarchicalSimulation, PluginInstance
from .foreign import foreign_function, register_foreign, registered_foreign
from .interpreter import Interpreter, InterpreterError, interpret_kernel

__all__ = ["KernelRunner", "RunResult", "Stimulus", "TrajectoryComparison",
           "compare_trajectories", "Resolution", "resolve_kernel",
           "available_cpus", "make_runner",
           "CompiledKernel", "LoweringError", "lower_function",
           "LOWERING_VERSION", "kernel_payload", "kernel_from_payload",
           "CacheStats", "KernelCache", "default_cache",
           "default_cache_dir", "kernel_cache_key",
           "ShardedRunner", "shard_bounds",
           "SupervisedRunner", "SupervisedExecutionError",
           "SupervisionConfig", "close_all_runners",
           "multiprocess_supported", "file_lock", "locking_available",
           "install_signal_handlers", "register_cleanup",
           "run_cleanups", "unregister_cleanup", "LUTData",
           "build_all_luts", "build_lut", "lut_interp_row",
           "lut_interp_row_vec", "SimulationState", "StateCheckpoint",
           "allocate_state",
           "eval_expr", "HierarchicalSimulation",
           "PluginInstance", "foreign_function", "register_foreign",
           "registered_foreign", "Interpreter", "InterpreterError",
           "interpret_kernel"]
