"""Foreign-function registry: the C-side helpers some models call.

openCARP ionic models may call external C functions (experiment
protocols, tabulated measurement data, coupling hooks).  The limpet
frontend and the baseline C++ backend pass such calls through; the
MLIR backend cannot vectorize an opaque call, which is (in this
reproduction) why 4 of the 47 shipped models fall outside limpetMLIR's
supported set — "43 out of 47 ionic models ... are supported" (§3.3.2).

Foreign implementations registered here are NumPy-compatible: the
scalar baseline engine calls them per cell on Python floats and wraps
the result in ``float()``; the interpreter and ``eval_expr`` call them
on NumPy values.  They hold no ``np.errstate``: each caller holds one
(the scalar kernel around its cell loop, ``Interpreter.call``,
``eval_expr``), not one per call per cell.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

_REGISTRY: Dict[str, Callable] = {}


def register_foreign(name: str, fn: Callable) -> None:
    """Register (or replace) a foreign function implementation."""
    _REGISTRY[name] = fn


def foreign_function(name: str) -> Callable:
    """Look up a foreign implementation; raises KeyError if missing."""
    if name not in _REGISTRY:
        raise KeyError(
            f"foreign function {name!r} is not registered; use "
            f"repro.runtime.foreign.register_foreign")
    return _REGISTRY[name]


def registered_foreign() -> Dict[str, Callable]:
    """A copy of the registry (lowering injects these into kernels)."""
    return dict(_REGISTRY)


# -- default implementations used by the unsupported-model quartet ---------


def _sac_tension(stretch):
    """Measured stretch-tension relation (piecewise-smooth saturation)."""
    s = np.maximum(stretch - 1.0, 0.0)
    return 4.5 * s / (0.08 + s)


def _ach_release(t_activity):
    """Vagal acetylcholine release protocol (experiment-driven)."""
    return 0.1 + 0.05 * np.sin(0.002 * t_activity)


def _fibro_coupling(vm, g_gap):
    """Fibroblast-myocyte gap-junction current from tabulated data."""
    return g_gap * (vm + 22.5) / (1.0 + np.exp(-(vm + 40.0) / 15.0))


def _afterload_pressure(volume):
    """Windkessel afterload pressure (external circulation model)."""
    return 10.0 + 120.0 * np.maximum(volume, 0.0) ** 1.2 / \
        (1.0 + np.maximum(volume, 0.0) ** 1.2)


register_foreign("sac_tension", _sac_tension)
register_foreign("ach_release", _ach_release)
register_foreign("fibro_coupling", _fibro_coupling)
register_foreign("afterload_pressure", _afterload_pressure)
