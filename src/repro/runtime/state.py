"""Simulation state: cell state buffers and external-variable arrays.

The shared read-only values (parameters) were folded at compile time;
what remains at runtime is the per-cell private state (in one of the
§3.4.1 layouts) and the external arrays (``Vm``, ``Iion``) that couple
the compute stage to the solver stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..codegen.layout import Layout, pack_state, unpack_state
from ..frontend.model import IonicModel


@dataclass
class StateCheckpoint:
    """A deep copy of everything :meth:`SimulationState.restore` needs.

    Taken by the numerical watchdog at every healthy scan so a diverged
    segment can be rolled back and retried with a smaller dt.
    """

    sv: np.ndarray
    externals: Dict[str, np.ndarray]
    time: float
    steps_done: int


@dataclass
class SimulationState:
    """All mutable arrays of one simulation."""

    model: IonicModel
    layout: Layout
    n_cells: int
    n_alloc: int                    # padded to a whole number of blocks
    sv: np.ndarray                  # flat state buffer, layout-encoded
    externals: Dict[str, np.ndarray]
    time: float = 0.0
    steps_done: int = 0
    #: per-cell arrays for the model's promoted parameters (population
    #: batching).  The kernel only reads them: never checkpointed or
    #: restored; supervised workers get a copy before each segment.
    params: Dict[str, np.ndarray] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.params is None:
            self.params = {}

    # -- views -------------------------------------------------------------------

    def state_matrix(self) -> np.ndarray:
        """(n_cells, n_states) copy of the current state."""
        return unpack_state(self.sv, self.layout, self.n_alloc)[:self.n_cells]

    def state_of(self, name: str) -> np.ndarray:
        """Current values of one state variable across cells."""
        slot = self.model.states.index(name)
        return self.state_matrix()[:, slot]

    def set_state(self, values: np.ndarray) -> None:
        """Overwrite the state from a (n_cells, n_states) matrix."""
        full = np.empty((self.n_alloc, len(self.model.states)))
        full[:self.n_cells] = values
        # padding lanes replicate the last real cell so they stay finite
        full[self.n_cells:] = values[-1] if len(values) else 0.0
        # in place: buffer identity is load-bearing — the runner's
        # prebound kernel args must keep seeing this state
        self.sv[...] = pack_state(full, self.layout)

    def external(self, name: str) -> np.ndarray:
        return self.externals[name][:self.n_cells]

    # -- checkpoint/restore --------------------------------------------------------

    def checkpoint(self) -> StateCheckpoint:
        """Deep-copy the mutable arrays + clock for later :meth:`restore`."""
        return StateCheckpoint(
            sv=self.sv.copy(),
            externals={k: v.copy() for k, v in self.externals.items()},
            time=self.time, steps_done=self.steps_done)

    def restore(self, checkpoint: StateCheckpoint) -> None:
        """Roll back to ``checkpoint`` in place (buffers keep identity,
        so a compiled kernel holding no stale references is required —
        the runner passes arrays per call, which satisfies that)."""
        self.sv[...] = checkpoint.sv
        for name, saved in checkpoint.externals.items():
            self.externals[name][...] = saved
        self.time = checkpoint.time
        self.steps_done = checkpoint.steps_done

    def snapshot(self) -> Dict[str, np.ndarray]:
        """State + externals as plain arrays (for comparisons/tests)."""
        result = {name: self.state_of(name).copy()
                  for name in self.model.states}
        for name, array in self.externals.items():
            result[name] = array[:self.n_cells].copy()
        return result


def allocate_state(model: IonicModel, layout: Layout, n_cells: int,
                   width: int = 1, vm_init: Optional[float] = None,
                   rng: Optional[np.random.Generator] = None,
                   perturbation: float = 0.0,
                   param_values: Optional[Dict[str, object]] = None
                   ) -> SimulationState:
    """Allocate and initialize state per the model's ``_init`` values.

    ``width`` is the kernel's SIMD width: the allocation is padded so
    the vector cell loop never runs past the buffers (padding lanes
    replicate the last real cell).  ``perturbation`` adds reproducible
    per-cell jitter (drawn per real cell, independent of padding or
    layout, so runs under different backends start identically) —
    useful for exercising LUT interpolation across rows.

    ``param_values`` supplies per-cell values for the model's promoted
    parameters: scalar (broadcast) or a length-``n_cells`` array
    (padding lanes replicate the last real cell).  Promoted params not
    named default to the model's declared value.
    """
    padded = -(-n_cells // max(width, 1)) * max(width, 1)
    n_alloc = layout.padded_cells(padded)
    n_states = len(model.states)
    values = np.empty((n_alloc, n_states), dtype=np.float64)
    for slot, state in enumerate(model.states):
        values[:, slot] = model.init_values[state]
    if perturbation and n_states:
        rng = rng or np.random.default_rng(0)
        jitter = rng.uniform(-perturbation, perturbation,
                             (n_cells, n_states))
        # relative jitter only: sign-preserving, so concentrations and
        # gate fractions keep their physical ranges
        values[:n_cells] *= 1.0 + jitter
        values[n_cells:] = values[n_cells - 1]
    sv = pack_state(values, layout)
    externals: Dict[str, np.ndarray] = {}
    vm_rng = np.random.default_rng(1) if rng is None else rng
    for name in model.externals:
        default = model.external_init.get(name, 0.0)
        if name == "Vm" and vm_init is not None:
            default = vm_init
        array = np.full(n_alloc, default, dtype=np.float64)
        if perturbation and name == "Vm":
            array[:n_cells] += (vm_rng.uniform(-1.0, 1.0, n_cells)
                                * perturbation * 10.0)
            array[n_cells:] = array[n_cells - 1]
        externals[name] = array
    params: Dict[str, np.ndarray] = {}
    param_values = param_values or {}
    unknown = set(param_values) - set(model.promoted_params)
    if unknown:
        raise ValueError(
            f"param_values for non-promoted parameter(s): "
            f"{sorted(unknown)} (promoted: "
            f"{list(model.promoted_params) or '(none)'})")
    for pname in model.promoted_params:
        given = param_values.get(pname, model.params[pname])
        array = np.empty(n_alloc, dtype=np.float64)
        values_p = np.asarray(given, dtype=np.float64)
        if values_p.ndim == 0:
            array[:] = values_p
        else:
            if values_p.shape != (n_cells,):
                raise ValueError(
                    f"param {pname!r}: expected a scalar or shape "
                    f"({n_cells},), got {values_p.shape}")
            array[:n_cells] = values_p
            array[n_cells:] = values_p[-1] if n_cells else 0.0
        params[pname] = array
    return SimulationState(model=model, layout=layout, n_cells=n_cells,
                           n_alloc=n_alloc, sv=sv, externals=externals,
                           params=params)
