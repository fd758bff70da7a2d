"""Runtime side of multimodel support: parent/offspring simulations.

A :class:`HierarchicalSimulation` couples one *parent* ionic model
(e.g. a ventricular membrane model) with any number of *plugin* models
(e.g. a stretch-activated channel, an IK,ACh plugin, an active-stress
model) whose cells read the parent's ``Vm`` and accumulate their
currents into the parent's ``Iion`` — openCARP's plugin architecture
(§3.3.2 "Multimodel support").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..codegen import generate_limpet_mlir, generate_plugin
from ..frontend.model import IonicModel
from .executor import KernelRunner, Stimulus, advance
from .state import SimulationState


@dataclass
class PluginInstance:
    """One plugin model attached to (a subset of) the parent's cells."""

    model: IonicModel
    #: binds the plugin kernel's standard arguments and keeps its
    #: dt-dependent LUTs, bounded as every runner's are
    runner: KernelRunner
    state: SimulationState
    parent_map: np.ndarray         # offspring cell -> parent cell (or -1)


class HierarchicalSimulation:
    """Parent model + plugins sharing external variables."""

    def __init__(self, parent_model: IonicModel, n_cells: int,
                 width: int = 8, perturbation: float = 0.0):
        self.width = width
        self.parent = KernelRunner(generate_limpet_mlir(parent_model, width))
        self.state = self.parent.make_state(n_cells,
                                            perturbation=perturbation)
        self.plugins: List[PluginInstance] = []

    # -- construction -----------------------------------------------------------

    def attach_plugin(self, model: IonicModel,
                      parent_map: Sequence[int],
                      use_lut: bool = True) -> PluginInstance:
        """Attach ``model`` with one offspring cell per map entry.

        ``parent_map[i]`` is the parent cell offspring i couples to, or
        -1 for an uncoupled (standalone) offspring cell.
        """
        parent_map = np.asarray(parent_map, dtype=np.int64)
        if parent_map.ndim != 1:
            raise ValueError("parent_map must be one-dimensional")
        if (parent_map >= self.state.n_cells).any():
            raise ValueError("parent_map points past the parent's cells")
        runner = KernelRunner(generate_plugin(model, self.width,
                                              use_lut=use_lut),
                              artifacts=False)
        state = runner.make_state(len(parent_map))
        padded_map = np.full(state.n_alloc, -1, dtype=np.int64)
        padded_map[:len(parent_map)] = parent_map
        plugin = PluginInstance(model=model, runner=runner, state=state,
                                parent_map=padded_map)
        self.plugins.append(plugin)
        return plugin

    # -- stepping ----------------------------------------------------------------

    def _compute_coupled(self, state: SimulationState, dt: float) -> None:
        """The compute stage: the parent's kernel, then every plugin's
        (each accumulating into the parent's externals)."""
        self.parent.compute_step(state, dt)
        for plugin in self.plugins:
            ps = plugin.state
            args = plugin.runner._bind_args(ps, dt) + [plugin.parent_map]
            args[3] = state.time
            for ext in plugin.model.externals:
                parent_array = state.externals.get(ext)
                if parent_array is None:
                    # the parent does not expose this external: plugins
                    # fall through to their local storage for it
                    parent_array = ps.externals[ext]
                args.append(parent_array)
            plugin.runner.kernel.fn(*args)

    def step(self, dt: float = 0.01,
             stimulus: Optional[Stimulus] = None) -> None:
        """One coupled step: parent compute, plugins accumulate, solve."""
        self.run(1, dt, stimulus)

    def run(self, n_steps: int, dt: float = 0.01,
            stimulus: Optional[Stimulus] = None) -> None:
        advance(self.state, n_steps, dt, self._compute_coupled,
                self.parent.solver_step, stimulus)

    # -- views -------------------------------------------------------------------

    def parent_vm(self) -> np.ndarray:
        return self.state.external("Vm")

    def plugin_state(self, idx: int, name: str) -> np.ndarray:
        return self.plugins[idx].state.state_of(name)
