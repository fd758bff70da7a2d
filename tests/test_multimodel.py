"""Multimodel (parent/offspring) tests — paper §3.3.2."""

import numpy as np
import pytest

from repro.codegen import generate_limpet_mlir, generate_plugin
from repro.frontend import load_model
from repro.ir import verify_module
from repro.models import load_model as load_registry_model
from repro.runtime import (HierarchicalSimulation, KernelRunner, Stimulus,
                           compare_trajectories)
from repro.runtime.executor import _LUT_CACHE_MAX

PLUGIN_SOURCE = """
Vm; .external();
Iion; .external();
gK = 0.02; .param();
diff_r = 0.05*(1/(1+exp(-(Vm+60)/10)) - r);
r_init = 0.0;
Iion = gK*r*(Vm + 90.0);
"""


@pytest.fixture
def plugin_model():
    return load_model(PLUGIN_SOURCE, "KPlugin")


class TestPluginCodegen:
    def test_verifies(self, plugin_model):
        kernel = generate_plugin(plugin_model, width=8)
        verify_module(kernel.module)

    def test_signature_has_parent_arguments(self, plugin_model):
        kernel = generate_plugin(plugin_model, width=8)
        fn = kernel.module.lookup_func(kernel.spec.function_name)
        hints = [a.name_hint for a in fn.body.args]
        assert "parent_map" in hints
        assert "parent_Vm" in hints and "parent_Iion" in hints

    def test_uses_masked_gather_and_scatter(self, plugin_model):
        kernel = generate_plugin(plugin_model, width=8)
        gathers = [op for op in kernel.module.walk()
                   if op.name == "vector.gather"]
        scatters = [op for op in kernel.module.walk()
                    if op.name == "vector.scatter"]
        assert gathers and all(len(op.operands) == 4 for op in gathers)
        assert scatters and all(len(op.operands) == 4 for op in scatters)


class TestHierarchy:
    def test_plugin_luts_follow_dt(self):
        """Rush–Larsen columns are dt-dependent: a plugin's tables built
        for one dt must not serve the next."""
        model = load_registry_model("LuoRudy91")

        def coupled():
            sim = HierarchicalSimulation(model, n_cells=16, width=8)
            sim.attach_plugin(model, list(range(16)))
            sim.run(20, 0.01)
            return sim

        reused, rebuilt = coupled(), coupled()
        rebuilt.plugins[0].runner._lut_cache.clear()
        for sim in (reused, rebuilt):
            sim.run(20, 0.005)
        assert np.array_equal(reused.parent_vm(), rebuilt.parent_vm())
        assert np.array_equal(reused.plugin_state(0, "m"),
                              rebuilt.plugin_state(0, "m"))

    def test_plugin_luts_are_bounded(self):
        """A plugin keeps at most as many dt table sets as any runner
        does, however many dt values a run visits."""
        model = load_registry_model("LuoRudy91")
        sim = HierarchicalSimulation(model, n_cells=8, width=8)
        plugin = sim.attach_plugin(model, list(range(8)))
        for k in range(20):
            sim.run(1, 0.01 / (k + 1))
        assert plugin.runner.lut_cache_stats()["entries"] <= _LUT_CACHE_MAX

    def test_coupled_cells_feel_the_plugin(self, plugin_model):
        parent = load_registry_model("LuoRudy91")
        sim = HierarchicalSimulation(parent, n_cells=32, width=8)
        sim.attach_plugin(plugin_model, list(range(16)))
        sim.run(300, 0.01)
        vm = sim.parent_vm()
        assert np.isfinite(vm).all()
        coupled, uncoupled = vm[:16], vm[16:]
        assert abs(coupled.mean() - uncoupled.mean()) > 1e-10

    def test_uncoupled_hierarchy_matches_standalone_parent(self,
                                                           plugin_model):
        """A plugin whose every lane is unparented must not disturb
        the parent at all (the fall-through path)."""
        parent = load_registry_model("HodgkinHuxley")
        solo = KernelRunner(generate_limpet_mlir(parent, 8))
        state = solo.make_state(16)
        solo.run(state, 100, 0.01)

        sim = HierarchicalSimulation(parent, n_cells=16, width=8)
        sim.attach_plugin(plugin_model, [-1] * 8)
        sim.run(100, 0.01)
        np.testing.assert_allclose(sim.parent_vm(),
                                   state.external("Vm"), rtol=1e-12)

    def test_unparented_lane_uses_local_storage(self, plugin_model):
        parent = load_registry_model("HodgkinHuxley")
        sim = HierarchicalSimulation(parent, n_cells=8, width=8)
        plugin = sim.attach_plugin(plugin_model, [0, -1])
        sim.run(200, 0.01)
        r = sim.plugin_state(0, "r")
        # lane 0 sees the parent's Vm (~-75), lane 1 its local Vm (0.0
        # default): different activation levels
        assert abs(r[0] - r[1]) > 1e-6

    def test_multiple_plugins_accumulate(self, plugin_model):
        parent = load_registry_model("LuoRudy91")
        one = HierarchicalSimulation(parent, n_cells=16, width=8)
        one.attach_plugin(plugin_model, list(range(16)))
        one.run(100, 0.01)

        two = HierarchicalSimulation(parent, n_cells=16, width=8)
        two.attach_plugin(plugin_model, list(range(16)))
        two.attach_plugin(plugin_model, list(range(16)))
        two.run(100, 0.01)
        # two copies of the same current pull Vm measurably further
        assert np.abs(one.parent_vm() - two.parent_vm()).max() > 1e-6

    def test_map_out_of_range_rejected(self, plugin_model):
        parent = load_registry_model("HodgkinHuxley")
        sim = HierarchicalSimulation(parent, n_cells=8)
        with pytest.raises(ValueError, match="past the parent"):
            sim.attach_plugin(plugin_model, [99])

    def test_map_must_be_1d(self, plugin_model):
        parent = load_registry_model("HodgkinHuxley")
        sim = HierarchicalSimulation(parent, n_cells=8)
        with pytest.raises(ValueError, match="one-dimensional"):
            sim.attach_plugin(plugin_model, [[0, 1]])

    def test_registry_plugin_models_attachable(self):
        """The suite's plugin-style models work as actual plugins."""
        parent = load_registry_model("LuoRudy91")
        sim = HierarchicalSimulation(parent, n_cells=16, width=8)
        sim.attach_plugin(load_registry_model("IKChCheng"),
                          list(range(16)))
        sim.run(200, 0.01, Stimulus(amplitude=-25.0, duration=1.0,
                                    period=100.0))
        assert np.isfinite(sim.parent_vm()).all()
