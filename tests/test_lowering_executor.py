"""Lowering and executor tests: IR -> Python kernels -> simulations."""

import numpy as np
import pytest

from repro.codegen import generate_baseline, generate_limpet_mlir
from repro.frontend import load_model
from repro.ir import IRBuilder, build_module
from repro.ir.dialects import arith, func, memref, scf, vector
from repro.ir.types import f64, index, memref_of
from repro.runtime import (KernelRunner, Stimulus, compare_trajectories,
                           lower_function)
from repro.runtime.lowering import LoweringError


class TestLoweringBasics:
    def _make_sum_function(self, cell_loop: bool):
        """sum += buf[i] over an scf.for with iter_args."""
        module, _ = build_module()
        fn = func.func(module, "total", [memref_of(f64), index], [f64],
                       ["buf", "n"])
        b = IRBuilder(fn.entry)
        zero = b.constant(0, index)
        one = b.constant(1, index)
        init = b.constant(0.0, f64)
        loop = scf.for_op(b, zero, fn.args[1], one, [init])
        if cell_loop:
            loop.op.attributes["cell_loop"] = True
        with b.at_end_of(loop.body):
            value = memref.load(b, fn.args[0], [loop.induction_var])
            scf.yield_op(b, [arith.addf(b, loop.iter_args[0], value)])
        func.ret(b, [loop.results[0]])
        return module

    def test_scalar_loop_with_iter_args(self):
        module = self._make_sum_function(cell_loop=False)
        kernel = lower_function(module, "total")
        data = np.arange(5.0)
        assert kernel.fn(data, 5) == 10.0

    def test_source_is_kept(self):
        module = self._make_sum_function(cell_loop=False)
        kernel = lower_function(module, "total")
        assert "def total(" in kernel.source
        assert "for " in kernel.source

    def test_vector_cell_loop_with_iter_args_rejected(self):
        module = self._make_sum_function(cell_loop=True)
        with pytest.raises(LoweringError, match="iter_args"):
            lower_function(module, "total", mode="vector")

    def test_missing_function(self):
        module, _ = build_module()
        with pytest.raises(LoweringError, match="no function"):
            lower_function(module, "ghost")

    def test_vector_flattened_store(self):
        """A width-4 vectorized doubling kernel over 8 cells."""
        module, _ = build_module()
        fn = func.func(module, "double", [index, index, memref_of(f64)],
                       [], ["start", "end", "buf"])
        b = IRBuilder(fn.entry)
        four = b.constant(4, index)
        loop = scf.for_op(b, fn.args[0], fn.args[1], four, iv_hint="i")
        loop.op.attributes["cell_loop"] = True
        loop.op.attributes["vector_width"] = 4
        with b.at_end_of(loop.body):
            vec = vector.load(b, fn.args[2], [loop.induction_var], 4)
            two = vector.broadcast(b, b.constant(2.0, f64), 4)
            vector.store(b, arith.mulf(b, vec, two), fn.args[2],
                         [loop.induction_var])
            scf.yield_op(b)
        func.ret(b)
        kernel = lower_function(module, "double")
        assert kernel.mode == "vector" and kernel.width == 4
        data = np.arange(8.0)
        kernel.fn(0, 8, data)
        np.testing.assert_array_equal(data, np.arange(8.0) * 2)

    def test_gather_scatter_lowering(self):
        module, _ = build_module()
        fn = func.func(module, "rev", [index, index, memref_of(f64),
                                       memref_of(f64)],
                       [], ["start", "end", "src", "dst"])
        b = IRBuilder(fn.entry)
        w = b.constant(4, index)
        loop = scf.for_op(b, fn.args[0], fn.args[1], w, iv_hint="i")
        loop.op.attributes["cell_loop"] = True
        loop.op.attributes["vector_width"] = 4
        with b.at_end_of(loop.body):
            lanes = vector.step(b, 4)
            base = vector.broadcast(b, loop.induction_var, 4)
            idx = arith.addi(b, base, lanes)
            two = vector.broadcast(b, b.constant(2, index), 4)
            strided = arith.muli(b, idx, two)
            gathered = vector.gather(b, fn.args[2], strided)
            vector.scatter(b, gathered, fn.args[3], idx)
            scf.yield_op(b)
        func.ret(b)
        kernel = lower_function(module, "rev")
        src = np.arange(16.0)
        dst = np.zeros(8)
        kernel.fn(0, 8, src, dst)
        np.testing.assert_array_equal(dst, src[::2])

    def test_only_float_loads_are_read_with_item(self):
        """A scalar f64 load is ``.item()`` (a Python float); an index
        load keeps NumPy indexing (a NumPy integer, which wraps)."""
        module, _ = build_module()
        fn = func.func(module, "pick", [index, index, memref_of(index),
                                        memref_of(f64), memref_of(f64)],
                       [], ["start", "end", "idx", "src", "dst"])
        b = IRBuilder(fn.entry)
        one = b.constant(1, index)
        loop = scf.for_op(b, fn.args[0], fn.args[1], one, iv_hint="i")
        loop.op.attributes["cell_loop"] = True
        with b.at_end_of(loop.body):
            where = memref.load(b, fn.args[2], [loop.induction_var])
            value = memref.load(b, fn.args[3], [where])
            memref.store(b, value, fn.args[4], [loop.induction_var])
            scf.yield_op(b)
        func.ret(b)
        kernel = lower_function(module, "pick")
        assert kernel.mode == "scalar"
        loads = [line.split(" = ")[1] for line in kernel.source.split("\n")
                 if " = idx" in line or " = src" in line]
        assert loads == ["idx[i]", "src.item(v6)"], kernel.source
        idx, src, dst = np.array([2, 0, 1]), np.array([5.0, 6.0, 7.0]), \
            np.zeros(3)
        kernel.fn(0, 3, idx, src, dst)
        np.testing.assert_array_equal(dst, [7.0, 5.0, 6.0])

    def test_guarded_scalar_math(self):
        """Scalar engines must produce IEEE results, not exceptions."""
        from repro.runtime.lowering import (_g_div, _g_exp, _g_log,
                                            _g_pow, _g_sqrt)
        assert _g_exp(10000.0) == float("inf")
        assert _g_log(0.0) == float("-inf")
        assert np.isnan(_g_log(-1.0))
        assert np.isnan(_g_sqrt(-1.0))
        assert _g_div(1.0, 0.0) == float("inf")
        assert np.isnan(_g_div(0.0, 0.0))
        assert _g_pow(-1.0, 0.5) != _g_pow(-1.0, 0.5)  # nan


class TestExecutor:
    def test_state_snapshot_keys(self, gate_model):
        runner = KernelRunner(generate_baseline(gate_model))
        state = runner.make_state(4)
        snap = state.snapshot()
        assert set(snap) == {"m", "h", "c", "Vm", "Iion"}

    def test_stimulus_timing(self):
        stim = Stimulus(amplitude=-30.0, duration=2.0, period=100.0)
        assert stim.current(0.0) == -30.0
        assert stim.current(1.99) == -30.0
        assert stim.current(2.0) == 0.0
        assert stim.current(100.5) == -30.0
        assert stim.current(99.0) == 0.0

    def test_stimulus_start_offset(self):
        stim = Stimulus(amplitude=-30.0, duration=1.0, period=50.0,
                        start=10.0)
        assert stim.current(5.0) == 0.0
        assert stim.current(10.5) == -30.0

    def test_solver_stage_updates_vm(self, gate_model):
        runner = KernelRunner(generate_limpet_mlir(gate_model, 8))
        state = runner.make_state(8)
        vm_before = state.externals["Vm"].copy()
        runner.compute_step(state, 0.01)
        runner.solver_step(state, 0.01, None)
        assert not np.array_equal(vm_before, state.externals["Vm"])

    def test_no_iion_output_leaves_vm_alone(self):
        model = load_model("""
            Vm; .external();
            diff_x = -x + 0.0*Vm; x_init = 1;
        """, "NoOut")
        runner = KernelRunner(generate_baseline(model))
        state = runner.make_state(4)
        vm_before = state.externals["Vm"].copy()
        runner.run(state, 10, 0.01)
        np.testing.assert_array_equal(vm_before, state.externals["Vm"])

    def test_run_result_metadata(self, gate_model):
        runner = KernelRunner(generate_limpet_mlir(gate_model, 8))
        result = runner.simulate(16, 25, dt=0.02, record_vm=True)
        assert result.n_steps == 25 and result.dt == 0.02
        assert result.vm_trace.shape == (25,)
        assert result.seconds_per_step > 0
        assert result.state.time == pytest.approx(0.5)
        assert result.state.steps_done == 25

    def test_padding_lanes_do_not_corrupt_results(self, gate_model):
        """n_cells not divisible by the width must work and agree."""
        base = KernelRunner(generate_baseline(gate_model))
        vec = KernelRunner(generate_limpet_mlir(gate_model, 8))
        r1 = base.simulate(13, 60, 0.01, perturbation=0.01)
        r2 = vec.simulate(13, 60, 0.01, perturbation=0.01)
        assert r2.state.n_alloc == 16
        assert compare_trajectories(r1.state, r2.state)

    def test_state_matrix_round_trip(self, gate_model):
        runner = KernelRunner(generate_limpet_mlir(gate_model, 8))
        state = runner.make_state(10, perturbation=0.02)
        matrix = state.state_matrix()
        state.set_state(matrix * 2.0)
        np.testing.assert_allclose(state.state_matrix(), matrix * 2.0)

    def test_deterministic_across_runs(self, gate_model):
        runner = KernelRunner(generate_limpet_mlir(gate_model, 8))
        r1 = runner.simulate(8, 40, perturbation=0.01)
        r2 = runner.simulate(8, 40, perturbation=0.01)
        assert compare_trajectories(r1.state, r2.state, rtol=0, atol=0)

    def test_compare_trajectories_detects_difference(self, gate_model):
        runner = KernelRunner(generate_limpet_mlir(gate_model, 8))
        r1 = runner.simulate(8, 10)
        r2 = runner.simulate(8, 11)
        assert not compare_trajectories(r1.state, r2.state)


class TestKernelSourceQuality:
    def test_baseline_source_is_pure_scalar(self, gate_model):
        runner = KernelRunner(generate_baseline(gate_model))
        assert "np." not in runner.kernel.source.replace("np.arange", "")
        assert "for " in runner.kernel.source

    def test_vector_source_has_no_python_cell_loop(self, gate_model):
        runner = KernelRunner(generate_limpet_mlir(gate_model, 8))
        # markov/BE inner loops would use 'for'; this model has none.
        # A pack loops over its lanes (state slots) on large meshes
        # only, never over cells
        loops = [line.strip() for line in runner.kernel.source.splitlines()
                 if " for " in f" {line.strip()}"]
        assert loops == ["_pk0 = [_to.copy() for _to in _sv_b1.reshape("
                         "_nb, 3, 8)[:, 0:3].transpose(1, 0, 2)]"]
        # flattened: one block count, every block addressed at once
        assert "_nb = len(range(start, end, 8))" in runner.kernel.source
