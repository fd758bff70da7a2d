"""IR-interpreter tests: the differential oracle against the lowering."""

import numpy as np
import pytest

from repro.codegen import (generate_baseline, generate_gpu,
                           generate_limpet_mlir)
from repro.ir import IRBuilder, build_module
from repro.ir.dialects import arith, func, memref, scf
from repro.ir.types import f64, index, memref_of
from repro.runtime import KernelRunner, compare_trajectories
from repro.runtime.interpreter import (Interpreter, InterpreterError,
                                       interpret_kernel)


class TestInterpreterBasics:
    def _sum_module(self):
        module, _ = build_module()
        fn = func.func(module, "total", [memref_of(f64), index], [f64],
                       ["buf", "n"])
        b = IRBuilder(fn.entry)
        zero = b.constant(0, index)
        one = b.constant(1, index)
        init = b.constant(0.0, f64)
        loop = scf.for_op(b, zero, fn.args[1], one, [init])
        with b.at_end_of(loop.body):
            value = memref.load(b, fn.args[0], [loop.induction_var])
            scf.yield_op(b, [arith.addf(b, loop.iter_args[0], value)])
        func.ret(b, [loop.results[0]])
        return module

    def test_loop_with_iter_args(self):
        result = Interpreter(self._sum_module()).call(
            "total", np.arange(6.0), 6)
        assert result == 15.0

    def test_missing_function(self):
        with pytest.raises(InterpreterError, match="no function"):
            Interpreter(self._sum_module()).call("ghost")

    def test_arity_checked(self):
        with pytest.raises(InterpreterError, match="arguments"):
            Interpreter(self._sum_module()).call("total", np.zeros(3))

    def test_if_branches(self):
        module, _ = build_module()
        fn = func.func(module, "clamp", [f64], [f64], ["x"])
        b = IRBuilder(fn.entry)
        zero = b.constant(0.0, f64)
        cond = arith.cmpf(b, "olt", fn.args[0], zero)
        branch = scf.if_op(b, cond, [f64])
        with b.at_end_of(branch.then_block):
            scf.yield_op(b, [zero])
        with b.at_end_of(branch.else_block):
            scf.yield_op(b, [fn.args[0]])
        func.ret(b, [branch.results[0]])
        interp = Interpreter(module)
        assert interp.call("clamp", -3.0) == 0.0
        assert interp.call("clamp", 4.0) == 4.0

    def test_math_ops_via_registry(self):
        module, _ = build_module()
        fn = func.func(module, "f", [f64], [f64], ["x"])
        b = IRBuilder(fn.entry)
        from repro.ir.dialects import math as math_dialect
        func.ret(b, [math_dialect.exp(b, fn.args[0])])
        value = Interpreter(module).call("f", 1.0)
        assert value == pytest.approx(np.e)


class TestDifferentialExecution:
    """The headline: interpreter == lowered kernels, per backend."""

    def _run_both(self, generated, n_cells=8, n_steps=5, dt=0.01,
                  optimize=False):
        lowered = KernelRunner(generated, optimize=optimize)
        state_fast = lowered.make_state(n_cells, perturbation=0.01)
        state_slow = lowered.make_state(n_cells, perturbation=0.01)
        luts = lowered.luts_for(dt)
        for _ in range(n_steps):
            lowered.compute_step(state_fast, dt)
            interpret_kernel(generated, state_slow, luts, dt)
        return state_fast, state_slow

    @pytest.mark.parametrize("backend", ["baseline", "vector", "gpu"])
    def test_interpreter_matches_lowering(self, gate_model, backend):
        if backend == "baseline":
            generated = generate_baseline(gate_model)
        elif backend == "vector":
            generated = generate_limpet_mlir(gate_model, 4)
        else:
            generated = generate_gpu(gate_model)
        fast, slow = self._run_both(generated)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)

    def test_interpreter_matches_on_registry_model(self, luo_rudy):
        generated = generate_limpet_mlir(luo_rudy, 8)
        fast, slow = self._run_both(generated, n_cells=8, n_steps=3)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)

    @pytest.mark.parametrize("width", [4, 8])
    @pytest.mark.parametrize("name", ["FitzHughNagumo", "LuoRudy91",
                                      "Courtemanche", "OHara",
                                      "TenTusscherPanfilov"])
    def test_optimized_vector_kernel_matches_bit_for_bit(self, name, width):
        """The tier contract is bitwise: the post-pipeline vector kernel
        and the interpreter agree to the last bit on registry models."""
        from repro.models import load_model
        fast, slow = self._run_both(
            generate_limpet_mlir(load_model(name), width), n_cells=width,
            n_steps=2, optimize=True)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)

    def test_interpreter_matches_optimized_ir(self, gate_model):
        """Passes must not change what the interpreter computes either."""
        from repro.ir.passes import default_pipeline
        generated = generate_limpet_mlir(gate_model, 4)
        raw_fast, raw_slow = self._run_both(generated)
        optimized = generate_limpet_mlir(gate_model, 4)
        default_pipeline(verify_each=False).run(optimized.module,
                                                fixed_point=True)
        opt_fast, opt_slow = self._run_both(optimized)
        assert compare_trajectories(raw_slow, opt_slow, rtol=0, atol=0)

    def test_interpreter_runs_foreign_models(self):
        from repro.models import load_model
        generated = generate_baseline(load_model("Campbell"))
        fast, slow = self._run_both(generated, n_cells=4, n_steps=4)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)
