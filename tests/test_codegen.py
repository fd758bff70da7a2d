"""Code generation tests: kernel structure of all three backends."""

import pytest

from repro.codegen import (BackendMode, generate_baseline, generate_icc_simd,
                           generate_limpet_mlir)
from repro.codegen.common import ExprEmitter, KernelSpec
from repro.easyml import parse_model
from repro.frontend import load_model
from repro.ir import IRBuilder, print_module, verify_module
from repro.ir.core import Block
from repro.ir.dialects import func
from repro.ir.types import f64, vector_of


def ops_of(kernel):
    fn = kernel.module.lookup_func(kernel.spec.function_name)
    return [op.name for op in fn.walk()]


def find_cell_loop(kernel):
    fn = kernel.module.lookup_func(kernel.spec.function_name)
    for op in fn.walk():
        if op.name == "scf.for" and op.attributes.get("cell_loop"):
            return op
    raise AssertionError("no cell loop")


class TestBaselineStructure:
    def test_verifies(self, gate_model):
        kernel = generate_baseline(gate_model)
        verify_module(kernel.module)

    def test_scalar_loop_step_one(self, gate_model):
        loop = find_cell_loop(generate_baseline(gate_model))
        assert loop.attributes["vector_width"] == 1
        step = loop.operands[2].owner
        assert step.attributes["value"] == 1

    def test_aos_layout(self, gate_model):
        kernel = generate_baseline(gate_model)
        assert str(kernel.layout) == "aos"

    def test_uses_scalar_memory_ops(self, gate_model):
        names = ops_of(generate_baseline(gate_model))
        assert "memref.load" in names and "memref.store" in names
        assert "vector.load" not in names

    def test_scalar_lut_call(self, gate_model):
        kernel = generate_baseline(gate_model)
        calls = [op for op in kernel.module.walk()
                 if op.name == "func.call"]
        assert calls and all(
            op.attributes["callee"].startswith("LUT_interpRow_Vm")
            for op in calls)

    def test_no_lut_mode_computes_inline(self, gate_model):
        kernel = generate_baseline(gate_model, use_lut=False)
        names = ops_of(kernel)
        assert "func.call" not in names
        assert "math.exp" in names

    def test_marked_parallel(self, gate_model):
        loop = find_cell_loop(generate_baseline(gate_model))
        assert loop.attributes["parallel"]


class TestLimpetMLIRStructure:
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_verifies_at_all_widths(self, gate_model, width):
        kernel = generate_limpet_mlir(gate_model, width)
        verify_module(kernel.module)
        assert find_cell_loop(kernel).attributes["vector_width"] == width

    def test_wrapped_in_omp_parallel(self, gate_model):
        names = ops_of(generate_limpet_mlir(gate_model, 8))
        assert "omp.parallel" in names

    def test_loop_steps_by_width(self, gate_model):
        loop = find_cell_loop(generate_limpet_mlir(gate_model, 8))
        assert loop.operands[2].owner.attributes["value"] == 8

    def test_aosoa_uses_contiguous_vector_ops(self, gate_model):
        names = ops_of(generate_limpet_mlir(gate_model, 8))
        assert "vector.load" in names and "vector.store" in names
        assert "vector.gather" not in names

    def test_aos_mode_uses_gather_scatter(self, gate_model):
        kernel = generate_limpet_mlir(gate_model, 8, layout="aos")
        names = ops_of(kernel)
        assert "vector.gather" in names and "vector.scatter" in names
        assert str(kernel.layout) == "aos"

    def test_vector_lut_call(self, gate_model):
        kernel = generate_limpet_mlir(gate_model, 8)
        calls = [op for op in kernel.module.walk()
                 if op.name == "func.call"]
        assert all(op.attributes["callee"].startswith(
            "LUT_interpRow_n_elements_vec_8xf64") for op in calls)

    def test_all_value_types_are_width_consistent(self, gate_model):
        loop = find_cell_loop(generate_limpet_mlir(gate_model, 4))
        for op in loop.body.ops:
            for result in op.results:
                if result.type.is_vector:
                    assert result.type.width == 4

    def test_function_signature_arg_names(self, gate_model):
        kernel = generate_limpet_mlir(gate_model, 8)
        expected = ["start", "end", "dt", "t", "sv", "Vm_ext", "Iion_ext",
                    "lut_Vm"]
        assert kernel.spec.argument_names() == expected

    def test_matches_paper_listing3_shape(self, listing1_model, gate_model):
        """The printed IR must show the paper's key constructs."""
        kernel = generate_limpet_mlir(listing1_model, 8)
        from repro.ir.passes import default_pipeline
        default_pipeline(verify_each=False).run(kernel.module,
                                                fixed_point=True)
        text = print_module(kernel.module, pretty=True)
        assert "vector<8xf64>" in text
        assert "omp.parallel" in text
        assert "scf.for" in text
        # the gate model's Vm kinetics are tabulated: the vectorized
        # interp call of Listing 3 appears there
        lut_kernel = generate_limpet_mlir(gate_model, 8)
        lut_text = print_module(lut_kernel.module, pretty=True)
        assert "LUT_interpRow_n_elements_vec" in lut_text


class TestICCSimdStructure:
    def test_verifies(self, gate_model):
        verify_module(generate_icc_simd(gate_model, 8).module)

    def test_keeps_aos_layout(self, gate_model):
        assert str(generate_icc_simd(gate_model, 8).layout) == "aos"

    def test_serialized_lut_per_lane(self, gate_model):
        kernel = generate_icc_simd(gate_model, 4)
        calls = [op for op in kernel.module.walk()
                 if op.name == "func.call"]
        # one scalar call per lane
        assert len(calls) == 4
        names = ops_of(kernel)
        assert "vector.extract" in names and "vector.insert" in names

    def test_vector_math_retained(self, gate_model):
        names = ops_of(generate_icc_simd(gate_model, 8, use_lut=False))
        assert "math.exp" in names


class TestExprEmitter:
    def _emitter(self, width=1, env=None):
        from repro.ir.core import Module
        module = Module()
        fn = func.func(module, "f", [f64, f64], [], ["x", "y"])
        b = IRBuilder(fn.entry)
        base_env = {"x": fn.args[0], "y": fn.args[1]}
        if width > 1:
            from repro.ir.dialects import vector as v
            base_env = {k: v.broadcast(b, val, width)
                        for k, val in base_env.items()}
        base_env.update(env or {})
        return ExprEmitter(b, base_env, width), b

    def _expr(self, text):
        return parse_model(f"r = {text};").statements[0].expr

    def test_square_expands_to_mul(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("square(x)"))
        assert [op.name for op in b.block.ops] == ["arith.mulf"]

    def test_cube_expands_to_muls(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("cube(x)"))
        assert [op.name for op in b.block.ops] == ["arith.mulf"] * 2

    def test_pow_small_int_expands(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("pow(x, 4)"))
        names = [op.name for op in b.block.ops]
        assert "math.powf" not in names
        assert names.count("arith.mulf") == 2  # square-and-multiply

    def test_pow_negative_int_expands_with_reciprocal(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("pow(x, -2)"))
        names = [op.name for op in b.block.ops]
        assert "arith.divf" in names and "math.powf" not in names

    def test_pow_non_integer_stays_call(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("pow(x, 1.5)"))
        assert any(op.name == "math.powf" for op in b.block.ops)

    def test_pow_large_exponent_stays_call(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("pow(x, 9)"))
        assert any(op.name == "math.powf" for op in b.block.ops)

    def test_ternary_becomes_select(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("x > y ? x : y"))
        names = [op.name for op in b.block.ops]
        assert "arith.cmpf" in names and "arith.select" in names

    def test_comparison_as_number(self):
        emitter, b = self._emitter()
        value = emitter.emit(self._expr("(x < y) * 2"))
        assert value.type is f64

    def test_logical_ops_on_conditions(self):
        emitter, b = self._emitter()
        emitter.emit_bool(self._expr("x < y && x > 0 || !(y == 0)"))
        names = [op.name for op in b.block.ops]
        assert "arith.andi" in names and "arith.ori" in names
        assert "arith.xori" in names

    def test_vector_width_constants_broadcast(self):
        emitter, b = self._emitter(width=8)
        value = emitter.emit(self._expr("x + 2"))
        assert value.type == vector_of(8)

    def test_unbound_name_raises(self):
        emitter, _ = self._emitter()
        from repro.easyml.errors import SemanticError
        with pytest.raises(SemanticError, match="no value bound"):
            emitter.emit(self._expr("ghost"))

    def test_min_max(self):
        emitter, b = self._emitter()
        emitter.emit(self._expr("min(x, y) + max(x, y)"))
        names = [op.name for op in b.block.ops]
        assert "arith.minimumf" in names and "arith.maximumf" in names
