"""Builder, printer and parser tests (round-trip included)."""

import pytest

from repro.ir import (IRBuilder, build_module, parse_module, print_module,
                      print_op, verify_module)
from repro.ir.core import Block, IRError, Operation
from repro.ir.dialects import arith, func, math, memref, omp, scf, vector
from repro.ir.parser import ParseError
from repro.ir.passes import default_pipeline
from repro.ir.types import f64, i1, index, memref_of, vector_of
from repro.models import load_model

from .pins import TIER1_MODELS


class TestBuilder:
    def test_requires_insertion_point(self):
        builder = IRBuilder()
        with pytest.raises(IRError):
            builder.create("arith.constant", [], [f64], {"value": 1.0})

    def test_constant_interning_per_block(self):
        block = Block()
        builder = IRBuilder(block)
        c1 = builder.constant(2.0, f64)
        c2 = builder.constant(2.0, f64)
        assert c1 is c2
        assert len(block.ops) == 1

    def test_distinct_constants_not_merged(self):
        builder = IRBuilder(Block())
        assert builder.constant(2.0, f64) is not builder.constant(3.0, f64)

    def test_same_value_different_type_not_merged(self):
        builder = IRBuilder(Block())
        assert builder.constant(2, index) is not builder.constant(2.0, f64)

    def test_insert_before_anchor(self):
        block = Block()
        builder = IRBuilder(block)
        ret = builder.create("func.return", [], [])
        builder.set_insertion_point_before(ret)
        const = builder.create("arith.constant", [], [f64], {"value": 1.0})
        assert block.ops == [const, ret]

    def test_at_end_of_restores_position(self):
        block_a, block_b = Block(), Block()
        builder = IRBuilder(block_a)
        with builder.at_end_of(block_b):
            builder.create("arith.constant", [], [f64], {"value": 1.0})
        builder.create("arith.constant", [], [f64], {"value": 2.0})
        assert len(block_a.ops) == 1 and len(block_b.ops) == 1


def build_sample_module():
    """A module touching most syntax: func, loop, select, call, memrefs."""
    module, _ = build_module("sample")
    mem_ty = memref_of(f64)
    func.func(module, "helper", [f64], [f64], declaration=True)
    fn = func.func(module, "main", [mem_ty, index], [f64], ["buf", "n"])
    b = IRBuilder(fn.entry)
    buf, n = fn.args
    zero = b.constant(0, index)
    one = b.constant(1, index)
    init = b.constant(0.0, f64)
    loop = scf.for_op(b, zero, n, one, [init], iv_hint="i")
    with b.at_end_of(loop.body):
        value = memref.load(b, buf, [loop.induction_var])
        cond = arith.cmpf(b, "olt", value, b.constant(0.0, f64))
        call = func.call(b, "helper", [value], [f64])
        picked = arith.select(b, cond, arith.negf(b, value), call.results[0])
        total = arith.addf(b, loop.iter_args[0], picked)
        scf.yield_op(b, [total])
    func.ret(b, [loop.results[0]])
    return module


class TestPrinter:
    def test_generic_form_mentions_ops(self):
        text = print_module(build_sample_module())
        for fragment in ("module @sample", "func.func @main",
                         "func.func private @helper", "scf.for(",
                         "arith.select(", "memref.load(", "func.return("):
            assert fragment in text, fragment

    def test_pretty_form_sugar(self):
        text = print_module(build_sample_module(), pretty=True)
        assert "scf.for %i = " in text
        assert "iter_args(" in text
        assert " = memref.load %buf[%i] : memref<?xf64>" in text

    def test_pretty_constant_vector(self):
        module, b = build_module()
        fn = func.func(module, "f", [], [])
        fb = IRBuilder(fn.entry)
        c = fb.constant(2.0, f64)
        vector.broadcast(fb, c, 8)
        func.ret(fb)
        text = print_module(module, pretty=True)
        assert "vector.broadcast" in text

    def test_print_single_op(self):
        block = Block([f64, f64], ["a", "b"])
        op = Operation("arith.addf", list(block.args), [f64])
        assert "arith.addf(%a, %b)" in print_op(op)

    def test_name_hints_deduplicated(self):
        block = Block([f64, f64], ["x", "x"])
        op = Operation("arith.addf", list(block.args), [f64])
        text = print_op(op)
        assert "%x" in text and "%x_1" in text


class TestParserRoundTrip:
    def test_sample_module_round_trips(self):
        module = build_sample_module()
        text = print_module(module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text

    def test_kernel_module_round_trips(self, luo_rudy):
        from repro.codegen import generate_limpet_mlir
        kernel = generate_limpet_mlir(luo_rudy, width=4)
        text = print_module(kernel.module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text

    def test_attributes_round_trip(self):
        module, _ = build_module("attrs")
        fn = func.func(module, "f", [f64], [])
        b = IRBuilder(fn.entry)
        b.create("arith.cmpf", [fn.args[0], fn.args[0]], [i1],
                 {"predicate": "olt"})
        func.ret(b)
        reparsed = parse_module(print_module(module))
        op = reparsed.lookup_func("f").body.ops[0]
        assert op.attributes["predicate"] == "olt"

    @pytest.mark.parametrize("model", TIER1_MODELS)
    def test_pipelined_kernels_round_trip(self, model):
        """print -> parse -> verify -> print is byte-equal for each
        backend's kernel after the default pipeline (a model a vector
        backend refuses is checked on the others)."""
        from repro.codegen import (UnsupportedModelError, generate_baseline,
                                   generate_icc_simd, generate_limpet_mlir)
        ionic = load_model(model)
        for build in (generate_baseline,
                      lambda m: generate_limpet_mlir(m, width=8),
                      lambda m: generate_icc_simd(m, 8)):
            try:
                module = build(ionic).module
            except UnsupportedModelError:
                continue
            default_pipeline().run(module)
            text = print_module(module)
            reparsed = parse_module(text)
            verify_module(reparsed)
            assert print_module(reparsed) == text


class TestParserErrors:
    def test_missing_module_header(self):
        with pytest.raises(ParseError):
            parse_module("func.func @f() -> () {\n}\n")

    def test_undefined_value_use(self):
        text = ("module @m {\n"
                "  func.func @f() -> () {\n"
                "    %0 = arith.negf(%ghost) : (f64) -> (f64)\n"
                "    func.return() : () -> ()\n"
                "  }\n"
                "}\n")
        with pytest.raises(ParseError):
            parse_module(text)

    def test_malformed_op_line(self):
        text = ("module @m {\n"
                "  func.func @f() -> () {\n"
                "    this is not an op\n"
                "  }\n"
                "}\n")
        with pytest.raises(ParseError):
            parse_module(text)

    def test_second_block_in_a_body_rejected(self):
        # an op owns at most one block: a label inside a body has no
        # block to start
        text = ("module @m {\n"
                "  func.func @f() -> () {\n"
                "    func.return() : () -> ()\n"
                "  ^bb1():\n"
                "    func.return() : () -> ()\n"
                "  }\n"
                "}\n")
        with pytest.raises(ParseError, match="line 4: .*one body block"):
            parse_module(text)

    def test_second_body_of_an_op_rejected(self):
        text = ("module @m {\n"
                "  func.func @f() -> () {\n"
                "    omp.parallel() {schedule = \"static\"} : () -> () {\n"
                "    ^bb0():\n"
                "      omp.terminator() : () -> ()\n"
                "    } {\n"
                "    ^bb1():\n"
                "      omp.terminator() : () -> ()\n"
                "    }\n"
                "    func.return() : () -> ()\n"
                "  }\n"
                "}\n")
        with pytest.raises(ParseError, match="line 6: .*one body block"):
            parse_module(text)

    def test_op_body_needs_its_label(self):
        text = ("module @m {\n"
                "  func.func @f() -> () {\n"
                "    omp.parallel() {schedule = \"static\"} : () -> () {\n"
                "      omp.terminator() : () -> ()\n"
                "    }\n"
                "    func.return() : () -> ()\n"
                "  }\n"
                "}\n")
        with pytest.raises(ParseError, match="line 4: .*label"):
            parse_module(text)

    def test_comments_and_blank_lines_skipped(self):
        text = ("module @m {\n\n"
                "  // a comment\n"
                "  func.func @f() -> () {\n"
                "    func.return() : () -> ()\n"
                "  }\n"
                "}\n")
        module = parse_module(text)
        assert module.lookup_func("f") is not None


class TestDialectBuilders:
    def test_vector_ops_types(self):
        module, _ = build_module()
        fn = func.func(module, "f", [memref_of(f64), index], [])
        b = IRBuilder(fn.entry)
        buf, i = fn.args
        vec = vector.load(b, buf, [i], 8)
        assert vec.type == vector_of(8)
        scalar = vector.extract(b, vec, 3)
        assert scalar.type is f64
        back = vector.insert(b, scalar, vec, 0)
        assert back.type == vector_of(8)
        lanes = vector.step(b, 8)
        assert lanes.type == vector_of(8, index)
        func.ret(b)
        verify_module(module)

    def test_gather_requires_passthru_with_mask(self):
        module, _ = build_module()
        fn = func.func(module, "f", [memref_of(f64)], [])
        b = IRBuilder(fn.entry)
        lanes = vector.step(b, 4)
        mask = vector.broadcast(b, b.constant(True, i1), 4)
        with pytest.raises(IRError):
            vector.gather(b, fn.args[0], lanes, mask=mask)

    def test_mismatched_binary_types_rejected(self):
        module, _ = build_module()
        fn = func.func(module, "f", [f64, index], [])
        b = IRBuilder(fn.entry)
        with pytest.raises(IRError):
            arith.addf(b, fn.args[0], fn.args[1])

    def test_omp_parallel_structure(self):
        module, _ = build_module()
        fn = func.func(module, "f", [], [])
        b = IRBuilder(fn.entry)
        par = omp.parallel(b)
        assert par.body.terminator.name == "omp.terminator"
        assert par.schedule == "static"
        func.ret(b)
        verify_module(module)

    def test_math_builders_preserve_type(self):
        module, _ = build_module()
        fn = func.func(module, "f", [f64], [])
        b = IRBuilder(fn.entry)
        vec = vector.broadcast(b, fn.args[0], 4)
        assert math.exp(b, vec).type == vector_of(4)
        assert math.powf(b, vec, vec).type == vector_of(4)
        func.ret(b)
