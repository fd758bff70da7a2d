"""Unit tests for the SSA core: values, ops, blocks, modules."""

import pytest

from repro.ir import dialects  # noqa: F401 - registers ops
from repro.ir.core import (Block, IRError, Module, Operation, defining_block,
                           enclosing_op, is_defined_in, op_info,
                           registered_ops)
from repro.ir.types import f64, index


def make_add(lhs, rhs):
    return Operation("arith.addf", [lhs, rhs], [f64])


@pytest.fixture
def block_with_args():
    return Block([f64, f64], ["a", "b"])


class TestUseDefChains:
    def test_operand_registers_use(self, block_with_args):
        a, b = block_with_args.args
        op = make_add(a, b)
        assert (op, 0) in a.uses
        assert (op, 1) in b.uses

    def test_replace_all_uses(self, block_with_args):
        a, b = block_with_args.args
        op1 = make_add(a, b)
        op2 = make_add(op1.result, b)
        op1.result.replace_all_uses_with(a)
        assert op2.operands[0] is a
        assert op1.result.num_uses == 0

    def test_replace_with_self_is_noop(self, block_with_args):
        a, b = block_with_args.args
        op = make_add(a, b)
        a.replace_all_uses_with(a)
        assert op.operands[0] is a

    def test_set_operand_moves_use(self, block_with_args):
        a, b = block_with_args.args
        op = make_add(a, a)
        op.set_operand(1, b)
        assert op.operands == [a, b]
        assert (op, 1) in b.uses
        assert (op, 1) not in a.uses

    def test_drop_all_operands(self, block_with_args):
        a, b = block_with_args.args
        op = make_add(a, b)
        op.drop_all_operands()
        assert a.num_uses == 0 and b.num_uses == 0

    def test_non_value_operand_rejected(self):
        with pytest.raises(IRError):
            Operation("arith.addf", [42], [f64])


class TestOperation:
    def test_single_result_accessor(self, block_with_args):
        a, b = block_with_args.args
        assert make_add(a, b).result.type is f64

    def test_result_accessor_rejects_zero_results(self):
        op = Operation("func.return", [], [])
        with pytest.raises(IRError):
            _ = op.result

    def test_dialect_name(self, block_with_args):
        a, b = block_with_args.args
        assert make_add(a, b).dialect == "arith"

    def test_purity_from_registry(self, block_with_args):
        a, b = block_with_args.args
        assert make_add(a, b).is_pure
        assert not Operation("memref.store", [a, _memref()], []).is_pure

    def test_terminator_trait(self):
        assert Operation("func.return", [], []).is_terminator

    def test_unregistered_op_has_no_info(self):
        assert Operation("bogus.op", [], []).info is None

    def test_uids_are_unique(self, block_with_args):
        a, b = block_with_args.args
        assert make_add(a, b).uid != make_add(a, b).uid


def _memref():
    from repro.ir.types import memref_of
    block = Block([memref_of(f64)])
    return block.args[0]


class TestBlockStructure:
    def test_append_sets_parent(self, block_with_args):
        a, b = block_with_args.args
        op = block_with_args.append(make_add(a, b))
        assert op.parent is block_with_args

    def test_double_append_rejected(self, block_with_args):
        a, b = block_with_args.args
        op = block_with_args.append(make_add(a, b))
        with pytest.raises(IRError):
            Block().append(op)

    def test_insert_before(self, block_with_args):
        a, b = block_with_args.args
        op1 = block_with_args.append(make_add(a, b))
        op2 = make_add(a, b)
        block_with_args.insert_before(op1, op2)
        assert block_with_args.ops == [op2, op1]

    def test_terminator_property(self, block_with_args):
        a, b = block_with_args.args
        block_with_args.append(make_add(a, b))
        assert block_with_args.terminator is None
        block_with_args.append(Operation("func.return", [], []))
        assert block_with_args.terminator is not None

    def test_add_argument(self):
        block = Block()
        arg = block.add_argument(f64, "x")
        assert arg.type is f64 and arg.index == 0
        assert block.args == [arg]


class TestEraseAndMove:
    def test_erase_removes_from_block(self, block_with_args):
        a, b = block_with_args.args
        op = block_with_args.append(make_add(a, b))
        op.erase()
        assert block_with_args.ops == []
        assert a.num_uses == 0

    def test_erase_with_live_uses_rejected(self, block_with_args):
        a, b = block_with_args.args
        op1 = block_with_args.append(make_add(a, b))
        block_with_args.append(make_add(op1.result, b))
        with pytest.raises(IRError):
            op1.erase()

    def test_erase_drops_uses_of_ops_nested_two_bodies_deep(
            self, block_with_args):
        x, _ = block_with_args.args
        inner_body = Block([index])
        inner_body.append(make_add(x, x))
        outer_body = Block([index])
        outer_body.append(Operation("scf.for", [], [], body=inner_body))
        loop = block_with_args.append(
            Operation("scf.for", [], [], body=outer_body))
        assert x.num_uses == 2
        loop.erase()
        assert x.num_uses == 0

    def test_move_before(self, block_with_args):
        a, b = block_with_args.args
        op1 = block_with_args.append(make_add(a, b))
        op2 = block_with_args.append(make_add(a, b))
        op2.move_before(op1)
        assert block_with_args.ops == [op2, op1]


class TestCloneAndWalk:
    def test_clone_remaps_operands(self, block_with_args):
        a, b = block_with_args.args
        op = make_add(a, b)
        other = Block([f64, f64]).args
        clone = op.clone({a: other[0], b: other[1]})
        assert clone.operands == list(other)
        assert clone.results[0] is not op.results[0]

    def test_clone_with_region(self):
        inner = Block([index])
        outer = Operation("scf.for", [], [], body=inner)
        value_map = {}
        clone = outer.clone(value_map)
        assert clone.body is not inner and clone.body.parent is clone
        assert inner.args[0] in value_map

    def test_walk_visits_nested(self):
        inner_block = Block()
        inner_block.append(Operation("omp.terminator", [], []))
        op = Operation("omp.parallel", [], [], body=inner_block)
        names = [o.name for o in op.walk()]
        assert names == ["omp.parallel", "omp.terminator"]


class TestModule:
    def test_append_and_funcs(self):
        module = Module("m")
        fn = Operation("func.func", [], [], {"sym_name": "f"})
        module.append(fn)
        assert module.funcs() == [fn]
        assert module.lookup_func("f") is fn
        assert module.lookup_func("missing") is None

    def test_walk(self):
        module = Module("m")
        module.append(Operation("func.func", [], [], {"sym_name": "f"}))
        assert [o.name for o in module.walk()] == ["func.func"]


class TestScoping:
    def test_defining_block(self, block_with_args):
        a, _ = block_with_args.args
        assert defining_block(a) is block_with_args
        op = block_with_args.append(make_add(a, a))
        assert defining_block(op.result) is block_with_args

    def test_is_defined_in(self):
        body = Block([index])
        loop = Operation("scf.for", [], [], body=body)
        iv = body.args[0]
        assert is_defined_in(iv, loop)
        outer = Block([f64])
        assert not is_defined_in(outer.args[0], loop)

    def test_enclosing_op_of_block_arg(self):
        body = Block([index])
        loop = Operation("scf.for", [], [], body=body)
        assert enclosing_op(body.args[0]) is loop


class TestRegistry:
    def test_known_ops_registered(self):
        names = registered_ops()
        for name in ("arith.addf", "math.exp", "scf.for", "vector.gather",
                     "memref.load", "func.call", "omp.parallel"):
            assert name in names

    def test_op_info_traits(self):
        assert op_info("arith.addf").pure
        assert op_info("arith.addf").commutative
        assert not op_info("arith.subf").commutative
        assert op_info("scf.yield").terminator
