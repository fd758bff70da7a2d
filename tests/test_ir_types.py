"""Unit tests for the IR type system."""

import copy
import dataclasses
import pickle

import pytest

from repro.ir import build_module, parse_module, print_module
from repro.ir.dialects import func
from repro.ir.types import (_SCALARS, FloatType, FunctionType, IndexType,
                            IntegerType, IRType, MemRefType, VectorType,
                            broadcast_type, element_type, f64, i1, index,
                            memref_of, parse_type, vector_of, vector_width)

#: one builder per type kind, with the text it prints as
KINDS = {
    "f64": lambda: FloatType(64),
    "i32": lambda: IntegerType(32),
    "index": lambda: IndexType(),
    "vector<8xf64>": lambda: vector_of(8),
    "vector<4xi1>": lambda: broadcast_type(i1, 4),
    "memref<?xf64>": lambda: memref_of(f64),
    "memref<4x?xi32>": lambda: MemRefType((4, None), IntegerType(32)),
    "(f64, index) -> f64": lambda: FunctionType((f64, index), (f64,)),
    "() -> (f64, f64)": lambda: FunctionType((), (f64, f64)),
}


class TestUniquing:
    def test_vector_of_is_one_instance(self):
        assert vector_of(8) is vector_of(8)

    @pytest.mark.parametrize("text", sorted(KINDS))
    def test_every_way_of_making_a_type_gives_one_object(self, text):
        ty = KINDS[text]()
        assert KINDS[text]() is ty
        assert pickle.loads(pickle.dumps(ty)) is ty
        assert copy.copy(ty) is ty
        assert copy.deepcopy(ty) is ty
        values = {f.name: getattr(ty, f.name)
                  for f in dataclasses.fields(ty)}
        assert type(ty)(**values) is ty
        assert dataclasses.replace(ty) is ty
        if isinstance(ty, FunctionType):
            module, _ = build_module()
            func.func(module, "f", ty.inputs, ty.results, declaration=True)
            reparsed = parse_module(print_module(module))
            assert reparsed.ops[0].attributes["function_type"] is ty
        elif str(element_type(ty)) in _SCALARS:
            assert parse_type(str(ty)) is ty
        else:   # the parser knows only the scalars the generators emit
            with pytest.raises(ValueError):
                parse_type(str(ty))

    @pytest.mark.parametrize("text", sorted(KINDS))
    def test_str_hash_and_eq_are_the_dataclass_values(self, text):
        ty = KINDS[text]()
        assert str(ty) == text and f"{ty}" == text
        # a frozen dataclass hashes the tuple of its fields
        assert hash(ty) == hash(tuple(getattr(ty, f.name)
                                      for f in dataclasses.fields(ty)))
        others = [KINDS[t]() for t in KINDS if t != text]
        assert ty == KINDS[text]() and not ty != KINDS[text]()
        assert all(ty != other for other in others)

    def test_kinds_with_equal_hashes_stay_unequal(self):
        @dataclasses.dataclass(frozen=True, eq=False)
        class UnitType(IRType):
            """A second field-less kind: it hashes as ``index`` does."""

            def _format(self) -> str:
                return "unit"

        unit = UnitType()
        assert hash(index) == hash(unit)
        assert index != unit and len({index, unit}) == 2

    def test_keyword_construction_is_the_positional_instance(self):
        assert VectorType(width=8, element=f64) is vector_of(8)
        assert FloatType(width=64) is f64

    def test_invalid_types_are_not_interned(self):
        with pytest.raises(ValueError):
            VectorType(0, f64)
        with pytest.raises(ValueError):
            VectorType(0, f64)


class TestScalarTypes:
    def test_float_str(self):
        assert str(f64) == "f64"
        assert str(FloatType(32)) == "f32"

    def test_integer_str(self):
        assert str(i1) == "i1"
        assert str(IntegerType(32)) == "i32"
        assert str(IntegerType(64)) == "i64"

    def test_index_str(self):
        assert str(index) == "index"

    def test_float_predicates(self):
        assert f64.is_float
        assert not f64.is_integer
        assert not f64.is_vector

    def test_integer_predicates(self):
        assert i1.is_integer
        assert not i1.is_float

    def test_index_is_integer_like(self):
        assert index.is_integer

    def test_bad_float_width_rejected(self):
        with pytest.raises(ValueError):
            FloatType(17)

    def test_bad_integer_width_rejected(self):
        with pytest.raises(ValueError):
            IntegerType(3)

    def test_equality_by_value(self):
        assert FloatType(64) == f64
        assert IntegerType(1) == i1
        assert FloatType(32) != f64


class TestVectorTypes:
    def test_str(self):
        assert str(vector_of(8)) == "vector<8xf64>"
        assert str(vector_of(4, i1)) == "vector<4xi1>"

    def test_predicates(self):
        vec = vector_of(8)
        assert vec.is_vector
        assert vec.is_float

    def test_integer_vector(self):
        vec = vector_of(4, index)
        assert vec.is_integer

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            VectorType(0, f64)

    def test_nested_vector_rejected(self):
        with pytest.raises(ValueError):
            VectorType(4, vector_of(2))

    def test_vector_of_memref_rejected(self):
        with pytest.raises(ValueError):
            VectorType(4, memref_of(f64))


class TestMemRefTypes:
    def test_dynamic_dim_str(self):
        assert str(memref_of(f64)) == "memref<?xf64>"

    def test_static_shape_str(self):
        assert str(memref_of(f64, 4, 8)) == "memref<4x8xf64>"

    def test_mixed_shape_str(self):
        assert str(memref_of(f64, None, 3)) == "memref<?x3xf64>"

    def test_rank(self):
        assert memref_of(f64).rank == 1
        assert memref_of(f64, None, None).rank == 2


class TestFunctionType:
    def test_single_result_str(self):
        ft = FunctionType((f64, f64), (f64,))
        assert str(ft) == "(f64, f64) -> f64"

    def test_multi_result_str(self):
        ft = FunctionType((f64,), (f64, f64))
        assert str(ft) == "(f64) -> (f64, f64)"

    def test_no_result_str(self):
        ft = FunctionType((index,), ())
        assert str(ft) == "(index) -> ()"


class TestHelpers:
    def test_element_type_scalar_identity(self):
        assert element_type(f64) is f64

    def test_element_type_vector(self):
        assert element_type(vector_of(8)) == f64

    def test_element_type_memref(self):
        assert element_type(memref_of(i1)) == i1

    def test_vector_width(self):
        assert vector_width(f64) == 1
        assert vector_width(vector_of(8)) == 8

    def test_broadcast_type_width_one_is_identity(self):
        assert broadcast_type(f64, 1) is f64

    def test_broadcast_type_widens(self):
        assert broadcast_type(f64, 4) == vector_of(4)

    def test_broadcast_type_of_vector_rebroadcasts_element(self):
        assert broadcast_type(vector_of(2), 4) == vector_of(4)


class TestParseType:
    @pytest.mark.parametrize("ty", [f64, vector_of(4), i1, memref_of(i1),
                                    vector_of(8, index), index,
                                    vector_of(8), vector_of(2, i1),
                                    memref_of(f64), memref_of(f64, None,
                                                              None),
                                    memref_of(i1, 16),
                                    memref_of(index),
                                    memref_of(vector_of(8))])
    def test_round_trip(self, ty):
        assert parse_type(str(ty)) == ty

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_type("f65")

    @pytest.mark.parametrize("text", ["f32", "i8", "i32", "i64", "none"])
    def test_scalars_no_generator_emits_do_not_parse(self, text):
        with pytest.raises(ValueError):
            parse_type(text)

    def test_whitespace_tolerated(self):
        assert parse_type("  f64 ") is f64
