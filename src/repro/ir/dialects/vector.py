"""The ``vector`` dialect: SIMD lanes, one cell per lane.

This is the centrepiece of limpetMLIR's code generation: contiguous
block loads/stores for AoSoA state, gather/scatter for strided AoS
state and parent-model indirection, and broadcasts for shared
parameters.
"""

from __future__ import annotations

from typing import Sequence

from ..core import IRError, OpInfo, Operation, Value, register_op
from ..builder import IRBuilder
from ..types import (MemRefType, VectorType, element_type, index,
                     vector_of)


def _verify_broadcast(op: Operation) -> None:
    if not isinstance(op.result.type, VectorType):
        raise IRError("vector.broadcast: result must be a vector")
    if op.operands[0].type is not op.result.type.element:
        raise IRError("vector.broadcast: operand must match element type")


def _verify_vload(op: Operation) -> None:
    if not isinstance(op.operands[0].type, MemRefType):
        raise IRError("vector.load: first operand must be a memref")
    if not isinstance(op.result.type, VectorType):
        raise IRError("vector.load: result must be a vector")


def _verify_vstore(op: Operation) -> None:
    if not isinstance(op.operands[0].type, VectorType):
        raise IRError("vector.store: first operand must be a vector")
    if not isinstance(op.operands[1].type, MemRefType):
        raise IRError("vector.store: second operand must be a memref")


def _verify_gather(op: Operation) -> None:
    base, idx_vec = op.operands[0], op.operands[1]
    if not isinstance(base.type, MemRefType):
        raise IRError("vector.gather: base must be a memref")
    if not isinstance(idx_vec.type, VectorType) or not idx_vec.type.is_integer:
        raise IRError("vector.gather: indices must be an integer vector")
    if not isinstance(op.result.type, VectorType):
        raise IRError("vector.gather: result must be a vector")
    if idx_vec.type.width != op.result.type.width:
        raise IRError("vector.gather: index/result width mismatch")


def _verify_scatter(op: Operation) -> None:
    value, base, idx_vec = op.operands[0], op.operands[1], op.operands[2]
    if not isinstance(value.type, VectorType):
        raise IRError("vector.scatter: value must be a vector")
    if not isinstance(base.type, MemRefType):
        raise IRError("vector.scatter: base must be a memref")
    if not isinstance(idx_vec.type, VectorType):
        raise IRError("vector.scatter: indices must be a vector")
    if idx_vec.type.width != value.type.width:
        raise IRError("vector.scatter: index/value width mismatch")


def _verify_extract(op: Operation) -> None:
    if not isinstance(op.operands[0].type, VectorType):
        raise IRError("vector.extract: operand must be a vector")
    pos = op.attributes.get("position")
    if not isinstance(pos, int) or not 0 <= pos < op.operands[0].type.width:
        raise IRError(f"vector.extract: bad position {pos}")


register_op(OpInfo(name="vector.broadcast", pure=True,
                   verify=_verify_broadcast))
register_op(OpInfo(name="vector.load", pure=True, verify=_verify_vload))
register_op(OpInfo(name="vector.store", verify=_verify_vstore))
register_op(OpInfo(name="vector.gather", pure=True, verify=_verify_gather))
register_op(OpInfo(name="vector.scatter", verify=_verify_scatter))
register_op(OpInfo(name="vector.extract", pure=True, verify=_verify_extract))
register_op(OpInfo(name="vector.insert", pure=True))
register_op(OpInfo(name="vector.step", pure=True))


def broadcast(b: IRBuilder, scalar: Value, width: int) -> Value:
    """Splat a scalar across ``width`` lanes."""
    return b.create("vector.broadcast", [scalar],
                    [vector_of(width, scalar.type)]).result


def load(b: IRBuilder, base: Value, indices: Sequence[Value],
         width: int) -> Value:
    """Contiguous vector load of ``width`` elements starting at ``indices``."""
    elem = element_type(base.type)
    return b.create("vector.load", [base, *indices],
                    [vector_of(width, elem)]).result


def store(b: IRBuilder, value: Value, base: Value,
          indices: Sequence[Value]) -> Operation:
    return b.create("vector.store", [value, base, *indices], [])


def gather(b: IRBuilder, base: Value, index_vec: Value,
           mask: Value = None, pass_thru: Value = None) -> Value:
    """Strided/indirect load: ``result[l] = base[index_vec[l]]``.

    A mask (i1 vector) plus pass-through vector implements the paper's
    conditional parent-model access: masked-off lanes keep pass_thru.
    """
    width = index_vec.type.width
    elem = element_type(base.type)
    operands = [base, index_vec]
    if mask is not None:
        if pass_thru is None:
            raise IRError("vector.gather: mask requires pass_thru")
        operands += [mask, pass_thru]
    return b.create("vector.gather", operands,
                    [vector_of(width, elem)]).result


def scatter(b: IRBuilder, value: Value, base: Value, index_vec: Value,
            mask: Value = None) -> Operation:
    operands = [value, base, index_vec]
    if mask is not None:
        operands.append(mask)
    return b.create("vector.scatter", operands, [])


def extract(b: IRBuilder, vec: Value, position: int) -> Value:
    return b.create("vector.extract", [vec], [vec.type.element],
                    {"position": position}).result


def insert(b: IRBuilder, scalar: Value, vec: Value, position: int) -> Value:
    return b.create("vector.insert", [scalar, vec], [vec.type],
                    {"position": position}).result


def step(b: IRBuilder, width: int) -> Value:
    """The constant vector ``[0, 1, ..., width-1]`` (lane ids)."""
    return b.create("vector.step", [], [vector_of(width, index)]).result
