"""The ``memref`` dialect: buffers for cell state, parameters and LUTs.

At runtime a memref is a NumPy array; ``memref.load`` and
``memref.store`` are the scalar accesses of the baseline backend and of
the scalar parameter reads.  The runtime allocates every buffer, so no
op allocates, copies or reinterprets one: the paper's view-and-cast of
the state buffer (Listing 3) is the vector accesses' index arithmetic
here (``repro.codegen.emitter._blocked``).
"""

from __future__ import annotations

from typing import Sequence

from ..core import IRError, OpInfo, Operation, Value, register_op
from ..builder import IRBuilder
from ..types import MemRefType


def _verify_load(op: Operation) -> None:
    if not op.operands or not isinstance(op.operands[0].type, MemRefType):
        raise IRError("memref.load: first operand must be a memref")
    mt = op.operands[0].type
    if len(op.operands) - 1 != mt.rank:
        raise IRError(f"memref.load: expected {mt.rank} indices, "
                      f"got {len(op.operands) - 1}")
    if str(op.result.type) != str(mt.element):
        raise IRError("memref.load: result type must match element type")


def _verify_store(op: Operation) -> None:
    if len(op.operands) < 2 or not isinstance(op.operands[1].type, MemRefType):
        raise IRError("memref.store: second operand must be a memref")
    mt = op.operands[1].type
    if len(op.operands) - 2 != mt.rank:
        raise IRError(f"memref.store: expected {mt.rank} indices")
    if str(op.operands[0].type) != str(mt.element):
        raise IRError("memref.store: value type must match element type")


register_op(OpInfo(name="memref.load", pure=True, verify=_verify_load))
register_op(OpInfo(name="memref.store", verify=_verify_store))


def load(b: IRBuilder, source: Value, indices: Sequence[Value]) -> Value:
    mt = source.type
    if not isinstance(mt, MemRefType):
        raise IRError(f"memref.load from non-memref {mt}")
    return b.create("memref.load", [source, *indices], [mt.element]).result


def store(b: IRBuilder, value: Value, dest: Value,
          indices: Sequence[Value]) -> Operation:
    return b.create("memref.store", [value, dest, *indices], [])
