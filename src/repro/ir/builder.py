"""Insertion-point based IR construction, mirroring mlir::OpBuilder."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from .core import Block, IRError, Module, Operation, Value
from .types import IRType


class IRBuilder:
    """Creates operations at a movable insertion point.

    The builder also interns ``arith.constant`` ops per block so repeated
    constants share a single SSA value, which keeps the generated IR
    close to what MLIR's folding would produce.
    """

    def __init__(self, block: Optional[Block] = None):
        self._block: Optional[Block] = block
        self._anchor: Optional[Operation] = None  # insert before this op
        self._constant_cache: Dict[int, Dict[Any, Value]] = {}

    # -- insertion point ------------------------------------------------------

    @property
    def block(self) -> Block:
        if self._block is None:
            raise IRError("builder has no insertion point")
        return self._block

    def set_insertion_point_to_end(self, block: Block) -> None:
        self._block = block
        self._anchor = None

    def set_insertion_point_before(self, op: Operation) -> None:
        if op.parent is None:
            raise IRError("anchor op is not in a block")
        self._block = op.parent
        self._anchor = op

    @contextmanager
    def at_end_of(self, block: Block) -> Iterator["IRBuilder"]:
        saved = (self._block, self._anchor)
        self.set_insertion_point_to_end(block)
        try:
            yield self
        finally:
            self._block, self._anchor = saved

    # -- op creation ----------------------------------------------------------

    def insert(self, op: Operation) -> Operation:
        if self._anchor is not None:
            self.block.insert_before(self._anchor, op)
        else:
            self.block.append(op)
        return op

    def create(self, name: str, operands: Sequence[Value] = (),
               result_types: Sequence[IRType] = (),
               attributes: Optional[Dict[str, Any]] = None,
               body: Optional[Block] = None,
               result_hints: Sequence[Optional[str]] = ()) -> Operation:
        op = Operation(name, operands, result_types, attributes, body,
                       result_hints)
        if self._anchor is not None or self._block is None:
            return self.insert(op)
        op.parent = self._block         # Block.append for a new op
        self._block.ops.append(op)
        return op

    def constant(self, value: Any, ty: IRType) -> Value:
        """Create (or reuse) an ``arith.constant`` in the current block."""
        cache = self._constant_cache.setdefault(id(self.block), {})
        key = (repr(value), ty)
        cached = cache.get(key)
        if cached is not None and self._value_visible(cached):
            return cached
        op = self.create("arith.constant", [], [ty], {"value": value})
        cache[key] = op.result
        return op.result

    def _value_visible(self, value: Value) -> bool:
        """A cached constant is reusable only if it still sits in our block."""
        owner = value.owner
        return isinstance(owner, Operation) and owner.parent is self._block


def build_module(name: str = "module") -> tuple[Module, IRBuilder]:
    """Convenience: a fresh module plus a builder at its body."""
    module = Module(name)
    builder = IRBuilder(module.body)
    return module, builder
