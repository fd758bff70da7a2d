"""Core SSA infrastructure: values, operations, blocks, regions, modules.

This mirrors MLIR's object model at the granularity the paper needs:

* every :class:`Value` is defined exactly once (an op result or a block
  argument) and tracks its uses,
* an :class:`Operation` is a generic record of ``name``, operands,
  attributes, results and nested regions — dialect modules register the
  per-op semantics (traits, verifier, constant folder, Python evaluator)
  in the :class:`OpInfo` registry instead of subclassing,
* :class:`Block` / :class:`Region` / :class:`Module` provide the nesting
  structure that passes walk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .types import IRType


class IRError(Exception):
    """Raised on malformed IR (verification failures, bad construction)."""


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


class Value:
    """An SSA value: has a type, a single definition and a set of uses."""

    __slots__ = ("type", "uses", "name_hint")

    def __init__(self, ty: IRType, name_hint: Optional[str] = None):
        self.type = ty
        self.uses: List[Tuple["Operation", int]] = []
        self.name_hint = name_hint

    @property
    def owner(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def replace_all_uses_with(self, other: "Value") -> None:
        """Rewrite every use of ``self`` to use ``other`` instead."""
        if other is self:
            return
        for op, idx in list(self.uses):
            op.set_operand(idx, other)

    @property
    def num_uses(self) -> int:
        return len(self.uses)

    def __repr__(self) -> str:
        hint = self.name_hint or "?"
        return f"<Value %{hint}: {self.type}>"


class OpResult(Value):
    """A value produced by an operation."""

    __slots__ = ("op", "index")

    def __init__(self, op: "Operation", index: int, ty: IRType,
                 name_hint: Optional[str] = None):
        super().__init__(ty, name_hint)
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op


class BlockArgument(Value):
    """A value introduced as a block (or region entry) argument."""

    __slots__ = ("block", "index")

    def __init__(self, block: "Block", index: int, ty: IRType,
                 name_hint: Optional[str] = None):
        super().__init__(ty, name_hint)
        self.block = block
        self.index = index

    @property
    def owner(self) -> "Block":
        return self.block


# ---------------------------------------------------------------------------
# Op metadata registry
# ---------------------------------------------------------------------------


@dataclass
class OpInfo:
    """Static information about an op kind, registered by dialect modules.

    ``pure`` ops have no side effects and may be CSE'd, folded, hoisted
    and dead-code eliminated.  ``terminator`` ops must end their block.
    ``fold`` maps constant operand python values to constant results (or
    returns None when not foldable).  ``py_eval`` executes the op on
    concrete python/numpy operand values, used by the interpreter.

    An elementwise op's row also carries what every later stage needs
    of it (DESIGN.md §3.2): ``numpy`` and ``scalar`` are its source
    spellings over operand texts ``{0}``, ``{1}`` in the vector and the
    scalar engine (:mod:`repro.runtime.lowering`), ``cost`` its
    machine-model class — ``simple`` / ``div`` / ``exp`` / ``pow`` /
    ``int`` / ``none`` (:mod:`repro.machine.instrument`).  Ops with a
    bespoke lowering leave the spellings empty.
    """

    name: str
    pure: bool = False
    terminator: bool = False
    commutative: bool = False
    verify: Optional[Callable[["Operation"], None]] = None
    fold: Optional[Callable[["Operation", Sequence[Any]], Optional[Sequence[Any]]]] = None
    py_eval: Optional[Callable[..., Any]] = None
    numpy: str = ""
    scalar: str = ""
    cost: str = ""


_OP_REGISTRY: Dict[str, OpInfo] = {}


def register_op(info: OpInfo) -> OpInfo:
    """Register (or replace) the metadata for an op kind."""
    _OP_REGISTRY[info.name] = info
    return info


def op_info(name: str) -> Optional[OpInfo]:
    """Look up metadata for an op kind, or None for unregistered ops."""
    return _OP_REGISTRY.get(name)


def registered_ops() -> Dict[str, OpInfo]:
    """A copy of the op registry (for introspection and tests)."""
    return dict(_OP_REGISTRY)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

_op_counter = itertools.count()


class Operation:
    """A generic operation: the single concrete IR node class.

    Dialects construct Operations through builder helpers; semantics are
    resolved through the :class:`OpInfo` registry keyed by ``name``.
    """

    __slots__ = ("name", "operands", "attributes", "results", "regions",
                 "parent", "uid")

    def __init__(self, name: str, operands: Sequence[Value] = (),
                 result_types: Sequence[IRType] = (),
                 attributes: Optional[Dict[str, Any]] = None,
                 regions: Sequence["Region"] = (),
                 result_hints: Sequence[Optional[str]] = ()):
        self.name = name
        self.uid = next(_op_counter)
        self.operands: List[Value] = []
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.parent: Optional[Block] = None
        self.results: List[OpResult] = []
        hints = list(result_hints) + [None] * (len(result_types) - len(result_hints))
        for i, ty in enumerate(result_types):
            self.results.append(OpResult(self, i, ty, hints[i]))
        self.regions: List[Region] = []
        for region in regions:
            self.take_region(region)
        for operand in operands:
            self.append_operand(operand)

    # -- operand management -------------------------------------------------

    def append_operand(self, value: Value) -> None:
        if not isinstance(value, Value):
            raise IRError(f"{self.name}: operand must be a Value, got {value!r}")
        idx = len(self.operands)
        self.operands.append(value)
        value.uses.append((self, idx))

    def set_operand(self, index: int, value: Value) -> None:
        old = self.operands[index]
        try:
            old.uses.remove((self, index))
        except ValueError:
            pass
        self.operands[index] = value
        value.uses.append((self, index))

    def drop_all_operands(self) -> None:
        for idx, operand in enumerate(self.operands):
            try:
                operand.uses.remove((self, idx))
            except ValueError:
                pass
        self.operands.clear()

    # -- region management ---------------------------------------------------

    def take_region(self, region: "Region") -> None:
        region.parent = self
        self.regions.append(region)

    # -- structure -----------------------------------------------------------

    @property
    def result(self) -> OpResult:
        """The single result (raises if the op has 0 or >1 results)."""
        if len(self.results) != 1:
            raise IRError(f"{self.name} has {len(self.results)} results")
        return self.results[0]

    @property
    def info(self) -> Optional[OpInfo]:
        return op_info(self.name)

    @property
    def is_pure(self) -> bool:
        info = self.info
        return bool(info and info.pure)

    @property
    def is_terminator(self) -> bool:
        info = self.info
        return bool(info and info.terminator)

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    def erase(self) -> None:
        """Remove this op from its block; it must have no remaining uses."""
        for res in self.results:
            if res.uses:
                raise IRError(
                    f"cannot erase {self.name}: result still has "
                    f"{len(res.uses)} use(s)")
        self.drop_all_operands()
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    op.drop_all_operands()
        if self.parent is not None:
            self.parent.ops.remove(self)
            self.parent = None

    def move_before(self, other: "Operation") -> None:
        """Move this op immediately before ``other`` (possibly new block)."""
        if self.parent is not None:
            self.parent.ops.remove(self)
        block = other.parent
        if block is None:
            raise IRError("target op is not in a block")
        block.ops.insert(block.ops.index(other), self)
        self.parent = block

    def walk(self) -> Iterator["Operation"]:
        """Yield this op and all ops nested in its regions, pre-order."""
        yield self
        for region in self.regions:
            for block in region.blocks:
                for op in list(block.ops):
                    yield from op.walk()

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this op, remapping operands through ``value_map``."""
        value_map = value_map if value_map is not None else {}
        operands = [value_map.get(v, v) for v in self.operands]
        new_regions = []
        new = Operation(
            self.name, operands,
            [r.type for r in self.results],
            dict(self.attributes),
            result_hints=[r.name_hint for r in self.results])
        for old_res, new_res in zip(self.results, new.results):
            value_map[old_res] = new_res
        for region in self.regions:
            new.take_region(region.clone(value_map))
        return new

    def __repr__(self) -> str:
        return f"<Operation {self.name} #{self.uid}>"


# ---------------------------------------------------------------------------
# Blocks / regions / module
# ---------------------------------------------------------------------------


class Block:
    """A straight-line list of operations ending (usually) in a terminator."""

    __slots__ = ("args", "ops", "parent")

    def __init__(self, arg_types: Sequence[IRType] = (),
                 arg_hints: Sequence[Optional[str]] = ()):
        self.args: List[BlockArgument] = []
        hints = list(arg_hints) + [None] * (len(arg_types) - len(arg_hints))
        for i, ty in enumerate(arg_types):
            self.args.append(BlockArgument(self, i, ty, hints[i]))
        self.ops: List[Operation] = []
        self.parent: Optional[Region] = None

    def append(self, op: Operation) -> Operation:
        if op.parent is not None:
            raise IRError(f"{op.name} already belongs to a block")
        op.parent = self
        self.ops.append(op)
        return op

    def insert_before(self, anchor: Operation, op: Operation) -> Operation:
        if op.parent is not None:
            raise IRError(f"{op.name} already belongs to a block")
        op.parent = self
        self.ops.insert(self.ops.index(anchor), op)
        return op

    def add_argument(self, ty: IRType, hint: Optional[str] = None) -> BlockArgument:
        arg = BlockArgument(self, len(self.args), ty, hint)
        self.args.append(arg)
        return arg

    @property
    def terminator(self) -> Optional[Operation]:
        if self.ops and self.ops[-1].is_terminator:
            return self.ops[-1]
        return None

    def clone(self, value_map: Dict[Value, Value]) -> "Block":
        new = Block([a.type for a in self.args],
                    [a.name_hint for a in self.args])
        for old_arg, new_arg in zip(self.args, new.args):
            value_map[old_arg] = new_arg
        for op in self.ops:
            new.append(op.clone(value_map))
        return new

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __repr__(self) -> str:
        return f"<Block with {len(self.ops)} ops>"


class Region:
    """A list of blocks owned by an operation."""

    __slots__ = ("blocks", "parent")

    def __init__(self, blocks: Sequence[Block] = ()):
        self.blocks: List[Block] = []
        self.parent: Optional[Operation] = None
        for block in blocks:
            self.add_block(block)

    def add_block(self, block: Block) -> Block:
        block.parent = self
        self.blocks.append(block)
        return block

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise IRError("region has no blocks")
        return self.blocks[0]

    def clone(self, value_map: Dict[Value, Value]) -> "Region":
        new = Region()
        for block in self.blocks:
            new.add_block(block.clone(value_map))
        return new

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)


class Module:
    """Top-level container holding function definitions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.body = Region([Block()])
        self.attributes: Dict[str, Any] = {}

    @property
    def ops(self) -> List[Operation]:
        return self.body.entry.ops

    def append(self, op: Operation) -> Operation:
        return self.body.entry.append(op)

    def walk(self) -> Iterator[Operation]:
        for op in list(self.ops):
            yield from op.walk()

    def funcs(self) -> List[Operation]:
        return [op for op in self.ops if op.name == "func.func"]

    def lookup_func(self, symbol: str) -> Optional[Operation]:
        for op in self.funcs():
            if op.attributes.get("sym_name") == symbol:
                return op
        return None

    def __repr__(self) -> str:
        return f"<Module {self.name!r} with {len(self.ops)} top-level ops>"


def enclosing_op(value: Value) -> Optional[Operation]:
    """The operation whose region (transitively) defines ``value``."""
    owner = value.owner
    if isinstance(owner, Operation):
        return owner
    block = owner
    region = block.parent
    return region.parent if region is not None else None


def defining_block(value: Value) -> Optional[Block]:
    """The block in which ``value`` becomes available."""
    owner = value.owner
    if isinstance(owner, Operation):
        return owner.parent
    return owner


def is_defined_in(value: Value, op: Operation) -> bool:
    """True if ``value`` is defined inside any region of ``op``."""
    block = defining_block(value)
    while block is not None:
        region = block.parent
        if region is None:
            return False
        parent_op = region.parent
        if parent_op is op:
            return True
        if parent_op is None:
            return False
        block = parent_op.parent
    return False
