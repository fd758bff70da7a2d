"""Core SSA infrastructure: values, operations, blocks, modules.

This mirrors MLIR's object model at the granularity the paper needs:

* every :class:`Value` is defined exactly once (an op result or a block
  argument) and tracks its uses,
* an :class:`Operation` is a generic record of ``name``, operands,
  attributes, results and at most one body :class:`Block` — dialect
  modules register the per-op semantics (traits, verifier, constant
  folder, Python evaluator) in the :class:`OpInfo` registry instead of
  subclassing,
* :class:`Block` / :class:`Module` provide the nesting structure that
  passes walk.

An op owns at most one block, where MLIR's ops own a list of regions of
blocks: the IR is structured (``func``, ``scf.for``, ``omp.parallel``)
and has no ``cf`` branch, so nothing can reach a second block, and no
registered op has a second body.
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
        uses, self.uses = self.uses, []
        for op, idx in uses:
            op.operands[idx] = other
        other.uses.extend(uses)

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
        # Value.__init__ spelled out: every op built pays for this
        self.type = ty
        self.uses = []
        self.name_hint = name_hint
        self.op = op
        self.index = index

    @property
    def owner(self) -> "Operation":
        return self.op


class BlockArgument(Value):
    """A value introduced as a block argument."""

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
    resolved through the :class:`OpInfo` registry keyed by ``name``, once:
    ``info`` is looked up when the op is built (None when unregistered),
    so an op's name is fixed for its lifetime, as in MLIR.
    """

    __slots__ = ("name", "operands", "attributes", "results", "body",
                 "parent", "uid", "info")

    def __init__(self, name: str, operands: Sequence[Value] = (),
                 result_types: Sequence[IRType] = (),
                 attributes: Optional[Dict[str, Any]] = None,
                 body: Optional["Block"] = None,
                 result_hints: Sequence[Optional[str]] = ()):
        # every emitted op is built here: no call that is not needed
        self.name = name
        self.info: Optional[OpInfo] = _OP_REGISTRY.get(name)
        self.uid = next(_op_counter)
        self.attributes: Dict[str, Any] = (dict(attributes) if attributes
                                           else {})
        self.parent: Optional[Block] = None
        results: List[OpResult] = []
        hints = iter(result_hints)
        for i, ty in enumerate(result_types):
            results.append(OpResult(self, i, ty, next(hints, None)))
        self.results = results
        self.body = body
        if body is not None:
            body.parent = self
        self.operands: List[Value] = list(operands)
        for idx, operand in enumerate(self.operands):
            if not isinstance(operand, Value):
                raise IRError(f"{name}: operand must be a Value, "
                              f"got {operand!r}")
            operand.uses.append((self, idx))

    # -- operand management -------------------------------------------------

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

    # -- structure -----------------------------------------------------------

    @property
    def result(self) -> OpResult:
        """The single result (raises if the op has 0 or >1 results)."""
        if len(self.results) != 1:
            raise IRError(f"{self.name} has {len(self.results)} results")
        return self.results[0]

    @property
    def is_pure(self) -> bool:
        return self.info is not None and self.info.pure

    @property
    def is_terminator(self) -> bool:
        return self.info is not None and self.info.terminator

    @property
    def dialect(self) -> str:
        return self.name.split(".", 1)[0]

    def erase(self) -> None:
        """Remove this op from its block; it must have no remaining uses."""
        block = self.parent
        self.detach()
        if block is not None:
            block.ops.remove(self)

    def detach(self) -> None:
        """Erase this op except from its block's op list, which still
        holds it (with ``parent`` None) until the owner of that list
        rebuilds it.  A pass that erases many ops of one block detaches
        each and rebuilds the list once, where :meth:`erase` scans the
        block per op.  It must have no remaining uses."""
        for res in self.results:
            if res.uses:
                raise IRError(
                    f"cannot erase {self.name}: result still has "
                    f"{len(res.uses)} use(s)")
        if self.body is None:
            self.drop_all_operands()
        else:
            for op in self.walk():
                op.drop_all_operands()
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
        """Yield this op and all ops nested in its body, pre-order."""
        yield self
        if self.body is not None:
            for op in list(self.body.ops):
                yield from op.walk()

    def clone(self, value_map: Optional[Dict[Value, Value]] = None) -> "Operation":
        """Deep-copy this op, remapping operands through ``value_map``."""
        value_map = value_map if value_map is not None else {}
        operands = [value_map.get(v, v) for v in self.operands]
        new = Operation(
            self.name, operands,
            [r.type for r in self.results],
            dict(self.attributes),
            result_hints=[r.name_hint for r in self.results])
        for old_res, new_res in zip(self.results, new.results):
            value_map[old_res] = new_res
        if self.body is not None:
            new.body = self.body.clone(value_map)
            new.body.parent = new
        return new

    def __repr__(self) -> str:
        return f"<Operation {self.name} #{self.uid}>"


# ---------------------------------------------------------------------------
# Blocks / module
# ---------------------------------------------------------------------------


class Block:
    """A straight-line list of operations ending (usually) in a terminator.

    ``parent`` is the op whose body it is (None for a module's body).
    """

    __slots__ = ("args", "ops", "parent")

    def __init__(self, arg_types: Sequence[IRType] = (),
                 arg_hints: Sequence[Optional[str]] = ()):
        self.args: List[BlockArgument] = []
        hints = list(arg_hints) + [None] * (len(arg_types) - len(arg_hints))
        for i, ty in enumerate(arg_types):
            self.args.append(BlockArgument(self, i, ty, hints[i]))
        self.ops: List[Operation] = []
        self.parent: Optional[Operation] = None

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


class Module:
    """Top-level container holding function definitions."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.body = Block()
        self.attributes: Dict[str, Any] = {}

    @property
    def ops(self) -> List[Operation]:
        return self.body.ops

    def append(self, op: Operation) -> Operation:
        return self.body.append(op)

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
    """The operation that defines ``value``: its result's op, or the op
    whose body takes it as an argument."""
    owner = value.owner
    if isinstance(owner, Operation):
        return owner
    return owner.parent


def defining_block(value: Value) -> Optional[Block]:
    """The block in which ``value`` becomes available."""
    owner = value.owner
    if isinstance(owner, Operation):
        return owner.parent
    return owner


def is_defined_in(value: Value, op: Operation) -> bool:
    """True if ``value`` is defined inside the body of ``op``."""
    block = defining_block(value)
    while block is not None:
        parent_op = block.parent
        if parent_op is op:
            return True
        if parent_op is None:
            return False
        block = parent_op.parent
    return False
