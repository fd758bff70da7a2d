"""Schedule: what a lowered kernel does, decided once for every target.

One walk over a post-pipeline ``func.func`` records what its lowering
does, whatever a target spells (DESIGN.md §6.1, §6.2): the statements in
emission order, the names of values, block counts and hoisted block
views, the values fused into their one use, the addressing mode of each
vector access (:class:`Access`), the live columns of each vector LUT
call and, in vector mode, the isomorphic statements that run as one
(:class:`Pack`).  A printer (``repro.runtime.lowering``) spells a
schedule; this module spells nothing.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..ir.core import (Block, IRError, Operation, OpResult, Value,
                       is_defined_in)

#: fused expressions deeper than this are materialized into a named
#: temporary so generated lines stay readable and CPython's parser
#: never sees pathologically nested expressions
MAX_FUSE_DEPTH = 40


class LoweringError(IRError):
    """Raised when an op has no lowering in the requested mode."""


# -- addressing modes (DESIGN.md §6.2) ---------------------------------------
# A vector memory access in the flattened cell loop touches, for block k
# and lane l, the address ``a*(lb + k*S) + b + c*l``.  When the
# analysis proves that form the access is a strided slice of a
# ``(n_blocks, a*S)`` view of the memref; otherwise it builds the index
# array.

#: op -> position of its index operand
ACCESS_INDEX_OPERAND = {"vector.load": 1, "vector.store": 2,
                        "vector.gather": 1, "vector.scatter": 2}
#: ops the walk handles one by one; any other op is a pure expression
_WALKED = {"omp.parallel", "scf.for", "scf.yield", "omp.terminator",
           "arith.constant", "func.call", "func.return", "memref.load",
           "memref.store", *ACCESS_INDEX_OPERAND}
#: ops that compute nothing but addresses when every use is one
_ADDRESS_OPS = {"arith.addi", "arith.subi", "arith.muli",
                "arith.index_cast", "vector.broadcast", "vector.step"}


@dataclass(frozen=True)
class _Affine:
    """An index value as ``a*iv + b + c*lane`` over one cell loop."""

    a: int = 0                     # coefficient of the induction variable
    b: int = 0                     # compile-time constant
    c: int = 0                     # coefficient of the lane id

    @property
    def constant(self) -> bool:
        return self.a == 0 and self.c == 0


@dataclass(frozen=True)
class Access:
    """The addressing mode of one vector memory access."""

    #: ``unit`` (lanes adjacent), ``strided`` (lanes a constant stride
    #: apart) or ``indexed`` (nothing proven: an index array)
    mode: str
    mem: Value
    loop: Operation
    #: the address including the lane term; ``None`` when indexed
    form: Optional[_Affine] = None
    #: the loop's constant step (cells per block)
    step: int = 0

    @cached_property
    def view_key(self) -> Tuple[int, int, int]:
        """Accesses with one key share one block view."""
        return (id(self.loop), id(self.mem), self.form.a)

    def slot(self, width: int) -> Optional[int]:
        """The state slot a sliced access of ``width`` lanes touches when
        its block row is a whole number of slots: ``width`` adjacent
        columns (unit) or one column in every ``form.c`` (strided);
        ``None`` otherwise."""
        form = self.form
        row = form.a * self.step
        if form.c == 1 and row % width == 0 and form.b % width == 0:
            return form.b // width
        if form.c > 1 and form.c * width == row and form.b < form.c:
            return form.b
        return None


class _AffineAnalysis:
    """Derives :class:`_Affine` forms for index values of one cell loop."""

    def __init__(self, loop: Operation):
        self.loop = loop
        self.iv = loop.body.args[0]
        self.forms: Dict[int, Optional[_Affine]] = {}

    def form(self, value: Value) -> Optional[_Affine]:
        key = id(value)
        if key not in self.forms:
            self.forms[key] = self._derive(value)
        return self.forms[key]

    def _derive(self, value: Value) -> Optional[_Affine]:
        if value is self.iv:
            return _Affine(a=1)
        if not value.type.is_integer or not isinstance(value, OpResult):
            return None
        operands = [self.form(v) for v in value.op.operands]
        if all(f is not None for f in operands):
            return self._combine(value.op, operands)
        return None

    @staticmethod
    def _combine(op: Operation,
                 operands: List[_Affine]) -> Optional[_Affine]:
        name = op.name
        if name == "arith.constant":
            value = op.attributes["value"]
            is_int = isinstance(value, int) and not isinstance(value, bool)
            return _Affine(b=value) if is_int else None
        if name == "vector.step":
            return _Affine(c=1)
        if name in ("vector.broadcast", "arith.index_cast"):
            return operands[0]
        if name in ("arith.addi", "arith.subi"):
            x, y = operands
            if name == "arith.subi":
                y = _Affine(-y.a, -y.b, -y.c)
            return _Affine(x.a + y.a, x.b + y.b, x.c + y.c)
        if name == "arith.muli":
            x, k = operands
            if not k.constant:
                x, k = k, x
            if not k.constant:
                return None
            return _Affine(x.a * k.b, x.b * k.b, x.c * k.b)
        return None

    def classify(self, op: Operation) -> Access:
        """The cheapest addressing mode ``op``'s index proves."""
        position = ACCESS_INDEX_OPERAND[op.name]
        indexed = Access("indexed", op.operands[position - 1], self.loop)
        index = op.operands[position:]      # a mask makes it longer
        step = self.form(self.loop.operands[2])
        form = self.form(index[0]) if len(index) == 1 else None
        if form is None or step is None or not step.constant:
            return indexed
        if op.name in ("vector.load", "vector.store"):
            form = replace(form, c=form.c + 1)     # the implicit lane id
            vec = op.results[0] if op.results else op.operands[0]
        else:
            vec = index[0]
        last_lane = form.b + form.c * (vec.type.width - 1)
        if form.a < 1 or form.c < 1 or form.b < 0 \
                or last_lane >= form.a * step.b:
            return indexed
        return replace(indexed, mode="unit" if form.c == 1 else "strided",
                       form=form, step=step.b)


def analyze_accesses(func_op: Operation,
                     ops: Optional[List[Operation]] = None
                     ) -> Dict[int, Access]:
    """``id(op)`` -> :class:`Access` for every vector memory access
    inside a cell loop of ``func_op`` (masked accesses are indexed);
    ``ops`` is ``func_op``'s walk when the caller has it."""
    accesses: Dict[int, Access] = {}
    analyses: Dict[int, _AffineAnalysis] = {}
    for op in func_op.walk() if ops is None else ops:
        loop = op if op.name in ACCESS_INDEX_OPERAND else func_op
        while loop is not func_op:
            loop = loop.parent.parent               # the enclosing op
            if loop.name == "scf.for" and loop.attributes.get("cell_loop"):
                if id(loop) not in analyses:
                    analyses[id(loop)] = _AffineAnalysis(loop)
                accesses[id(op)] = analyses[id(loop)].classify(op)
                break
    return accesses


def sanitize(name: Optional[str]) -> Optional[str]:
    """``name`` as an identifier: other characters become ``_``."""
    if name is None:
        return None
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


@dataclass(slots=True)
class Stmt:
    """One statement of a schedule."""

    depth: int                     # indent depth; a function body is 1
    #: the IR op it lowers or is attributed to (``None`` for ``pass``)
    op: Optional[Operation]
    targets: Tuple[str, ...] = ()  # the names it binds
    #: a vector access's addressing mode, a call's callee (``live/total
    #: callee`` for a LUT call); ``None`` otherwise
    detail: Optional[str] = None
    #: ``op`` (``op`` itself, or a loop's header), ``value`` (bind
    #: ``targets`` to ``value``), ``arange`` / ``blocks`` (a flat loop's
    #: block starts / count), ``view`` (of ``access``), ``pass``, ``pack``
    kind: str = "op"
    compute: bool = True           # False: headers, constants, return
    value: Optional[Value] = None
    access: Optional[Access] = None
    pack: Optional["Pack"] = None          # kind ``pack``: what it runs


# -- packing (DESIGN.md §6.1, "Packed statements") ---------------------------
# Independent statements of one straight-line stretch of the flattened
# cell loop that compute the same fused expression tree, differing only
# in their constants and in which operands they read, run as one
# statement over a (G, n_blocks, W) array whose lane k is member k.
# Loads and stores of a run of state slots of one hoisted view pack the
# same way: one transposed copy, one transposed store.

#: the dialects (op name prefixes) whose every op is elementwise over
#: arrays of any shape
_ELEMENTWISE = ("arith.", "math.")
#: what a packed load may not move past, and (with the loads) a store;
#: a call other than a LUT call is both
_WRITES = {"vector.store", "vector.scatter", "memref.store"}
_ACCESSES = _WRITES | {"vector.load", "vector.gather", "memref.load"}


def _op_key(op: Operation) -> Tuple[str, Optional[str]]:
    """What of an op its spelling depends on besides its operands."""
    return op.name, op.attributes.get("predicate")


def _elementwise(name: str) -> bool:
    """True for an op that computes each lane from the same lane of its
    operands (a constant is a leaf, not an op of a tree)."""
    return name.startswith(_ELEMENTWISE) and name != "arith.constant"


def _may_take(key: List, shape: List) -> bool:
    """Whether a tree of shape ``key`` may take ``shape`` on by going into
    named values: where the two first differ it has a named value and
    ``shape`` an op (a cheap test before a re-walk)."""
    first = next((i for i, (a, b) in enumerate(zip(key, shape)) if a != b),
                 None)
    return first is not None and key[first] == "name" \
        and isinstance(shape[first], tuple)


def _touches(op: Operation, effects: Set[str]) -> bool:
    """True if ``op`` is one of ``effects``; a LUT call only reads its
    table, any other call may touch anything."""
    if op.name == "func.call":
        return not op.attributes["callee"].startswith("LUT_interpRow")
    return op.name in effects


@dataclass(frozen=True, eq=False)
class Leaf:
    """How a pack reads one leaf of its members' expression tree."""

    #: ``shared`` (one operand for every lane), ``column`` (a constant
    #: per lane) or ``lanes`` (lanes ``start`` onwards of the earlier
    #: pack ``source``)
    kind: str
    values: Tuple[Value, ...]        # what lane k reads is values[k]
    source: Optional["Pack"] = None
    start: int = 0


@dataclass(eq=False)
class Pack:
    """G isomorphic statements run as one over a ``(G, n_blocks, W)``
    array: a load (a run of slots), an expression, or a store."""

    name: str
    members: List[Stmt]              # lane order: lane k is member k
    #: ``(id(user op), operand index)`` of each leaf of the first
    #: member's tree -> how every lane reads that leaf
    leaves: Dict[Tuple[int, int], Leaf]
    slot: int = 0                    # the first lane's state slot
    #: lane k's name; ``None`` where only other packs read it
    lanes: List[Optional[str]] = field(default_factory=list)


class Schedule:
    """The plan of one function's lowering, built by one walk.

    With ``fuse`` (the default) the result of a pure op with one use is
    *pending* until that use consumes it: it is fused, spelled at the
    use.  Fused ops are side-effect free, so results stay bit-identical
    while hundreds of one-op statements collapse into a few.  Pending
    values are materialized before any op with a body, so fusion never
    moves work across control flow; constants are fused into every use.
    A fused vector schedule then packs isomorphic statements
    (:class:`Pack`).
    """

    def __init__(self, func_op: Operation, mode: str, width: int,
                 fuse: bool = True):
        self.func_op = func_op
        self.mode = mode
        self.width = width
        self.fuse = fuse
        self.stmts: List[Stmt] = []
        #: id(value) -> name: arguments, statement targets, loop values
        self.names: Dict[int, str] = {}
        #: ids of values spelled where they are used
        self.fused: Set[int] = set()
        #: id(op) -> addressing mode of each vector memory access
        self.access: Dict[int, Access] = {}
        #: ids of ops whose results only ever feed a sliced address
        self.address_only: Set[int] = set()
        #: view key -> name of the hoisted block view
        self.views: Dict[Tuple[int, int, int, int], str] = {}
        #: id(cell loop) -> name of its block count
        self.block_counts: Dict[int, str] = {}
        #: id(vector LUT call) -> the result columns something reads
        self.columns: Dict[int, Tuple[int, ...]] = {}
        #: ids of broadcasts whose source holds one scalar per cell block
        self.per_block: Set[int] = set()
        #: True once a statement needs the lane ids
        self.uses_lanes = False
        #: the packs, in the order they run
        self.packs: List[Pack] = []
        self._depth = 1
        self._counter = 0
        #: value id -> (expression depth, defining op), in def order
        self._pending: Dict[int, Tuple[int, Operation]] = {}
        self._flat_loops: List[Operation] = []
        entry = func_op.body
        self.args = [self._fresh(arg, sanitize(arg.name_hint))
                     for arg in entry.args]
        if mode == "vector":
            self._plan_addressing()
        for op in entry.ops:
            self._op(op)
        if mode == "vector" and fuse:
            packer = _Packer(self)
            self.stmts = packer.run()
            self.packs = packer.packs

    # -- names and fusion ----------------------------------------------------

    def _fresh(self, value: Value, hint: Optional[str] = None) -> str:
        name = hint or f"v{self._counter}"
        self._counter += 1
        self.names[id(value)] = name
        return name

    def _emit(self, op: Optional[Operation], *targets: str,
              **fields) -> None:
        self.stmts.append(Stmt(self._depth, op, targets, **fields))

    def _use(self, value: Value) -> int:
        """One use of ``value``, fusing it when pending; returns the depth
        it adds to the user's expression (0 for a name)."""
        entry = self._pending.pop(id(value), None)
        if entry is not None:
            self.fused.add(id(value))
            return entry[0]
        if id(value) not in self.names and id(value) not in self.fused:
            raise LoweringError(
                f"lowering: value %{value.name_hint or '?'} used before "
                f"definition")
        return 0

    def _materialize(self, value: Value) -> None:
        """Give a pending ``value`` a statement of its own (its use
        mentions it more than once), or check that it has a name."""
        entry = self._pending.pop(id(value), None)
        if entry is None:
            self._use(value)
        else:
            self._emit(entry[1], self._fresh(value))

    def _flush(self) -> None:
        """Materialize every pending value, in definition order."""
        for _, op in self._pending.values():
            self._emit(op, self._fresh(op.results[0]))
        self._pending.clear()

    # -- addressing -----------------------------------------------------------

    def _plan_addressing(self) -> None:
        """Classify every vector access, then find the index arithmetic
        that only sliced accesses consume: it is never materialized."""
        ops = list(self.func_op.walk())
        self.access = analyze_accesses(self.func_op, ops)
        # users come after definitions, so one reverse walk settles it
        for op in reversed(ops):
            if op.name in _ADDRESS_OPS \
                    and self._feeds_only_slices(op.results[0]):
                self.address_only.add(id(op))

    def _feeds_only_slices(self, value: Value) -> bool:
        for user, position in value.uses:
            if id(user) in self.address_only:
                continue
            access = self.access.get(id(user))
            if access is None or access.form is None \
                    or position != ACCESS_INDEX_OPERAND[user.name]:
                return False        # a use that needs the value itself
        return True

    def _view_operands(self, access: Access) -> None:
        """Name what ``access``'s block view mentions, unless hoisted."""
        if access.view_key not in self.views:
            self._materialize(access.mem)

    def _hoist_views(self, loop: Operation) -> None:
        """Bind the loop's block count and, once per (memref, row shape)
        whose ingredients exist before the loop, the block view every
        sliced access of that memref shares."""
        sliced = [access for access in self.access.values()
                  if access.loop is loop and access.form is not None]
        if not sliced:
            return
        n_blocks = f"_nb{len(self.block_counts) or ''}"
        self.block_counts[id(loop)] = n_blocks
        self._emit(loop, n_blocks, kind="blocks")
        for access in sliced:
            if access.view_key in self.views \
                    or is_defined_in(access.mem, loop):
                continue
            self._view_operands(access)
            name = f"_{self.names[id(access.mem)]}_b{len(self.views)}"
            self.views[access.view_key] = name
            self._emit(loop, name, kind="view", access=access)

    # -- the walk -------------------------------------------------------------

    def _op(self, op: Operation) -> None:
        name = op.name
        if id(op) in self.address_only:
            return
        if name not in _WALKED:
            if op.results:
                self._pure(op)
            else:
                self._emit(op)
        elif name == "omp.parallel":
            # worksharing is the supervised tier's job
            self._flush()
            for inner in op.body.ops:
                if not inner.is_terminator:
                    self._op(inner)
        elif name == "scf.for":
            self._flush()
            self._for(op)
        elif name in ("scf.yield", "omp.terminator"):
            raise LoweringError(f"{name} outside its parent's lowering")
        elif name == "arith.constant":
            if self.fuse:
                self.fused.add(id(op.results[0]))
            else:
                self._emit(op, self._fresh(op.results[0]), compute=False)
        elif name in ACCESS_INDEX_OPERAND:
            self._access(op)
        elif name == "func.call":
            self._call(op)
        elif name in ("func.return", "memref.load", "memref.store"):
            for value in op.operands:
                self._use(value)
            self._emit(op, *(self._fresh(r) for r in op.results),
                       compute=name != "func.return")

    def _pure(self, op: Operation) -> None:
        name = op.name
        shift = 1
        if name == "vector.extract":
            self._materialize(op.operands[0])   # mentioned twice
        elif name == "vector.step":
            self.uses_lanes = True
        elif name == "vector.broadcast":
            src = op.operands[0]
            constant = isinstance(src, OpResult) \
                and src.op.name == "arith.constant"
            if not constant and any(is_defined_in(src, loop)
                                    for loop in self._flat_loops):
                self.per_block.add(id(op))
            elif self.fuse and id(src) in self.names:
                # a scalar the cell loop does not vary is its own
                # broadcast
                self.names[id(op.results[0])] = self.names[id(src)]
                return
            elif self.fuse and id(src) in self.fused:
                self.fused.add(id(op.results[0]))
                return
            else:
                shift = 0
        depth = 0
        for value in op.operands:
            depth = max(depth, self._use(value) + shift)
        result = op.results[0]
        if self.fuse and result.num_uses == 1 and depth <= MAX_FUSE_DEPTH:
            self._pending[id(result)] = (depth, op)
        else:
            self._emit(op, self._fresh(result))

    def _access(self, op: Operation) -> None:
        access = self.access.get(id(op))
        if access is not None and access.form is not None:
            self._view_operands(access)
            used = [] if op.results else op.operands[:1]   # the stored value
        else:
            self.uses_lanes |= op.name in ("vector.load", "vector.store")
            used = op.operands
        for value in used:
            self._use(value)
        self._emit(op, *(self._fresh(r) for r in op.results),
                   detail=access.mode if access else "indexed")

    def _call(self, op: Operation) -> None:
        callee = op.attributes["callee"]
        for value in op.operands:
            self._use(value)
        results, detail = list(op.results), callee
        if callee.startswith("LUT_interpRow"):
            if "_n_elements_vec" in callee:
                # a vector call returns only the columns something reads
                live = tuple(i for i, r in enumerate(results) if r.num_uses)
                self.columns[id(op)] = live
                results = [results[i] for i in live]
            detail = f"{len(results)}/{len(op.results)} {callee}"
        self._emit(op, *(self._fresh(r) for r in results), detail=detail)

    def _for(self, op: Operation) -> None:
        for value in op.operands:
            self._use(value)
        body = op.body
        iv = self._fresh(body.args[0], sanitize(body.args[0].name_hint))
        accs = []
        for arg, init in zip(body.args[1:], op.operands[3:]):
            accs.append(self._fresh(arg, sanitize(arg.name_hint)))
            self._emit(op, accs[-1], kind="value", value=init, compute=False)
        if op.attributes.get("cell_loop") and self.mode == "vector":
            if accs:
                raise LoweringError("vector cell loop cannot carry iter_args")
            # Flatten: all blocks execute at once; the induction variable
            # becomes the array of block start indices, built only when
            # something other than a sliced address reads it.
            self._flat_loops.append(op)
            if not self._feeds_only_slices(body.args[0]):
                self._emit(op, iv, kind="arange")
            self._hoist_views(op)
            self._body(body, accs, nested=False)
            return
        self._emit(op, iv, compute=False)
        self._body(body, accs)
        for result, acc in zip(op.results, accs):
            self.names[id(result)] = acc

    def _body(self, block: Block, targets: List[str],
              nested: bool = True) -> None:
        """A body's ops, its ``scf.yield`` binding ``targets``; a
        nested body that emits nothing gets a ``pass``."""
        self._depth += nested
        mark = len(self.stmts)
        for op in block.ops:
            if op.name != "scf.yield":
                self._op(op)
                continue
            for target, value in zip(targets, op.operands):
                # a fused yielded value is attributed to its definition
                entry = self._pending.get(id(value))
                self._use(value)
                self._emit(entry[1] if entry else op, target, kind="value",
                           value=value)
        if nested and len(self.stmts) == mark:
            self._emit(None, kind="pass", compute=False)
        self._depth -= nested


@dataclass(eq=False)
class _Member:
    """A statement that could be a lane of a pack: its tree's walk."""

    stmt: Stmt
    position: int
    slot: Optional[int] = None       # loads and stores
    #: the shape to take on by recomputing named values, if any
    shape: Optional[List] = None
    key: List = field(default_factory=list)     # the tree's shape
    #: the tree's leaves in walk order: (occurrence, value)
    leaves: List[Tuple[Tuple[int, int], Value]] = field(default_factory=list)
    #: per leaf, the named value it reads (aliases resolved), or None
    #: for a constant
    reads: List[Optional[Value]] = field(default_factory=list)
    #: per leaf, False when it lies in a recomputed definition (whose
    #: statement still reads it by name)
    own: List[bool] = field(default_factory=list)
    #: named values the walk went into (recomputed in-lane) where the
    #: statement itself reads them
    recomputed: List[Value] = field(default_factory=list)
    within: int = 0                  # recomputed definitions entered


class _Packer:
    """Finds the packs of a fused vector schedule and rewrites its
    statement list (DESIGN.md §6.1, "Packed statements")."""

    def __init__(self, schedule: Schedule):
        self.s = schedule
        self.names = schedule.names
        self.packs: List[Pack] = []
        #: id(value) -> position of the statement (or pack) defining it
        self.defined: Dict[int, int] = {}
        #: id(lane value) -> (its pack, lane index)
        self.lane_of: Dict[int, Tuple[Pack, int]] = {}
        #: id(value) -> by-name reads that packs replace (lane slices,
        #: in-lane recomputation)
        self.unnamed: Counter = Counter()
        #: position of each packed member -> its pack where the pack
        #: runs, ``None`` where the member is dropped
        self.placed: Dict[int, Optional[Pack]] = {}
        self.start = 0              # the stretch being packed

    def run(self) -> List[Stmt]:
        """Pack each straight-line stretch of top-level ``op`` statements
        and return the new statement list: a pack runs where its
        earliest member stood and its other members are dropped."""
        stmts = self.s.stmts
        for position, stmt in enumerate(stmts):
            if stmt.kind == "op":
                for result in stmt.op.results:
                    self.defined[id(result)] = position
        stretch: List = []
        for position, stmt in enumerate(stmts + [None]):
            if stmt is None or stmt.kind != "op" or stmt.depth != 1 \
                    or stmt.op.body is not None:
                self.start = position - len(stretch)
                self._stretch(stretch)
                stretch = []
            else:
                stretch.append(self._member(stmt, position) or position)
        if not self.packs:
            return stmts
        for pack in self.packs:
            pack.lanes = [
                m.targets[0] if m.op.results and self._reads(
                    m.op.results[0]) > self.unnamed[id(m.op.results[0])]
                else None for m in pack.members]
        packed = []
        for position, stmt in enumerate(stmts):
            pack = self.placed.get(position, stmt)
            if pack is stmt:
                packed.append(stmt)
            elif pack is not None:
                op = pack.members[0].op
                packed.append(Stmt(
                    stmt.depth, op, (pack.name,) if op.results else (),
                    detail=f"pack {len(pack.members)}", kind="pack",
                    pack=pack))
        return packed

    # -- members --------------------------------------------------------------

    def _member(self, stmt: Stmt, position: int,
                shape: Optional[List] = None) -> Optional[_Member]:
        """``stmt`` as a would-be lane, or ``None`` if it cannot be one
        (or, given a ``shape``, cannot take that shape on)."""
        op = stmt.op
        member = _Member(stmt, position, shape=shape)
        if op.name in ACCESS_INDEX_OPERAND:
            access = self.s.access.get(id(op))
            if access is None or access.form is None \
                    or access.view_key not in self.s.views:
                return None
            vec = op.results[0] if op.results else op.operands[0]
            member.slot = access.slot(vec.type.width)
            member.key += [_op_key(op), access.view_key]
            if member.slot is None or not (op.results or self._tree(
                    op.operands[0], op, 0, member)):
                return None
        elif not stmt.compute or len(op.results) != 1 \
                or not self._walk(op, member):
            return None
        return member if shape is None or member.key == shape else None

    def _tree(self, value: Value, user: Operation, index: int,
              member: _Member) -> bool:
        """Walk operand ``index`` of ``user`` as the printer spells it,
        adding its shape and its leaves (named values and constants) to
        ``member``; False if it is not elementwise.  Where the shape to
        take on has an op and the walk a named value this stretch
        computed, the walk goes on into its definition."""
        if id(value) in self.names:
            if member.shape is None or not self._goes_into(value, member):
                member.key.append("name")
                member.leaves.append(((id(user), index), value))
                member.reads.append(self._resolve(value))
                member.own.append(not member.within)
                return True
            if not member.within:
                member.recomputed.append(value)
            member.within += 1
            walked = self._walk(value.op, member)
            member.within -= 1
            return walked
        op = value.op
        if op.name == "arith.constant":
            constant = op.attributes["value"]
            varies = isinstance(constant, float) and math.isfinite(constant)
            member.key.append("float" if varies else repr(constant))
            member.leaves.append(((id(user), index), value))
            member.reads.append(None)
            member.own.append(not member.within)
            return True
        if op.name == "vector.broadcast" and id(op) not in self.s.per_block:
            return self._tree(op.operands[0], op, 0, member)
        return self._walk(op, member)

    def _walk(self, op: Operation, member: _Member) -> bool:
        """Walk an op of the tree and its operands (see :meth:`_tree`)."""
        member.key.append(_op_key(op))
        if not _elementwise(op.name):
            return False
        for i, operand in enumerate(op.operands):
            if not self._tree(operand, op, i, member):
                return False
        return True

    def _goes_into(self, value: Value, member: _Member) -> bool:
        """True where the shape ``member`` takes on has an op and its walk
        a named value it may recompute in-lane."""
        at = len(member.key)
        return at < len(member.shape) and member.shape[at] != "name" \
            and self._recomputable(value)

    def _recomputable(self, value: Value) -> bool:
        """True for the named result of an elementwise statement of the
        stretch being packed that is no lane: its operands' names hold
        the same values wherever in the stretch it is spelled."""
        return isinstance(value, OpResult) \
            and _elementwise(value.op.name) \
            and id(value) not in self.lane_of \
            and self.defined.get(id(value), -1) >= self.start

    def _resolve(self, value: Value) -> Value:
        """The value a named ``value`` aliases (a broadcast of a scalar
        the loop does not vary is that scalar)."""
        while isinstance(value, OpResult) \
                and value.op.name == "vector.broadcast" \
                and self.names.get(id(value.op.operands[0])) \
                == self.names[id(value)]:
            value = value.op.operands[0]
        return value

    def _reads(self, value: Value) -> int:
        """How many operands read ``value`` by its name (aliases too)."""
        name = self.names[id(value)]
        return sum(self._reads(user.results[0])
                   if user.name == "vector.broadcast"
                   and self.names.get(id(user.results[0])) == name else 1
                   for user, _ in value.uses)

    def _ready(self, member: _Member, position: int) -> bool:
        """True if every named leaf of ``member`` is defined before
        ``position`` (by a statement or a pack)."""
        return all(self.defined.get(id(value), -1) < position
                   for value in member.reads if value is not None)

    def _read(self, value: Optional[Value]) -> Tuple:
        """What a leaf reading ``value`` reads: ``("lane", pack, k)``,
        ``("name", value)`` or, for a constant, ``("constant",)``."""
        if value is None:
            return ("constant",)
        lane = self.lane_of.get(id(value))
        return ("lane", *lane) if lane else ("name", value)

    # -- packs ----------------------------------------------------------------

    def _stretch(self, stretch: List) -> None:
        """Form the packs of one stretch, earliest first member first.

        ``stretch`` holds a :class:`_Member` per would-be lane and the
        position of every other statement.  A pool is the members of
        one shape from the earliest one in no pool yet on, with those
        that take the shape on by recomputing named values in-lane: a
        load pool stops at a write, a store pool at any other memory
        access or a slot it already stores.  Members whose leaves are
        not all defined before the pool's first member are left out, so
        no statement moves past one it depends on."""
        shapes = Counter(tuple(item.key) for item in stretch
                         if isinstance(item, _Member))
        pooled: Set[int] = set()        # positions already in a pool
        packed: Set[int] = set()
        for first, head in enumerate(stretch):
            if not isinstance(head, _Member) or head.position in pooled \
                    or shapes[tuple(head.key)] < 2:
                continue
            op = head.stmt.op
            stores = op.name in ACCESS_INDEX_OPERAND and not op.results
            barrier = (_ACCESSES if stores else _WRITES) \
                if op.name in ACCESS_INDEX_OPERAND else set()
            pool, slots = [], set()
            for item in stretch[first:]:
                if isinstance(item, _Member):
                    same = item.key == head.key
                    if not same and len(item.key) < len(head.key) \
                            and _may_take(item.key, head.key):
                        item = self._member(item.stmt, item.position,
                                            head.key) or item
                    if item.key == head.key and item.position not in packed \
                            and item.slot not in slots:
                        if stores:
                            slots.add(item.slot)
                        if self._ready(item, head.position):
                            pool.append(item)
                            if same:
                                pooled.add(item.position)
                        continue
                    item = item.position
                if barrier and _touches(self.s.stmts[item].op, barrier):
                    break
            for run in self._runs(pool) if len(pool) > 1 else ():
                self._make(run)
                packed.update(m.position for m, _ in run)

    def _runs(self, pool: List[_Member]
              ) -> Iterator[List[Tuple[_Member, List[Tuple]]]]:
        """Split ``pool`` into packs-to-be, each member with what its
        leaves read (:meth:`_read`): members reading the same operands
        wherever they do not read lanes of one earlier pack, ordered so
        that every operand that varies is consecutive lanes (and a
        load's or store's slots consecutive slots)."""
        parts: Dict[Tuple, List[Tuple[_Member, List[Tuple]]]] = \
            defaultdict(list)
        for member in pool:
            reads = [self._read(value) for value in member.reads]
            parts[tuple(r[:2] for r in reads)].append((member, reads))
        for part in parts.values():
            varying = [j for j in range(len(part[0][1]))
                       if part[0][1][j][0] == "lane"
                       and len({reads[j][2] for _, reads in part}) > 1]
            if part[0][0].slot is None and not varying:
                continue        # a pack's lanes must be arrays of cells

            def order(entry: Tuple[_Member, List[Tuple]]) -> Tuple[int, ...]:
                member, reads = entry
                slot = () if member.slot is None else (member.slot,)
                return slot + tuple(reads[j][2] for j in varying)
            run: List[Tuple[_Member, List[Tuple]]] = []
            for entry in sorted(part, key=order):
                if run and any(b != a + 1 for a, b in zip(order(run[-1]),
                                                           order(entry))):
                    if len(run) > 1:
                        yield run
                    run = []
                run.append(entry)
            if len(run) > 1:
                yield run

    def _make(self, entries: List[Tuple[_Member, List[Tuple]]]) -> None:
        """Record a run (its members and what they read) as a pack
        placed at its earliest member."""
        run = [member for member, _ in entries]
        leaves: Dict[Tuple[int, int], Leaf] = {}
        pack = Pack(f"_pk{len(self.packs)}", [m.stmt for m in run], leaves,
                    run[0].slot or 0)
        for j, (occurrence, _) in enumerate(run[0].leaves):
            reads = [member_reads[j] for _, member_reads in entries]
            values = tuple(m.leaves[j][1] for m in run)
            if reads[0][0] == "constant":
                constants = {repr(v.op.attributes["value"]) for v in values}
                leaves[occurrence] = Leaf(
                    "shared" if len(constants) == 1 else "column", values)
            elif len({r[1:] for r in reads}) == 1:
                leaves[occurrence] = Leaf("shared", values)
            else:
                leaves[occurrence] = Leaf("lanes", values, reads[0][1],
                                          reads[0][2])
                for member, read in zip(run, reads):
                    if member.own[j]:
                        self.unnamed[id(
                            read[1].members[read[2]].op.results[0])] += 1
        for member in run:
            self.unnamed.update(id(v) for v in member.recomputed)
        position = min(m.position for m in run)
        self.placed.update((m.position, None) for m in run)
        self.placed[position] = pack
        for k, member in enumerate(run):
            for result in member.stmt.op.results:
                self.lane_of[id(result)] = (pack, k)
                self.defined[id(result)] = position
        self.packs.append(pack)
