"""Schedule: what a lowered kernel does, decided once for every target.

One walk over a post-pipeline ``func.func`` records what its lowering
does, whatever a target spells (DESIGN.md §6.1, §6.2): the statements in
emission order, the names of values, block counts and hoisted block
views, the values fused into their one use, the addressing mode of each
vector access (:class:`Access`) and the live columns of each vector LUT
call.  A printer (``repro.runtime.lowering``) spells a schedule; this
module spells nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from ..ir.core import (Block, IRError, Operation, OpResult, Value,
                       is_defined_in)
from ..ir.types import VectorType

#: fused expressions deeper than this are materialized into a named
#: temporary so generated lines stay readable and CPython's parser
#: never sees pathologically nested expressions
MAX_FUSE_DEPTH = 40


class LoweringError(IRError):
    """Raised when an op has no lowering in the requested mode."""


# -- addressing modes (DESIGN.md §6.2) ---------------------------------------
# A vector memory access in the flattened cell loop touches, for block k
# and lane l, the address ``a*(lb + k*S) + sym + b + c*l``.  When the
# analysis proves that form the access is a strided slice of a
# ``(n_blocks, a*S)`` view of the memref; otherwise it builds the index
# array.

#: op -> position of its index operand
ACCESS_INDEX_OPERAND = {"vector.load": 1, "vector.store": 2,
                        "vector.gather": 1, "vector.scatter": 2}
#: ops the walk handles one by one; any other op is a pure expression
_WALKED = {"omp.parallel", "gpu.launch", "scf.for", "scf.if", "scf.yield",
           "omp.terminator", "arith.constant", "func.call", "func.return",
           "memref.load", "memref.store", "memref.cast", "memref.view",
           "memref.dim", *ACCESS_INDEX_OPERAND}
#: ops that compute nothing but addresses when every use is one
_ADDRESS_OPS = {"arith.addi", "arith.subi", "arith.muli",
                "arith.index_cast", "vector.broadcast", "vector.step"}


@dataclass(frozen=True)
class _Affine:
    """An index value as ``a*iv + sym + b + c*lane`` over one cell loop."""

    a: int = 0                     # coefficient of the induction variable
    b: int = 0                     # compile-time constant
    c: int = 0                     # coefficient of the lane id
    sym: Optional[Value] = None    # loop-invariant runtime scalar

    @property
    def invariant(self) -> bool:
        return self.a == 0 and self.c == 0

    @property
    def constant(self) -> bool:
        return self.invariant and self.sym is None


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
    def view_key(self) -> Tuple[int, int, int, int]:
        """Accesses with one key share one block view."""
        return (id(self.loop), id(self.mem), self.form.a, id(self.form.sym))


class _AffineAnalysis:
    """Derives :class:`_Affine` forms for index values of one cell loop."""

    def __init__(self, loop: Operation):
        self.loop = loop
        self.iv = loop.regions[0].entry.args[0]
        self.forms: Dict[int, Optional[_Affine]] = {}

    def form(self, value: Value) -> Optional[_Affine]:
        key = id(value)
        if key not in self.forms:
            self.forms[key] = self._derive(value)
        return self.forms[key]

    def _derive(self, value: Value) -> Optional[_Affine]:
        if value is self.iv:
            return _Affine(a=1)
        if not value.type.is_integer:
            return None
        unvaried = not is_defined_in(value, self.loop)
        if isinstance(value, OpResult):
            operands = [self.form(v) for v in value.op.operands]
            if all(f is not None for f in operands):
                form = self._combine(value.op, operands)
                if form is not None:
                    return form
                unvaried = unvaried or (
                    value.op.is_pure and bool(operands)
                    and all(f.invariant for f in operands))
        if unvaried and not isinstance(value.type, VectorType):
            return _Affine(sym=value)       # a runtime scalar symbol
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
                if y.sym is not None:
                    return None
                y = _Affine(-y.a, -y.b, -y.c)
            if x.sym is not None and y.sym is not None:
                return None
            return _Affine(x.a + y.a, x.b + y.b, x.c + y.c,
                           x.sym if x.sym is not None else y.sym)
        if name == "arith.muli":
            x, k = operands
            if not k.constant:
                x, k = k, x
            if not k.constant or x.sym is not None:
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
            loop = loop.parent.parent.parent        # the enclosing op
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
    #: ``op`` (``op`` itself, or a loop's or branch's header), ``value``
    #: (bind ``targets`` to ``value``), ``arange`` / ``blocks`` (a flat
    #: loop's block starts / count), ``view`` (of ``access``), ``else``,
    #: ``pass``
    kind: str = "op"
    compute: bool = True           # False: headers, constants, casts, return
    value: Optional[Value] = None
    access: Optional[Access] = None


class Schedule:
    """The plan of one function's lowering, built by one walk.

    With ``fuse`` (the default) the result of a pure op with one use is
    *pending* until that use consumes it: it is fused, spelled at the
    use.  Fused ops are side-effect free, so results stay bit-identical
    while hundreds of one-op statements collapse into a few.  Pending
    values are materialized before any region op, so fusion never moves
    work across control flow; constants are fused into every use.
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
        self._depth = 1
        self._counter = 0
        #: value id -> (expression depth, defining op), in def order
        self._pending: Dict[int, Tuple[int, Operation]] = {}
        self._flat_loops: List[Operation] = []
        entry = func_op.regions[0].entry
        self.args = [self._fresh(arg, sanitize(arg.name_hint))
                     for arg in entry.args]
        if mode == "vector":
            self._plan_addressing()
        for op in entry.ops:
            self._op(op)

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
        live = {id(a.form.sym) for a in self.access.values()
                if a.form is not None and a.form.sym is not None}
        # users come after definitions, so one reverse walk settles it
        for op in reversed(ops):
            if op.name in _ADDRESS_OPS and id(op.results[0]) not in live \
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
            if access.form.sym is not None:
                self._materialize(access.form.sym)
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
                    or is_defined_in(access.mem, loop) or (
                        access.form.sym is not None
                        and is_defined_in(access.form.sym, loop)):
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
        elif name in ("omp.parallel", "gpu.launch"):
            # worksharing is the supervised tier's job, and a grid-stride
            # loop at global_id=0 / grid_dim=1 visits every cell once
            self._flush()
            for inner in op.regions[0].entry.ops:
                if not inner.is_terminator:
                    self._op(inner)
        elif name in ("scf.for", "scf.if"):
            self._flush()
            (self._for if name == "scf.for" else self._if)(op)
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
        elif name in ("func.return", "memref.load", "memref.store",
                      "memref.cast", "memref.view", "memref.dim"):
            for value in op.operands:
                self._use(value)
            self._emit(op, *(self._fresh(r) for r in op.results),
                       compute=name in ("memref.load", "memref.store"))

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
        body = op.regions[0].entry
        iv = self._fresh(body.args[0], sanitize(body.args[0].name_hint))
        accs = []
        for arg, init in zip(body.args[1:], op.operands[3:]):
            accs.append(self._fresh(arg, sanitize(arg.name_hint)))
            self._emit(op, accs[-1], kind="value", value=init, compute=False)
        if op.attributes.get("cell_loop") and self.mode in ("vector", "simt"):
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

    def _if(self, op: Operation) -> None:
        if self.mode == "vector":
            raise LoweringError(
                "scf.if has no vector lowering; use arith.select "
                "(if-conversion happens in the frontend)")
        self._use(op.operands[0])
        targets = [self._fresh(r) for r in op.results]
        self._emit(op, *targets, compute=False)
        self._body(op.regions[0].entry, targets)
        if len(op.regions) > 1:
            self._emit(op, kind="else", compute=False)
            self._body(op.regions[1].entry, targets)

    def _body(self, block: Block, targets: List[str],
              nested: bool = True) -> None:
        """A region's ops, its ``scf.yield`` binding ``targets``; a
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
