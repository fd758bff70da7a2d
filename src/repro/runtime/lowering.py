"""Lowering: IR modules -> executable Python kernels.

This plays the role of MLIR's lowering to LLVM and JIT execution:

* **scalar mode** (baseline kernels, width 1) — the cell loop becomes a
  per-cell Python loop over ``math`` scalar operations: the unvectorized
  engine, our stand-in for the clang-compiled scalar binary.
* **vector mode** (limpetMLIR/icc kernels, width W) — vector values
  become NumPy arrays and the cell loop is *flattened*: all blocks
  execute in one NumPy pass.  Lane semantics are preserved exactly
  (every op is elementwise; gathers/scatters/LUT interp are
  shape-polymorphic), while the per-ISA width W is charged by the
  machine model.  NumPy's C kernels stand in for the SIMD units, so the
  measured scalar-vs-vector gap mirrors the paper's scalar-vs-SIMD gap
  (DESIGN.md §2).  Memory accesses whose address is affine in the loop
  induction variable and the lane id lower to strided slices of a
  per-memref block view (*unit* / *strided* addressing); only the rest
  build an index array (*indexed* addressing) — DESIGN.md §6.2.

A kernel is lowered in two steps: :mod:`repro.runtime.schedule` decides
statements, names, fusion and addressing, and :class:`_NumPyPrinter`
spells them; profile mode prints the same schedule clock-bracketed.
The generated source is kept on the :class:`CompiledKernel`.
"""

from __future__ import annotations

import base64
import marshal
import math
import time as _time
from dataclasses import dataclass
from importlib.util import MAGIC_NUMBER
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..ir.core import Module, Operation, Value, registered_ops
from ..ir.dialects.arith import trunc_div, trunc_rem
from ..ir.dialects.math import np_erf
from .lut_runtime import (lut_interp_row, lut_interp_row_spline,
                          lut_interp_row_spline_vec, lut_interp_row_vec)
from .schedule import (ACCESS_INDEX_OPERAND, Access, LoweringError, Pack,
                       Schedule, Stmt, sanitize)

#: bump whenever generated source semantics change — part of the
#: persistent kernel cache key (repro.runtime.kernel_cache)
LOWERING_VERSION = 5

#: the largest array a kernel's packs may make (lanes x blocks x W
#: float64s) for them to run packed; above it they run lane by lane
_PACK_BYTES = 64 * 1024


@dataclass
class CompiledKernel:
    """An executable kernel lowered from IR."""

    name: str
    fn: Callable
    source: str
    mode: str                     # "scalar" or "vector"
    width: int
    arg_names: List[str]
    #: True when single-use SSA values were inlined into compound
    #: expressions (the PR2 fused lowering)
    fused: bool = False
    #: per-statement accumulated seconds (profile mode only); indexed
    #: by the matching entry in :attr:`provenance`.  A plain list —
    #: scalar ``list[i] += x`` is several times cheaper than a NumPy
    #: indexed add, and the bookkeeping sits *outside* the timed
    #: bracket, so keeping it cheap keeps attribution high.
    profile_counters: Optional[List[float]] = None
    #: per-statement provenance records (profile mode only): dicts with
    #: ``index``/``op``/``dialect``/``text``/``detail``
    provenance: Optional[List[Dict[str, Any]]] = None
    #: the module code object ``source`` compiled (or unmarshalled) to;
    #: the stores write it as the payload's ``code`` (:func:`pack_code`)
    code: Optional[CodeType] = None

    def __call__(self, *args, **kwargs):
        return self.fn(*args, **kwargs)


# ---------------------------------------------------------------------------
# Runtime helpers injected into every compiled kernel's globals
# ---------------------------------------------------------------------------


def _vb(x):
    """Column-broadcast a per-block scalar so it pairs with lane vectors."""
    if isinstance(x, np.ndarray) and x.ndim == 1:
        return x[:, None]
    return x


def _vstore(mem, idx, value):
    idx = np.asarray(idx)
    mem[idx] = np.broadcast_to(value, idx.shape)


def _vgather(mem, idx, mask=None, pass_thru=None):
    idx = np.asarray(idx)
    if mask is None:
        return mem[idx]
    mask = np.broadcast_to(mask, idx.shape)
    safe = np.where(mask, idx, 0)
    return np.where(mask, mem[safe], pass_thru)


def _vscatter(mem, idx, value, mask=None):
    idx = np.asarray(idx)
    value = np.broadcast_to(value, idx.shape)
    if mask is None:
        mem[idx] = value
        return
    mask = np.broadcast_to(mask, idx.shape)
    mem[idx[mask]] = value[mask]


def _vinsert(vec, scalar, pos, width):
    scalar = np.asarray(scalar, dtype=np.float64)
    base = np.asarray(vec, dtype=np.float64)
    out = np.empty(scalar.shape + (width,), dtype=np.float64)
    out[...] = base if base.ndim else base[()]
    out[..., pos] = scalar
    return out


def _column(values):
    """A read-only ``(G, 1, 1)`` column: one constant per pack lane."""
    column = np.array(values, dtype=np.float64).reshape(-1, 1, 1)
    column.flags.writeable = False
    return column


def _f64(x):
    return x.astype(np.float64) if isinstance(x, np.ndarray) else float(x)


def _i64(x):
    return np.trunc(x).astype(np.int64) if isinstance(x, np.ndarray) \
        else int(x)


# guarded scalar math: IEEE results instead of Python exceptions,
# matching NumPy's (and the hardware's) behaviour in the vector engine
def _g_exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _g_log(x):
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _g_log10(x):
    if x > 0.0:
        return math.log10(x)
    return -math.inf if x == 0.0 else math.nan


def _g_log2(x):
    if x > 0.0:
        return math.log2(x)
    return -math.inf if x == 0.0 else math.nan


def _g_log1p(x):
    if x > -1.0:
        return math.log1p(x)
    return -math.inf if x == -1.0 else math.nan


def _g_sqrt(x):
    return math.sqrt(x) if x >= 0.0 else math.nan


def _g_pow(x, y):
    try:
        return math.pow(x, y)
    except (OverflowError, ValueError):
        with np.errstate(all="ignore"):
            return float(np.power(np.float64(x), np.float64(y)))


def _g_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(all="ignore"):
            return float(np.float64(a) / np.float64(b))


def _g_fmod(a, b):
    try:
        return math.fmod(a, b)
    except ValueError:
        return math.nan


def _g_expm1(x):
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def _g_asin(x):
    return math.asin(x) if -1.0 <= x <= 1.0 else math.nan


def _g_acos(x):
    return math.acos(x) if -1.0 <= x <= 1.0 else math.nan


def _g_cosh(x):
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def _g_sinh(x):
    try:
        return math.sinh(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def _nan_outside_domain(fn):
    def guarded(x):
        try:
            return fn(x)
        except ValueError:      # +-inf
            return math.nan
    return guarded


def _integral(fn):
    def guarded(x):
        # copysign: a float again, and IEEE's -0.0 for ceil(-0.5)
        return math.copysign(fn(x), x) if math.isfinite(x) else x
    return guarded


_g_sin, _g_cos, _g_tan = map(_nan_outside_domain,
                             (math.sin, math.cos, math.tan))
_g_floor, _g_ceil, _g_trunc, _g_round = map(
    _integral, (math.floor, math.ceil, math.trunc, round))


def _cbrt(x):
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _lut_spline_any(lut, x):
    """Scalar spline LUT entry point tolerating array lanes."""
    if isinstance(x, np.ndarray):
        return lut_interp_row_spline_vec(lut, x)
    return lut_interp_row_spline(lut, x)


def _lut_any(lut, x):
    """Scalar LUT entry point that tolerates array lanes.

    In icc_simd kernels the per-lane scalar calls receive arrays once
    the cell loop is flattened; semantics are unchanged (the machine
    model still charges the serialized cost from the IR).
    """
    if isinstance(x, np.ndarray):
        return lut_interp_row_vec(lut, x)
    return lut_interp_row(lut, x)


_HELPER_GLOBALS = {
    "np": np, "math": math,
    "_vb": _vb, "_vstore": _vstore, "_vgather": _vgather,
    "_vscatter": _vscatter, "_vinsert": _vinsert, "_column": _column,
    "_f64": _f64, "_i64": _i64, "_cbrt": _cbrt, "_np_erf": np_erf,
    "_idiv": trunc_div, "_irem": trunc_rem,
    "_lut_scalar": _lut_any, "_lut_vec": lut_interp_row_vec,
    "_lut_spline_scalar": _lut_spline_any,
    "_lut_spline_vec": lut_interp_row_spline_vec,
    **{name: fn for name, fn in globals().items()
       if name.startswith("_g_")},
}

# op -> python expression template per engine ({0}, {1}... are operand
# texts): the ``scalar`` / ``numpy`` columns of the op rows (DESIGN.md
# §3.2; the math ops' NumPy spellings are the SVML analog)
_OP_ROWS = registered_ops()
_SCALAR_SPELLING = {name: info.scalar
                    for name, info in _OP_ROWS.items() if info.scalar}
_NUMPY_SPELLING = {name: info.numpy
                   for name, info in _OP_ROWS.items() if info.numpy}

_CMP_PY = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=", "ogt": ">",
           "oge": ">=", "ueq": "==", "une": "!=", "eq": "==", "ne": "!=",
           "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}
#: ops spelled alike in every mode: the lane ids, a SIMT grid of one
#: thread, typed views of the runtime's flat NumPy buffers
_KERNEL_SPELLING = {"vector.step": "_lanes", "gpu.global_id": "0",
                    "gpu.grid_dim": "1", "memref.cast": "{0}",
                    "memref.view": "{0}[{1}:]"}


class _NumPyPrinter:
    """Spells a :class:`~repro.runtime.schedule.Schedule` as Python over
    NumPy arrays (vector and simt mode) or floats (scalar mode)."""

    def __init__(self, schedule: Schedule):
        self.s = schedule
        #: the schedule's names, and the text of each inlined value
        self.names = dict(schedule.names)
        # simt kernels flatten scalar per-thread code over NumPy arrays,
        # so they share the vector op table
        self.table = {**(_SCALAR_SPELLING if schedule.mode == "scalar"
                         else _NUMPY_SPELLING), **_KERNEL_SPELLING}

    def source(self,
               wrap: Optional[Callable[[Stmt, str], Tuple[str, ...]]] = None
               ) -> str:
        """The kernel's source; ``wrap(stmt, text)`` may surround each
        compute statement with lines of its own."""
        s = self.s
        #: module-level lines: the packs' constant columns
        self.columns: List[str] = []
        lines = [f"def {s.func_op.attributes['sym_name']}"
                 f"({', '.join(s.args)}):"]
        if s.uses_lanes:
            lines.append(f"    _lanes = np.arange({s.width})")
        for stmt in s.stmts:
            text = self.stmt(stmt)
            lines += ["    " * stmt.depth + line
                      for chunk in (wrap(stmt, text) if wrap
                                    and stmt.compute else (text,))
                      for line in chunk.split("\n")]
        if len(lines) == 1:
            lines.append("    pass")
        return "\n".join(self.columns + lines)

    def expr(self, value: Value) -> str:
        """``value`` at a use: its name, or its fused definition."""
        name = self.names.get(id(value))
        if name is not None:
            return name
        text = self.spell(value.op)
        if text[0] == "-" and value.op.name == "arith.constant":
            text = f"({text})"      # survives template interpolation
        # a constant (or its broadcast) is spelled once for all its uses
        self.names[id(value)] = text
        return text

    def spell(self, op: Operation) -> str:
        """The expression a pure op computes."""
        return self.apply(op, [self.names.get(id(v)) or self.expr(v)
                               for v in op.operands])

    def apply(self, op: Operation, args: List[str]) -> str:
        """The expression a pure op computes from its operands' texts."""
        template = self.table.get(op.name)
        if template is not None:
            return template.format(*args)
        name = op.name
        if name == "arith.constant":
            value = op.attributes["value"]
            return str(value) if isinstance(value, int) else repr(float(value))
        if name in ("arith.cmpf", "arith.cmpi"):
            return f"({args[0]} {_CMP_PY[op.attributes['predicate']]} " \
                   f"{args[1]})"
        if name == "arith.select":
            cond, tval, fval = args
            if self.s.mode == "scalar":
                return f"({tval} if {cond} else {fval})"
            return f"np.where({cond}, {tval}, {fval})"
        if name == "vector.broadcast":
            return f"_vb({args[0]})" if id(op) in self.s.per_block \
                else args[0]
        if name == "vector.extract":
            return (f"({args[0]}[..., {op.attributes['position']}] "
                    f"if isinstance({args[0]}, np.ndarray) else {args[0]})")
        if name == "vector.insert":
            return (f"_vinsert({args[1]}, {args[0]}, "
                    f"{op.attributes['position']}, "
                    f"{op.results[0].type.width})")
        if name == "memref.dim":
            return f"{args[0]}.shape[{op.attributes.get('index', 0)}]"
        raise LoweringError(f"no {self.s.mode} lowering for {name}")

    def stmt(self, stmt: Stmt) -> str:
        """One statement's text."""
        op, kind, targets = stmt.op, stmt.kind, stmt.targets
        if kind == "value":
            return f"{targets[0]} = {self.expr(stmt.value)}"
        if kind in ("else", "pass"):
            return "else:" if kind == "else" else "pass"
        if kind == "view":
            return f"{targets[0]} = {self.view(stmt.access)}"
        if kind == "pack":
            return self.pack(stmt.pack)
        name = op.name
        if name == "scf.for":
            bounds = ", ".join(self.expr(v) for v in op.operands[:3])
            if kind == "arange":
                return f"{targets[0]} = np.arange({bounds}, dtype=np.int64)"
            if kind == "blocks":
                text = f"{targets[0]} = len(range({bounds}))"
                if not self.s.packs:
                    return text
                # packed while no pack array outgrows _PACK_BYTES: past
                # that, fresh allocations cost more than the calls saved
                widest = max(len(p.members) for p in self.s.packs)
                limit = _PACK_BYTES // (widest * self.s.width * 8)
                return f"{text}\n_packed = {targets[0]} <= {limit}"
            return f"for {targets[0]} in range({bounds}):"
        if name in ACCESS_INDEX_OPERAND:
            return self.access(op, targets)
        if name == "func.call":
            return self.call(op, targets)
        if name not in ("scf.if", "func.return", "memref.load",
                        "memref.store"):
            text = self.spell(op)       # a value, bound to its name
            return f"{targets[0]} = {text}"
        args = [self.expr(v) for v in op.operands]
        if name == "scf.if":
            return f"if {args[0]}:"
        if name == "func.return":
            return f"return {', '.join(args)}" if args else "return"
        if name == "memref.load":
            return f"{targets[0]} = {args[0]}[{', '.join(args[1:])}]"
        return f"{args[1]}[{', '.join(args[2:])}] = {args[0]}"

    def view(self, access: Access) -> str:
        """The ``(n_blocks, a*step)`` view of the memref whose row k
        holds every address block k of ``access`` may touch.  A slice
        clipped by the end of the buffer cannot be reshaped, so an
        out-of-range block raises instead of reading or writing past
        the memref."""
        form = access.form
        lo = self.expr(access.loop.operands[0])
        if form.a != 1:
            lo = f"{form.a}*{lo}"
        if form.sym is not None:
            lo = f"{self.expr(form.sym)} + {lo}"
        n_blocks = self.s.block_counts[id(access.loop)]
        row = form.a * access.step
        return (f"{self.expr(access.mem)}[{lo}:{lo} + {n_blocks}*{row}]"
                f".reshape({n_blocks}, {row})")

    def access(self, op: Operation, targets: Tuple[str, ...]) -> str:
        """vector.load / store / gather / scatter, one spelling per
        addressing mode: sliced (unit or strided) and indexed."""
        n = self.expr
        position = ACCESS_INDEX_OPERAND[op.name]
        mem, index = op.operands[position - 1:position + 1]
        stores = not op.results
        access = self.s.access.get(id(op))
        if access is not None and access.form is not None:
            if stores:
                return f"{self.sliced(op)} = {n(op.operands[0])}"
            # a copy: later stores must not show through, and every
            # consumer ufunc gets a contiguous operand
            return f"{targets[0]} = {self.sliced(op)}.copy()"
        if op.name in ("vector.load", "vector.store"):
            where = f"_vb({n(index)}) + _lanes"
            if stores:
                return f"_vstore({n(mem)}, {where}, {n(op.operands[0])})"
            return f"{targets[0]} = {n(mem)}[{where}]"
        extra = "".join(f", {n(v)}" for v in op.operands[position + 1:])
        if stores:
            return (f"_vscatter({n(mem)}, {n(index)}, {n(op.operands[0])}"
                    f"{extra})")
        return f"{targets[0]} = _vgather({n(mem)}, {n(index)}{extra})"

    def sliced(self, op: Operation) -> str:
        """A sliced access's block view and its lanes' column slice (none
        when they are the whole row, ``[:]`` for a store's target)."""
        stores = not op.results
        access = self.s.access[id(op)]
        vec = op.operands[0] if stores else op.results[0]
        view = self.s.views.get(access.view_key) or self.view(access)
        form = access.form
        stop = form.b + form.c * (vec.type.width - 1) + 1
        if form.b == 0 and stop == form.a * access.step:
            return f"{view}[:]" if stores else view
        return f"{view}[:, {form.b}:{stop}" \
               f"{'' if form.c == 1 else f':{form.c}'}]"

    def pack(self, pack: Pack) -> str:
        """One statement for all lanes while the pack's arrays are small
        (``_packed``), else a loop that runs the members lane by lane;
        then the lanes read by name are bound (lane k is ``pack[k]``:
        a contiguous view, or the k-th member's array)."""
        op = pack.members[0].op
        slots = self.slots(pack) if op.name in ACCESS_INDEX_OPERAND else ""
        if not op.results:                      # a store
            packed = [f"{slots}[...] = "
                      f"{self.operand(pack, op.operands[0], op, 0)}"]
            lanes = [f"for _k, _to in enumerate({slots}):",
                     f"    _to[...] = "
                     f"{self.operand(pack, op.operands[0], op, 0, '_k')}"]
        elif slots:                             # a load
            packed = [f"{pack.name} = {slots}.copy()"]
            lanes = [f"{pack.name} = [_to.copy() for _to in {slots}]"]
        else:
            packed = [f"{pack.name} = {self.tree(pack, op)}"]
            lanes = [f"{pack.name} = []",
                     f"for _k in range({len(pack.members)}):",
                     f"    {pack.name}.append({self.tree(pack, op, '_k')})"]
        lines = ["if _packed:", *("    " + line for line in packed),
                 "else:", *("    " + line for line in lanes)]
        if any(pack.lanes):
            lines.append(f"{', '.join(name or '_' for name in pack.lanes)}"
                         f", = {pack.name}")
        return "\n".join(lines)

    def tree(self, pack: Pack, op: Operation,
             lane: Optional[str] = None) -> str:
        """``op`` of ``pack``'s first member's tree, spelled for all lanes
        or, given the name of a ``lane`` index, for that lane alone."""
        return self.apply(op, [self.operand(pack, v, op, i, lane)
                               for i, v in enumerate(op.operands)])

    def operand(self, pack: Pack, value: Value, user: Operation,
                index: int, lane: Optional[str] = None) -> str:
        """Operand ``index`` of ``user`` in ``pack``'s first member's
        tree, spelled as :meth:`tree` does."""
        leaf = pack.leaves.get((id(user), index))
        if leaf is None:                        # an op of the tree
            return self.tree(pack, value.op, lane)
        if leaf.kind == "shared":
            value = leaf.values[0]
            return self.names.get(id(value)) or self.expr(value)
        if leaf.kind == "column":
            columns = [other for other in pack.leaves.values()
                       if other.kind == "column"]
            name = f"{pack.name}_c{columns.index(leaf)}"
            if lane is None:
                values = ", ".join(repr(float(v.op.attributes["value"]))
                                   for v in leaf.values)
                self.columns.append(f"{name} = _column(({values}))")
                return name
            return f"{name}[{lane}]"
        source, stop = leaf.source, leaf.start + len(pack.members)
        if lane is not None:
            return f"{source.name}[{leaf.start} + {lane}]" if leaf.start \
                else f"{source.name}[{lane}]"
        if leaf.start == 0 and stop == len(source.members):
            return source.name
        return f"{source.name}[{leaf.start}:{stop}]"

    def slots(self, pack: Pack) -> str:
        """The ``(G, n_blocks, W)`` view of the state slots ``pack``'s
        lanes load or store, transposed out of its members' block view."""
        op = pack.members[0].op
        access = self.s.access[id(op)]
        view = self.s.views[access.view_key]
        n_blocks = self.s.block_counts[id(access.loop)]
        lo, hi = pack.slot, pack.slot + len(pack.members)
        form = access.form
        width = (op.results[0] if op.results else op.operands[0]).type.width
        if form.c == 1:
            return (f"{view}.reshape({n_blocks}, "
                    f"{form.a * access.step // width}, {width})"
                    f"[:, {lo}:{hi}].transpose(1, 0, 2)")
        return (f"{view}.reshape({n_blocks}, {width}, {form.c})"
                f"[:, :, {lo}:{hi}].transpose(2, 0, 1)")

    def call(self, op: Operation, targets: Tuple[str, ...]) -> str:
        callee = op.attributes["callee"]
        operands = ", ".join(self.expr(v) for v in op.operands)
        bound = ", ".join(targets)
        if callee.startswith("LUT_interpRow"):
            live = self.s.columns.get(id(op))
            kind = "_spline" if callee.startswith("LUT_interpRowSpline") \
                else ""
            kind += "_scalar" if live is None else "_vec"
            if live is not None:
                operands += f", {live}"
            call = f"_lut{kind}({operands})"
            # the LUT runtime returns a tuple of columns even for a
            # single-column table: force sequence unpacking
            bound += ","
        else:       # foreign_* and module-local functions alike
            call = f"{sanitize(callee)}({operands})"
        return f"{bound} = {call}" if targets else call


def _kernel_mode(func_op: Operation) -> tuple[str, int]:
    """Infer (mode, width) from the cell loop's attributes."""
    for op in func_op.walk():
        if op.name == "scf.for" and op.attributes.get("cell_loop"):
            if op.attributes.get("simt"):
                return "simt", 1
            width = int(op.attributes.get("vector_width", 1))
            return ("scalar" if width == 1 else "vector"), width
    return "scalar", 1


def pack_code(code: CodeType) -> str:
    """``code`` as a payload's ``code`` field: base64 of this
    interpreter's ``MAGIC_NUMBER`` followed by the marshalled object,
    which is what a ``.pyc`` holds.  Marshal version 2 writes no
    back-references (whether version 3 writes one depends on reference
    counts), so one source packs to the same bytes in every process."""
    return base64.b64encode(MAGIC_NUMBER + marshal.dumps(code, 2)).decode()


def kernel_payload(kernel: CompiledKernel) -> Dict[str, Any]:
    """``kernel`` as a stored payload: the one place its fields are named.

    Both stores write this dict (the kernel cache as the entry itself,
    the bundle as its ``kernel`` field) and :func:`kernel_from_payload`
    reads it back.  ``code`` is :func:`pack_code` of the kernel's code
    object, written when it has one.  ``arena`` is always ``False``: it
    names a lowering mode that no longer exists and stays so that every
    stored checksum keeps matching.
    """
    payload = {"function_name": kernel.name, "source": kernel.source,
               "mode": kernel.mode, "width": kernel.width,
               "arg_names": list(kernel.arg_names), "fused": kernel.fused,
               "arena": False}
    if kernel.code is not None:
        payload["code"] = pack_code(kernel.code)
    return payload


def kernel_from_payload(payload: Dict[str, Any]) -> CompiledKernel:
    """The executable kernel a :func:`kernel_payload` dict stores.

    When ``code`` is tagged with this interpreter's magic number the
    code object is unmarshalled and CPython's compiler never runs; a
    foreign tag or no ``code`` (an entry written before bytecode was
    stored, a hand-built payload) compiles ``source``.  Callers pass
    only checksum-verified payloads.
    """
    packed = base64.b64decode(payload["code"]) if payload.get("code") \
        else b""
    code = None
    if packed[:len(MAGIC_NUMBER)] == MAGIC_NUMBER:
        code = marshal.loads(packed[len(MAGIC_NUMBER):])
    return _link(CompiledKernel(
        name=payload["function_name"], fn=None, source=payload["source"],
        mode=payload["mode"], width=payload["width"],
        arg_names=payload["arg_names"], fused=payload["fused"], code=code))


def _link(kernel: CompiledKernel,
          extra_globals: Optional[Dict] = None) -> CompiledKernel:
    """Exec ``kernel``'s code object (compiled from its source when it
    has none) among the runtime helpers and bind ``kernel.fn``."""
    namespace = dict(_HELPER_GLOBALS)
    from .foreign import registered_foreign
    for fname, fn in registered_foreign().items():
        namespace[f"foreign_{sanitize(fname)}"] = fn
    namespace.update(extra_globals or {})
    if kernel.code is None:
        kernel.code = compile(kernel.source, f"<lowered:{kernel.name}>",
                              "exec")
    exec(kernel.code, namespace)
    kernel.fn = namespace[kernel.name]
    return kernel


def _profiled(kernel: CompiledKernel, printer: _NumPyPrinter
              ) -> CompiledKernel:
    """Print with every compute statement bracketed by two clock reads
    whose difference accumulates into its slot of ``_prof``, and one
    provenance record per slot.  The reads sit *between* statements, so
    the statements, and the numerics, are the plain kernel's."""
    provenance: List[Dict[str, Any]] = []

    def bracket(stmt: Stmt, text: str) -> Tuple[str, ...]:
        index = len(provenance)
        provenance.append({"index": index, "op": stmt.op.name,
                           "dialect": stmt.op.dialect, "text": text,
                           "detail": stmt.detail})
        return "_pt = _clock()", text, f"_prof[{index}] += _clock() - _pt"

    kernel.source = printer.source(bracket)
    kernel.provenance = provenance
    kernel.profile_counters = [0.0] * len(provenance)
    return _link(kernel, {"_prof": kernel.profile_counters,
                          "_clock": _time.perf_counter})


def lower_function(module: Module, sym_name: str,
                   mode: Optional[str] = None, fuse: bool = True,
                   arena: bool = False,
                   profile: bool = False) -> CompiledKernel:
    """Lower one function of ``module`` to an executable Python kernel:
    a :class:`~repro.runtime.schedule.Schedule` of it, spelled in NumPy.

    ``fuse`` inlines single-use SSA values into compound expressions
    (bit-identical results, far fewer temporaries); ``profile`` brackets
    every compute statement with clock reads accumulating into the
    kernel's :attr:`~CompiledKernel.profile_counters` (see
    :mod:`repro.obs.profiler` for reporting).  ``arena`` must be
    ``False``: ``benchmarks/e2e/layers.py:102`` still passes it.
    """
    if arena:
        raise ValueError("lower_function: the buffer arena was removed; "
                         "arena must be False")
    func_op = module.lookup_func(sym_name)
    if func_op is None:
        raise LoweringError(f"no function @{sym_name} in module")
    inferred_mode, width = _kernel_mode(func_op)
    mode = mode or inferred_mode
    printer = _NumPyPrinter(Schedule(func_op, mode, width, fuse=fuse))
    entry = func_op.regions[0].entry
    kernel = CompiledKernel(
        name=sym_name, fn=None, source="", mode=mode, width=width,
        arg_names=[a.name_hint or f"arg{i}"
                   for i, a in enumerate(entry.args)], fused=fuse)
    if profile:
        return _profiled(kernel, printer)
    kernel.source = printer.source()
    return _link(kernel)
