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

The generated source is kept on the :class:`CompiledKernel` for
inspection and tests.
"""

from __future__ import annotations

import base64
import marshal
import math
import time as _time
from dataclasses import dataclass, replace
from importlib.util import MAGIC_NUMBER
from types import CodeType
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..ir.core import (Block, IRError, Module, Operation, OpResult, Value,
                       is_defined_in, registered_ops)
from ..ir.dialects.arith import trunc_div, trunc_rem
from ..ir.dialects.math import np_erf
from ..ir.types import VectorType
from .lut_runtime import (lut_interp_row, lut_interp_row_spline,
                          lut_interp_row_spline_vec, lut_interp_row_vec)

#: bump whenever generated source semantics change — part of the
#: persistent kernel cache key (repro.runtime.kernel_cache)
LOWERING_VERSION = 4

#: fused expressions deeper than this are materialized into a named
#: temporary so generated lines stay readable and CPython's parser
#: never sees pathologically nested expressions
MAX_FUSE_DEPTH = 40


class LoweringError(IRError):
    """Raised when an op has no lowering in the requested mode."""


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
    #: ``index``/``op``/``dialect``/``source``/``text``/``detail``
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
    "_vscatter": _vscatter, "_vinsert": _vinsert, "_f64": _f64,
    "_i64": _i64, "_cbrt": _cbrt, "_np_erf": np_erf,
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

# -- addressing modes (DESIGN.md §6.2) ---------------------------------------
# A vector memory access in the flattened cell loop touches, for block k
# and lane l, the address ``a*(lb + k*S) + sym + b + c*l``.  When the
# analysis proves that form the access is a strided slice of a
# ``(n_blocks, a*S)`` view of the memref; otherwise it builds the index
# array.

#: op -> position of its index operand
_ACCESS_INDEX_OPERAND = {"vector.load": 1, "vector.store": 2,
                         "vector.gather": 1, "vector.scatter": 2}
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
        position = _ACCESS_INDEX_OPERAND[op.name]
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


def analyze_accesses(func_op: Operation) -> Dict[int, Access]:
    """``id(op)`` -> :class:`Access` for every vector memory access
    inside a cell loop of ``func_op`` (masked accesses are indexed)."""
    accesses: Dict[int, Access] = {}
    for loop in func_op.walk():
        if loop.name == "scf.for" and loop.attributes.get("cell_loop"):
            analysis = _AffineAnalysis(loop)
            for op in loop.walk():
                if op.name in _ACCESS_INDEX_OPERAND:
                    accesses[id(op)] = analysis.classify(op)
    return accesses


class _FunctionLowering:
    """Lowers one func.func definition to Python source.

    With ``fuse`` enabled (the default), the result of a pure op whose
    value has exactly one use is not assigned to a temporary: its
    expression text is held *pending* and inlined at the single use
    site.  Because every value has one definition and the deferred ops
    are side-effect free, textual inlining preserves bit-identical
    semantics while collapsing hundreds of one-line NumPy statements
    (one vector temporary each) into a few compound expressions.
    Pending values are flushed (materialized as assignments) before any
    region op so fusion never moves work across control flow.

    With ``profile`` enabled, every compute statement is bracketed by
    two monotonic-clock reads whose difference accumulates into a
    preallocated per-statement counter array (``_prof``), and a
    provenance record maps each counter back to the defining IR op and
    its EasyML source name.  The bracketing is purely additive — the
    compute statements themselves are byte-identical to the unprofiled
    lowering — so profiled runs stay bitwise identical.
    """

    def __init__(self, op: Operation, mode: str, width: int,
                 fuse: bool = True, profile: bool = False):
        self.op = op
        self.mode = mode
        self.width = width
        self.fuse = fuse
        self.profile = profile
        #: per-statement attribution records, in emission order
        self.provenance: List[Dict[str, Any]] = []
        self.lines: List[str] = []
        self.indent = 1
        self.names: Dict[int, str] = {}
        self.counter = 0
        #: value id -> (expression text, nesting depth, defining op),
        #: in def order
        self.pending: Dict[int, Tuple[str, int, Operation]] = {}
        # simt kernels flatten scalar per-thread code over NumPy arrays,
        # so they share the vector op table
        self.expr_table = _SCALAR_SPELLING if mode == "scalar" \
            else _NUMPY_SPELLING
        #: id(op) -> addressing mode of each vector memory access
        self.access: Dict[int, Access] = {}
        #: ids of ops whose results only ever feed a sliced address
        self.address_only: Set[int] = set()
        #: (loop, memref, a, sym) -> name of the hoisted block view
        self.views: Dict[Tuple[int, int, int, int], str] = {}
        #: id(cell loop) -> name of its block count
        self.block_counts: Dict[int, str] = {}
        #: cell loops lowered flattened so far
        self.flat_loops: List[Operation] = []
        #: True once a statement mentions ``_lanes``
        self.uses_lanes = False

    # -- naming ------------------------------------------------------------------

    def name_of(self, value: Value) -> str:
        name = self.names.get(id(value))
        if name is None:
            raise LoweringError(
                f"lowering: value %{value.name_hint or '?'} used before "
                f"definition")
        return name

    def use(self, value: Value) -> str:
        """Expression text for one use of ``value`` (consumes pending)."""
        entry = self.pending.pop(id(value), None)
        if entry is not None:
            return entry[0]
        return self.name_of(value)

    def use_name(self, value: Value) -> str:
        """Like :meth:`use`, but always yields a bare name (for
        templates that mention an operand more than once)."""
        entry = self.pending.pop(id(value), None)
        if entry is not None:
            name = self.fresh(value)
            self._emit_stmt(f"{name} = {entry[0]}", entry[2])
            return name
        return self.name_of(value)

    def _depth_of(self, value: Value) -> int:
        entry = self.pending.get(id(value))
        return entry[1] if entry is not None else 0

    def fresh(self, value: Value, hint: Optional[str] = None) -> str:
        name = hint or f"v{self.counter}"
        self.counter += 1
        self.names[id(value)] = name
        return name

    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def _emit_stmt(self, text: str, op: Operation,
                   detail: Optional[str] = None) -> None:
        """Emit one compute statement, clock-bracketed in profile mode.

        The timer reads sit *between* statements, never inside an
        expression, so the statement text (and hence the numerics) is
        unchanged from the unprofiled lowering.
        """
        if not self.profile:
            self.line(text)
            return
        idx = len(self.provenance)
        source = op.results[0].name_hint if op.results else None
        self.provenance.append({
            "index": idx, "op": op.name, "dialect": op.dialect,
            "source": source, "text": text.strip(), "detail": detail,
        })
        self.line("_pt = _clock()")
        self.line(text)
        self.line(f"_prof[{idx}] += _clock() - _pt")

    # -- fusion ------------------------------------------------------------------

    def _flush_pending(self) -> None:
        """Materialize every pending expression as an assignment.

        Called before region ops (loops, branches, parallel regions):
        pending values defined here may be used inside the region, and
        inlining across the boundary would re-evaluate them per
        iteration (or skip LICM's work).  Definition order is emission
        order, so operands are always bound first.
        """
        for value_id, (text, _, owner) in list(self.pending.items()):
            name = f"v{self.counter}"
            self.counter += 1
            self.names[value_id] = name
            self._emit_stmt(f"{name} = {text}", owner)
        self.pending.clear()

    def _defer_or_assign(self, op: Operation, text: str,
                         depth: int) -> None:
        """Defer a pure op's result for inlining, or assign it."""
        result = op.results[0]
        if self.fuse and result.num_uses == 1 and depth <= MAX_FUSE_DEPTH:
            self.pending[id(result)] = (text, depth, op)
            return
        self._emit_stmt(f"{self.fresh(result)} = {text}", op)

    # -- entry --------------------------------------------------------------------

    def lower(self) -> str:
        sym = self.op.attributes["sym_name"]
        entry = self.op.regions[0].entry
        arg_names = []
        for arg in entry.args:
            name = self.fresh(arg, _sanitize(arg.name_hint))
            arg_names.append(name)
        header = f"def {sym}({', '.join(arg_names)}):"
        self.lines.append(header)
        if self.mode == "vector":
            self._plan_addressing()
        self._lower_block_ops(entry)
        if self.uses_lanes:
            self.lines.insert(1, f"    _lanes = np.arange({self.width})")
        if len(self.lines) == 1:
            self.line("pass")
        return "\n".join(self.lines)

    # -- addressing ---------------------------------------------------------------

    def _plan_addressing(self) -> None:
        """Classify every vector access, then find the index arithmetic
        that only sliced accesses consume: it is never materialised."""
        self.access = analyze_accesses(self.op)
        live = {id(a.form.sym) for a in self.access.values()
                if a.form is not None and a.form.sym is not None}
        # users come after definitions, so one reverse walk settles it
        for op in reversed(list(self.op.walk())):
            if op.name in _ADDRESS_OPS and id(op.results[0]) not in live \
                    and self._feeds_only_slices(op.results[0]):
                self.address_only.add(id(op))

    def _feeds_only_slices(self, value: Value) -> bool:
        for user, position in value.uses:
            if id(user) in self.address_only:
                continue
            access = self.access.get(id(user))
            if access is None or access.form is None \
                    or position != _ACCESS_INDEX_OPERAND[user.name]:
                return False        # a use that needs the value itself
        return True

    @staticmethod
    def _view_key(access: Access) -> Tuple[int, int, int, int]:
        return (id(access.loop), id(access.mem), access.form.a,
                id(access.form.sym))

    def _block_view(self, access: Access) -> str:
        """The ``(n_blocks, a*step)`` view of the memref whose row k
        holds every address block k of ``access`` may touch.  A slice
        clipped by the end of the buffer cannot be reshaped, so an
        out-of-range block raises instead of reading or writing past
        the memref."""
        hoisted = self.views.get(self._view_key(access))
        if hoisted is not None:
            return hoisted
        form = access.form
        lo = self.name_of(access.loop.operands[0])
        if form.a != 1:
            lo = f"{form.a}*{lo}"
        if form.sym is not None:
            lo = f"{self.use_name(form.sym)} + {lo}"
        n_blocks = self.block_counts[id(access.loop)]
        row = form.a * access.step
        return (f"{self.use_name(access.mem)}[{lo}:{lo} + {n_blocks}*{row}]"
                f".reshape({n_blocks}, {row})")

    @staticmethod
    def _lane_columns(access: Access, width: int) -> str:
        """The column slice selecting ``access``'s ``width`` lanes from a
        row of its block view ('' when they are the whole row)."""
        form = access.form
        stop = form.b + form.c * (width - 1) + 1
        if form.b == 0 and stop == form.a * access.step:
            return ""
        stride = "" if form.c == 1 else f":{form.c}"
        return f"[:, {form.b}:{stop}{stride}]"

    def _lower_access(self, op: Operation) -> None:
        """vector.load / store / gather / scatter, one emitter per
        addressing mode: sliced (unit or strided) and indexed."""
        n = self.use
        position = _ACCESS_INDEX_OPERAND[op.name]
        mem, index = op.operands[position - 1:position + 1]
        stores = not op.results
        value = op.operands[0] if stores else None
        access = self.access.get(id(op))
        if access is not None and access.form is not None:
            vec = value if stores else op.results[0]
            view = self._block_view(access)
            columns = self._lane_columns(access, vec.type.width)
            if stores:
                text = f"{view}{columns or '[:]'} = {n(value)}"
            else:
                # a copy: later stores must not show through, and every
                # consumer ufunc gets a contiguous operand
                text = f"{self.fresh(op.results[0])} = {view}{columns}.copy()"
        elif op.name in ("vector.load", "vector.store"):
            self.uses_lanes = True
            where = f"_vb({n(index)}) + _lanes"
            if stores:
                text = f"_vstore({n(mem)}, {where}, {n(value)})"
            else:
                text = f"{self.fresh(op.results[0])} = {n(mem)}[{where}]"
        else:
            extra = "".join(f", {n(v)}" for v in op.operands[position + 1:])
            if stores:
                text = (f"_vscatter({n(mem)}, {n(index)}, {n(value)}"
                        f"{extra})")
            else:
                text = (f"{self.fresh(op.results[0])} = _vgather({n(mem)}, "
                        f"{n(index)}{extra})")
        self._emit_stmt(text, op,
                        detail=access.mode if access else "indexed")

    # -- structure ----------------------------------------------------------------

    def _lower_block_ops(self, block: Block) -> None:
        for op in block.ops:
            self._lower_op(op)

    def _lower_op(self, op: Operation) -> None:
        name = op.name
        if id(op) in self.address_only:
            return
        if name == "func.return":
            if op.operands:
                values = ", ".join(self.use(v) for v in op.operands)
                self.line(f"return {values}")
            else:
                self.line("return")
            return
        if name == "omp.parallel":
            # Worksharing is the supervised tier's job (its workers
            # call the kernel on per-shard cell ranges); lowering
            # executes the region body directly.
            self._flush_pending()
            for inner in op.regions[0].entry.ops:
                if inner.name != "omp.terminator":
                    self._lower_op(inner)
            return
        if name == "gpu.launch":
            # The grid-stride decomposition is an execution detail: with
            # global_id=0 / grid_dim=1 the stride loop enumerates every
            # cell exactly once, and the flattened cell loop runs them
            # all as one NumPy pass (the SIMT analog of lane-flattening).
            self._flush_pending()
            for inner in op.regions[0].entry.ops:
                if inner.name != "gpu.terminator":
                    self._lower_op(inner)
            return
        if name == "gpu.global_id":
            self._defer_or_assign(op, "0", 0)
            return
        if name == "gpu.grid_dim":
            self._defer_or_assign(op, "1", 0)
            return
        if name == "scf.for":
            self._flush_pending()
            self._lower_for(op)
            return
        if name == "scf.if":
            self._flush_pending()
            self._lower_if(op)
            return
        if name == "scf.yield" or name == "omp.terminator":
            raise LoweringError(f"{name} outside its parent's lowering")
        if name == "arith.constant":
            self._lower_constant(op)
            return
        if name == "func.call":
            self._lower_call(op)
            return
        if name in _ACCESS_INDEX_OPERAND:
            self._lower_access(op)
            return
        if name in ("memref.load", "memref.store",
                    "vector.broadcast", "vector.extract", "vector.insert",
                    "vector.step", "memref.cast", "memref.view",
                    "memref.dim", "arith.select", "arith.cmpf",
                    "arith.cmpi"):
            self._lower_special(op)
            return
        template = self.expr_table.get(name)
        if template is None:
            raise LoweringError(f"no {self.mode} lowering for {name}")
        depth = 1 + max((self._depth_of(v) for v in op.operands), default=0)
        operands = [self.use(v) for v in op.operands]
        self._defer_or_assign(op, template.format(*operands), depth)

    # -- leaf ops -----------------------------------------------------------------

    def _lower_constant(self, op: Operation) -> None:
        value = op.attributes["value"]
        if isinstance(value, bool) or isinstance(value, int):
            text = str(value)
        else:
            text = repr(float(value))
        if self.fuse:
            # constants inline everywhere (even multi-use: a literal is
            # cheaper than a name lookup); negatives get parentheses so
            # they survive template interpolation
            if text.startswith("-"):
                text = f"({text})"
            self.names[id(op.results[0])] = text
            return
        self.line(f"{self.fresh(op.results[0])} = {text}")

    def _lower_call(self, op: Operation) -> None:
        callee = op.attributes["callee"]
        operands = ", ".join(self.use(v) for v in op.operands)
        results = list(op.results)
        detail = callee
        is_lut = callee.startswith("LUT_interpRow")
        if is_lut:
            if "_n_elements_vec" in callee:
                # a vector call returns only the columns something
                # reads: the runtime gathers from a table of just those
                live = tuple(i for i, r in enumerate(results) if r.num_uses)
                results = [results[i] for i in live]
                operands += f", {live}"
            detail = f"{len(results)}/{len(op.results)} {callee}"
        if callee.startswith("LUT_interpRowSpline_n_elements_vec"):
            call = f"_lut_spline_vec({operands})"
        elif callee.startswith("LUT_interpRowSpline"):
            call = f"_lut_spline_scalar({operands})"
        elif callee.startswith("LUT_interpRow_n_elements_vec"):
            call = f"_lut_vec({operands})"
        elif is_lut:
            call = f"_lut_scalar({operands})"
        else:       # foreign_* and module-local functions alike
            call = f"{_sanitize(callee)}({operands})"
        if not results:
            self._emit_stmt(call, op, detail=detail)
            return
        targets = ", ".join(self.fresh(r) for r in results)
        if is_lut:
            # the LUT runtime returns a tuple of columns even for a
            # single-column table: force sequence unpacking
            targets += ","
        self._emit_stmt(f"{targets} = {call}", op, detail=detail)

    def _lower_special(self, op: Operation) -> None:
        n = self.use
        name = op.name
        if name == "arith.cmpf" or name == "arith.cmpi":
            pred = _CMP_PY[op.attributes["predicate"]]
            depth = 1 + max(self._depth_of(op.operands[0]),
                            self._depth_of(op.operands[1]))
            self._defer_or_assign(op, f"({n(op.operands[0])} {pred} "
                                      f"{n(op.operands[1])})", depth)
        elif name == "arith.select":
            depth = 1 + max(self._depth_of(v) for v in op.operands)
            cond, tval, fval = (n(v) for v in op.operands)
            if self.mode == "scalar":
                self._defer_or_assign(op, f"({tval} if {cond} else {fval})",
                                      depth)
            else:
                self._defer_or_assign(op, f"np.where({cond}, {tval}, "
                                          f"{fval})", depth)
        elif name == "memref.load":
            base, *idx = op.operands
            indices = ", ".join(n(v) for v in idx)
            result = self.fresh(op.results[0])
            self._emit_stmt(f"{result} = {n(base)}[{indices}]", op)
        elif name == "memref.store":
            value, base, *idx = op.operands
            text = n(value)
            indices = ", ".join(n(v) for v in idx)
            self._emit_stmt(f"{n(base)}[{indices}] = {text}", op)
        elif name == "vector.broadcast":
            src = op.operands[0]
            depth = self._depth_of(src)
            if self._per_block(src):
                self._defer_or_assign(op, f"_vb({n(src)})", 1 + depth)
            elif self.fuse and id(src) in self.names:
                # a scalar the cell loop does not vary broadcasts itself
                self.names[id(op.results[0])] = self.names[id(src)]
            else:
                self._defer_or_assign(op, n(src), depth)
        elif name == "vector.extract":
            pos = op.attributes["position"]
            # the template mentions the source twice: force a bare name
            src = self.use_name(op.operands[0])
            self._defer_or_assign(op, f"({src}[..., {pos}] "
                                      f"if isinstance({src}, np.ndarray) "
                                      f"else {src})", 1)
        elif name == "vector.insert":
            scalar, vec = op.operands
            depth = 1 + max(self._depth_of(scalar), self._depth_of(vec))
            width = op.results[0].type.width
            self._defer_or_assign(
                op, f"_vinsert({n(vec)}, {n(scalar)}, "
                    f"{op.attributes['position']}, {width})", depth)
        elif name == "vector.step":
            self.uses_lanes = True
            self._defer_or_assign(op, "_lanes", 0)
        elif name in ("memref.cast", "memref.view"):
            # Typed reinterpretation: runtime buffers are already flat
            # NumPy arrays; a view with an element shift slices.
            result = self.fresh(op.results[0])
            if name == "memref.view":
                self.line(f"{result} = {n(op.operands[0])}"
                          f"[{n(op.operands[1])}:]")
            else:
                self.line(f"{result} = {n(op.operands[0])}")
        elif name == "memref.dim":
            result = self.fresh(op.results[0])
            dim = op.attributes.get("index", 0)
            self.line(f"{result} = {n(op.operands[0])}.shape[{dim}]")

    # -- control flow -------------------------------------------------------------------

    def _lower_for(self, op: Operation) -> None:
        lb, ub, step = (self.name_of(v) for v in op.operands[:3])
        inits = [self.name_of(v) for v in op.operands[3:]]
        body = op.regions[0].entry
        is_cell_loop = bool(op.attributes.get("cell_loop"))
        iv_name = self.fresh(body.args[0], _sanitize(body.args[0].name_hint))
        acc_names = []
        for arg, init in zip(body.args[1:], inits):
            acc = self.fresh(arg, _sanitize(arg.name_hint))
            acc_names.append(acc)
            self.line(f"{acc} = {init}")
        if is_cell_loop and self.mode in ("vector", "simt"):
            if inits:
                raise LoweringError(
                    "vector cell loop cannot carry iter_args")
            # Flatten: all blocks execute at once; the induction variable
            # becomes the array of block start indices — built only when
            # something other than a sliced address reads it.
            self.flat_loops.append(op)
            if not self._feeds_only_slices(body.args[0]):
                self._emit_stmt(f"{iv_name} = np.arange({lb}, {ub}, {step}, "
                                f"dtype=np.int64)", op)
            self._hoist_block_views(op, f"range({lb}, {ub}, {step})")
            self._lower_block_body(body, acc_names)
            return
        self.line(f"for {iv_name} in range({lb}, {ub}, {step}):")
        self.indent += 1
        mark = len(self.lines)
        self._lower_block_body(body, acc_names)
        if len(self.lines) == mark:
            self.line("pass")      # everything fused away or inlined
        self.indent -= 1
        for result, acc in zip(op.results, acc_names):
            self.names[id(result)] = acc

    def _hoist_block_views(self, loop: Operation, blocks: str) -> None:
        """Bind the loop's block count and, once per (memref, row shape)
        whose ingredients exist before the loop, the block view every
        sliced access of that memref shares."""
        sliced = [access for access in self.access.values()
                  if access.loop is loop and access.form is not None]
        if not sliced:
            return
        n_blocks = f"_nb{len(self.block_counts) or ''}"
        self.block_counts[id(loop)] = n_blocks
        self._emit_stmt(f"{n_blocks} = len({blocks})", loop)
        for access in sliced:
            key = self._view_key(access)
            if key in self.views or is_defined_in(access.mem, loop) or (
                    access.form.sym is not None
                    and is_defined_in(access.form.sym, loop)):
                continue
            text = self._block_view(access)
            self.views[key] = (f"_{self.name_of(access.mem)}"
                               f"_b{len(self.views)}")
            self._emit_stmt(f"{self.views[key]} = {text}", loop)

    def _per_block(self, value: Value) -> bool:
        """True when ``value`` may hold one scalar per cell block (an
        array once the loop is flattened) rather than one scalar."""
        if isinstance(value, OpResult) and value.op.name == "arith.constant":
            return False
        return any(is_defined_in(value, loop) for loop in self.flat_loops)

    def _lower_block_body(self, body: Block, acc_names: List[str]) -> None:
        for inner in body.ops:
            if inner.name == "scf.yield":
                for acc, value in zip(acc_names, inner.operands):
                    # attribute the assignment to the pending defining
                    # op when the yielded expression was fused into it
                    entry = self.pending.get(id(value))
                    owner = entry[2] if entry is not None else inner
                    self._emit_stmt(f"{acc} = {self.use(value)}", owner)
                continue
            self._lower_op(inner)

    def _lower_if(self, op: Operation) -> None:
        if self.mode == "vector":
            raise LoweringError(
                "scf.if has no vector lowering; use arith.select "
                "(if-conversion happens in the frontend)")
        cond = self.use(op.operands[0])
        result_names = [self.fresh(r) for r in op.results]
        self.line(f"if {cond}:")
        self.indent += 1
        self._lower_branch(op.regions[0].entry, result_names)
        self.indent -= 1
        if len(op.regions) > 1:
            self.line("else:")
            self.indent += 1
            self._lower_branch(op.regions[1].entry, result_names)
            self.indent -= 1

    def _lower_branch(self, block: Block, result_names: List[str]) -> None:
        mark = len(self.lines)
        for inner in block.ops:
            if inner.name == "scf.yield":
                for name, value in zip(result_names, inner.operands):
                    entry = self.pending.get(id(value))
                    owner = entry[2] if entry is not None else inner
                    self._emit_stmt(f"{name} = {self.use(value)}", owner)
                continue
            self._lower_op(inner)
        if len(self.lines) == mark:
            self.line("pass")


def _sanitize(name: Optional[str]) -> Optional[str]:
    if name is None:
        return None
    cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_"
                      for ch in name)
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


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
        namespace[f"foreign_{_sanitize(fname)}"] = fn
    namespace.update(extra_globals or {})
    if kernel.code is None:
        kernel.code = compile(kernel.source, f"<lowered:{kernel.name}>",
                              "exec")
    exec(kernel.code, namespace)
    kernel.fn = namespace[kernel.name]
    return kernel


def lower_function(module: Module, sym_name: str,
                   mode: Optional[str] = None,
                   extra_globals: Optional[Dict] = None,
                   fuse: bool = True, arena: bool = False,
                   profile: bool = False) -> CompiledKernel:
    """Lower one function of ``module`` to an executable Python kernel.

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
    lowering = _FunctionLowering(func_op, mode, width, fuse=fuse,
                                 profile=profile)
    source = lowering.lower()
    entry = func_op.regions[0].entry
    arg_names = [a.name_hint or f"arg{i}" for i, a in enumerate(entry.args)]
    extra = dict(extra_globals or {})
    counters = None
    if profile:
        counters = [0.0] * len(lowering.provenance)
        extra["_prof"] = counters
        extra["_clock"] = _time.perf_counter
    kernel = _link(CompiledKernel(name=sym_name, fn=None, source=source,
                                  mode=mode, width=width,
                                  arg_names=arg_names, fused=fuse), extra)
    if profile:
        kernel.profile_counters = counters
        kernel.provenance = lowering.provenance
    return kernel
