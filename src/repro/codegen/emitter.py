"""The one kernel emitter and its per-target table.

The paper's Listing 2 (limpetC++) and Listing 3 (limpetMLIR) are the
same compute function — bind externals, load state, interpolate LUT
rows, evaluate, integrate, store — differing only in the loop around
it, the width of a value, the accessor the state layout selects and
the LUT call shape.  :func:`emit_kernel` is that function, written
once; a :class:`Target` row holds what differs:

* the loop shell — ``scf.for`` step 1 (``baseline``), ``omp.parallel`` +
  ``scf.for`` step W (``limpet_mlir``, ``icc_simd``, ``plugin``),
  ``gpu.launch`` grid-stride (``gpu``);
* element access — scalar ``memref`` or ``vector``; with the state
  layout it selects the state accessor: scalar AoS / SoA, vector
  AoS-gather / SoA / AoSoA (§3.4.1), each one address function serving
  both the load and the store side;
* how externals are bound and outputs written back — plain, or the
  plugin's parent-masked gather / accumulate-scatter (plus its extra
  ``parent_*`` arguments);
* the LUT call shape — scalar, vector, or ``icc_simd``'s lane-serialised.

The printed *pre-pipeline* module is a contract: the stores key a kernel
by its :class:`~repro.codegen.common.CompileRequest`, not by this text,
which is only sound while the same request always prints the same bytes.
``tools/ir_fingerprints.py --check`` holds them; a change that moves any
bumps :data:`~repro.codegen.common.GENERATOR_VERSION`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Callable, ContextManager, Dict, Iterator, List,
                    NamedTuple, Tuple)

from ..easyml.ast_nodes import Call, walk_expr
from ..frontend.model import IonicModel
from ..ir.builder import IRBuilder
from ..ir.core import Module, Value
from ..ir.dialects import (arith, func as func_dialect, gpu, memref, omp,
                           scf, vector as vector_dialect)
from ..ir.types import IRType, f64, i1, index, memref_of
from ..obs import trace as _trace
from .common import BackendMode, ExprEmitter, KernelSpec
from .integrators import emit_state_updates
from .layout import LayoutKind
from .lut import (LUT_MEMREF, SCALAR_LUT, SERIALIZED_LUT, VECTOR_LUT,
                  LutShape, declare_interp_functions)

STATE_MEMREF = EXT_MEMREF = memref_of(f64)
MAP_MEMREF = memref_of(index)

#: CUDA-style launch geometry: enough resident threads to cover the
#: paper's 8192-cell meshes in one stride
DEFAULT_BLOCK_SIZE = 128
DEFAULT_GRID_SIZE = 64


class _Kernel:
    """One kernel under construction: what the table's functions share.

    The loop shell fills in ``i`` (the first cell of this iteration),
    ``n_states`` (an index constant, CPU shells only) and ``dt`` (at the
    working width)."""

    def __init__(self, spec: KernelSpec, target: "Target", b: IRBuilder,
                 args: Dict[str, Value]):
        self.spec, self.b, self.args = spec, b, args
        #: (load, store) of one value per cell from a per-cell linear
        #: array (externals, promoted parameters)
        self.linear = (_vload, _vstore) if target.vector \
            else (_mload, _mstore)
        self.model, self.width = spec.model, spec.width
        self.end = args["end"]
        self.env: Dict[str, Value] = {}
        self.i = self.n_states = self.dt = None


# -- loop shells ---------------------------------------------------------------------


@contextmanager
def _cell_loop(k: _Kernel, lower: Value, step: Value,
               kind: str) -> Iterator[None]:
    """The ``scf.for`` over cells, tagged for the passes and the lowering."""
    loop = scf.for_op(k.b, lower, k.end, step, iv_hint="i")
    loop.op.attributes.update({"cell_loop": True, "vector_width": k.width,
                               "layout": str(k.spec.layout), kind: True})
    k.i = loop.induction_var
    with k.b.at_end_of(loop.body):
        yield
        scf.yield_op(k.b)


@contextmanager
def _scalar_for(k: _Kernel) -> Iterator[None]:
    """Listing 2: ``#pragma omp parallel for`` over single cells;
    vectorization is left to "the compiler", i.e. it does not happen."""
    one = k.b.constant(1, index)
    k.n_states = k.b.constant(k.model.n_states, index)
    k.dt = k.args["dt"]
    with _cell_loop(k, k.args["start"], one, "parallel"):
        yield


@contextmanager
def _omp_vector_for(k: _Kernel) -> Iterator[None]:
    """Listing 3: the loop steps by the vector width, one cell per lane."""
    b = k.b
    step = b.constant(k.width, index)
    k.n_states = b.constant(k.model.n_states, index)
    # Broadcast loop-invariant scalars once; LICM would hoist them anyway.
    k.dt = vector_dialect.broadcast(b, k.args["dt"], k.width)
    par = omp.parallel(b, schedule="static")
    with b.at_end_of(par.body):
        b.set_insertion_point_before(par.body.terminator)
        with _cell_loop(k, k.args["start"], step, "parallel"):
            yield


@contextmanager
def _gpu_grid_stride(k: _Kernel, grid_size: int = DEFAULT_GRID_SIZE,
                     block_size: int = DEFAULT_BLOCK_SIZE) -> Iterator[None]:
    """SIMT (§7): each thread owns one cell per stride, scalar code —
    ``for (i = start + tid; i < end; i += stride)``."""
    b = k.b
    k.dt = k.args["dt"]
    launch = gpu.launch(b, grid_size, block_size)
    with b.at_end_of(launch.body):
        b.set_insertion_point_before(launch.body.terminator)
        tid = gpu.global_id(b)
        stride = gpu.grid_dim(b)
        first = arith.addi(b, k.args["start"], tid)
        with _cell_loop(k, first, stride, "simt"):
            yield


# -- element access ------------------------------------------------------------------


def _mload(b, ref, idx, width):
    return memref.load(b, ref, [idx])


def _mstore(b, value, ref, idx):
    memref.store(b, value, ref, [idx])


def _vload(b, ref, idx, width):
    return vector_dialect.load(b, ref, [idx], width)


def _vstore(b, value, ref, idx):
    vector_dialect.store(b, value, ref, [idx])


def _gather(b, ref, idx, width):
    return vector_dialect.gather(b, ref, idx)


# -- state addresses: where (cell i.., slot) lives, per layout ------------------------
#
# Each function emits its layout's per-iteration prelude and returns
# ``slot -> index value``; the same function serves loads and stores.


def _blocked(k: _Kernel) -> Callable[[int], Value]:
    """AoS (block 1, Listing 2's ``sv = sv_base + __i``) and AoSoA
    (block W): lanes of one slot are contiguous and i is a block start,
    so offset = i*n_states + slot*block (the ``memref.view`` +
    ``load_struct_to_vec`` pattern of Listing 3)."""
    b, block = k.b, k.spec.layout.block
    base = arith.muli(b, k.i, k.n_states)
    return lambda slot: arith.addi(b, base, b.constant(slot * block, index))


def _aos_gather(k: _Kernel) -> Callable[[int], Value]:
    """Vector over AoS: the same slot of consecutive cells is n_states
    apart, so an index vector (i + lane)*n_states + slot."""
    b, width = k.b, k.width
    lanes = vector_dialect.step(b, width)
    stride = vector_dialect.broadcast(b, k.n_states, width)
    lane_offsets = arith.muli(b, lanes, stride)
    base = arith.muli(b, k.i, k.n_states)

    def at(slot: int) -> Value:
        scalar_base = arith.addi(b, base, b.constant(slot, index))
        return arith.addi(b, vector_dialect.broadcast(b, scalar_base, width),
                          lane_offsets)
    return at


def _soa_vector(k: _Kernel) -> Callable[[int], Value]:
    """SoA: slot s of cells i..i+W-1 sits at s*n_alloc + i.  The slot
    stride is the ``end`` argument — SoA kernels are only valid over the
    whole allocation (end == n_alloc), which the runtime guarantees by
    refusing to shard them."""
    b = k.b
    return lambda slot: arith.addi(
        b, arith.muli(b, k.end, b.constant(slot, index)), k.i)


def _soa_scalar(k: _Kernel) -> Callable[[int], Value]:
    """SoA per thread (coalescing wants consecutive threads on
    consecutive cells of one variable — the GPU analog of §3.4.1)."""
    b = k.b
    return lambda slot: arith.addi(
        b, arith.muli(b, b.constant(slot, index), k.end), k.i)


class _StateAccess(NamedTuple):
    address: Callable[[_Kernel], Callable[[int], Value]]
    load: Callable[..., Value]
    store: Callable[..., None]


_STATE_ACCESS = {
    (False, LayoutKind.AOS): _StateAccess(_blocked, _mload, _mstore),
    (False, LayoutKind.SOA): _StateAccess(_soa_scalar, _mload, _mstore),
    (True, LayoutKind.AOS): _StateAccess(_aos_gather, _gather,
                                         vector_dialect.scatter),
    (True, LayoutKind.SOA): _StateAccess(_soa_vector, _vload, _vstore),
    (True, LayoutKind.AOSOA): _StateAccess(_blocked, _vload, _vstore),
}


# -- externals: bind on entry, write outputs back on exit -------------------------------


@contextmanager
def _plain_externals(k: _Kernel) -> Iterator[None]:
    """Per-cell linear arrays, whatever the state layout (Listing 2,
    lines 5 and 31)."""
    load, store = k.linear
    for ext in k.model.externals:
        k.env[ext] = load(k.b, k.args[f"{ext}_ext"], k.i, k.width)
    yield
    for ext in k.model.outputs:
        store(k.b, k.env[ext], k.args[f"{ext}_ext"], k.i)


def _parent_args(model: IonicModel) -> List[Tuple[str, IRType]]:
    return [("parent_map", MAP_MEMREF)] + \
        [(f"parent_{ext}", EXT_MEMREF) for ext in model.externals]


@contextmanager
def _parent_externals(k: _Kernel) -> Iterator[None]:
    """Multimodel (§3.3.2): "conditionally accessing data from the parent
    through MLIR gather and scatter operations".

    ``parent_map[i] >= 0`` — lane i reads from, and accumulates its
    outputs into, parent cell ``parent_map[i]``; ``< 0`` — it "falls
    through the common local variable storage"."""
    b, width, args, env = k.b, k.width, k.args, k.env
    parent_idx = _vload(b, args["parent_map"], k.i, width)
    zero_idx = vector_dialect.broadcast(b, b.constant(0, index), width)
    has_parent = arith.cmpi(b, "sge", parent_idx, zero_idx)
    for ext in k.model.externals:
        local = _vload(b, args[f"{ext}_ext"], k.i, width)
        env[ext] = vector_dialect.gather(b, args[f"parent_{ext}"],
                                         parent_idx, mask=has_parent,
                                         pass_thru=local)
    yield
    # read-modify-write, so the plugin *adds* its current to whatever the
    # parent model already computed; unparented lanes write locally
    for ext in k.model.outputs:
        zero_f = vector_dialect.broadcast(b, b.constant(0.0, f64), width)
        parent_now = vector_dialect.gather(b, args[f"parent_{ext}"],
                                           parent_idx, mask=has_parent,
                                           pass_thru=zero_f)
        summed = arith.addf(b, parent_now, env[ext])
        vector_dialect.scatter(b, summed, args[f"parent_{ext}"], parent_idx,
                               mask=has_parent)
        true_vec = vector_dialect.broadcast(b, b.constant(True, i1), width)
        local_mask = b.create("arith.xori", [has_parent, true_vec],
                              [has_parent.type]).result
        own_now = _vload(b, args[f"{ext}_ext"], k.i, width)
        merged = arith.select(b, local_mask, env[ext], own_now)
        _vstore(b, merged, args[f"{ext}_ext"], k.i)


# -- the table -----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """Everything that differs between the generated kernels."""

    name: str                    # module suffix and ``irgen`` span backend
    mode: BackendMode            # what the cost models price it as
    symbol: str                  # default kernel name is <symbol>_<model>
    shell: Callable[..., ContextManager[None]]
    vector: bool                 # element access: memref scalar / vector
    externals: Callable[[_Kernel], ContextManager[None]]
    lut: LutShape
    extra_args: Callable[[IonicModel], List[Tuple[str, IRType]]] = \
        lambda model: []


BASELINE = Target("baseline", BackendMode.BASELINE, "compute",
                  _scalar_for, False, _plain_externals, SCALAR_LUT)
LIMPET_MLIR = Target("limpet_mlir", BackendMode.LIMPET_MLIR, "compute",
                     _omp_vector_for, True, _plain_externals, VECTOR_LUT)
ICC_SIMD = Target("icc_simd", BackendMode.ICC_SIMD, "compute",
                  _omp_vector_for, True, _plain_externals, SERIALIZED_LUT)
GPU = Target("gpu", BackendMode.LIMPET_MLIR, "compute_gpu",
             _gpu_grid_stride, False, _plain_externals, SCALAR_LUT)
PLUGIN = Target("plugin", BackendMode.LIMPET_MLIR, "compute_plugin",
                _omp_vector_for, True, _parent_externals, VECTOR_LUT,
                _parent_args)


# -- the emitter ---------------------------------------------------------------------


def emit_kernel(spec: KernelSpec, target: Target, **launch) -> Module:
    """Emit ``spec``'s compute kernel for ``target``; ``launch`` goes to
    the loop shell (the GPU launch geometry)."""
    model = spec.model
    with _trace.span("irgen", model=model.name, backend=target.name,
                     width=spec.width):
        module = Module(f"{model.name}_{target.name}")
        spline = spec.lut_interpolation == "spline"
        tables = model.lut_tables if spec.use_lut else []
        declare_interp_functions(module, tables, target.lut.vectorized,
                                 spec.width, spline)
        _declare_foreign_functions(module, model)

        extra = target.extra_args(model)
        names = spec.argument_names() + [name for name, _ in extra]
        types = [index, index, f64, f64, STATE_MEMREF]
        types += [EXT_MEMREF] * (len(model.externals)
                                 + len(model.promoted_params))
        types += [LUT_MEMREF] * len(tables) + [ty for _, ty in extra]
        kernel = func_dialect.func(module, spec.function_name, types, [],
                                   arg_hints=names)
        b = IRBuilder(kernel.entry)
        k = _Kernel(spec, target, b, dict(zip(names, kernel.args)))
        env, sv, width = k.env, k.args["sv"], spec.width
        state = _STATE_ACCESS[target.vector, spec.layout.kind]

        with target.shell(k, **launch), target.externals(k):
            # Promoted parameters are per-cell linear arrays too (the
            # population layer broadcasts instance values over cells).
            for pname in model.promoted_params:
                env[pname] = k.linear[0](b, k.args[f"param_{pname}"], k.i,
                                         width)
            at = state.address(k)
            for slot, name in enumerate(model.states):
                env[name] = state.load(b, sv, at(slot), width)
            # Compute lookup tables (Listing 2, lines 6-8).
            for table in tables:
                target.lut.emit(b, table, k.args[f"lut_{table.var}"],
                                env[table.var], env, width, spline)
            lut_served = {column for table in tables
                          for column in table.column_names}
            emitter = ExprEmitter(b, env, width=width,
                                  foreign=model.foreign_functions)
            # Constant-qualified values the preprocessor folded (§3.2) are
            # still nameable (e.g. a constant gate time constant); bind
            # them as constants — DCE erases the unused ones, LICM hoists
            # the used ones.
            for const_name, const_value in {**model.params,
                                            **model.folded_constants}.items():
                if const_name not in model.promoted_params:
                    env[const_name] = emitter._const(const_value)
            # Compute storevars and external modvars.
            for comp in model.computations:
                if comp.target not in lut_served:
                    env[comp.target] = emitter.emit(comp.expr)
            # Complete the integration updates, then write the state back.
            new_values = emit_state_updates(b, model, env, width=width,
                                            dt=k.dt)
            if target.vector:
                # the vector walkers re-derived the layout prelude before
                # the stores and the printed module is pinned (CSE folds
                # the copy away in the pipeline)
                at = state.address(k)
            for slot, name in enumerate(model.states):
                state.store(b, new_values[name], sv, at(slot))
        func_dialect.ret(b)
    return module


def _declare_foreign_functions(module: Module, model: IonicModel) -> None:
    """``func.func private`` declarations for foreign (external C) calls.

    Only the baseline target ever meets one: every other entry point
    refuses a foreign model before the emitter runs."""
    arities: Dict[str, int] = {}
    exprs = [c.expr for c in model.computations]
    exprs += list(model.diffs.values())
    for expr in exprs:
        for node in walk_expr(expr):
            if isinstance(node, Call) and \
                    node.callee in model.foreign_functions:
                arities[node.callee] = len(node.args)
    for name, arity in sorted(arities.items()):
        func_dialect.func(module, f"foreign_{name}", [f64] * arity, [f64],
                          declaration=True)
