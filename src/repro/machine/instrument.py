"""IR instrumentation: operation and memory-traffic counts per cell.

The paper extracts memory operation counts "by instrumenting the
generated MLIR code of the ionic models" and flop counts from
performance counters (§4.5).  This module walks a generated kernel's IR
and produces both, normalized per simulated cell per time step; the
cost model and the roofline build on these counts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from ..ir.core import Module, Operation, op_info

#: flop equivalents of the transcendental classes, as performance
#: counters would retire them (SVML polynomial evaluations)
EXP_CLASS_FLOPS = 16.0
POW_CLASS_FLOPS = 32.0

#: an op row's ``cost`` class -> the counter it feeds (``none`` feeds
#: no counter; ops with a bespoke lowering are branches of ``_count_op``)
_COST_COUNTER = {"simple": "simple_fp", "div": "div_fp", "exp": "exp_class",
                 "pow": "pow_class", "int": "int_ops"}

#: default trip count assumed for loops with non-constant bounds
_DEFAULT_TRIP = 4.0


@dataclass
class KernelProfile:
    """Per-cell-iteration operation counts of one compute kernel.

    Counts are per *loop iteration* of the cell loop; one iteration
    covers ``width`` cells.  ``per_cell(attr)`` normalizes.
    """

    width: int = 1
    layout: str = "aos"
    parallel: bool = False
    simt: bool = False
    function: str = ""
    # instruction counts (per cell-loop iteration)
    simple_fp: float = 0.0
    div_fp: float = 0.0
    exp_class: float = 0.0
    pow_class: float = 0.0
    int_ops: float = 0.0
    selects: float = 0.0
    contiguous_loads: float = 0.0
    contiguous_stores: float = 0.0
    scalar_loads: float = 0.0
    scalar_stores: float = 0.0
    gathers: float = 0.0
    scatters: float = 0.0
    broadcasts: float = 0.0
    inserts_extracts: float = 0.0
    lut_calls_scalar: float = 0.0
    lut_calls_vector: float = 0.0
    #: columns summed over scalar calls (one call covers ONE lane)
    lut_columns_scalar: float = 0.0
    #: columns summed over vector calls (one call covers ALL lanes)
    lut_columns_vector: float = 0.0
    #: of those, the columns some op reads: the paper's vector routine
    #: fills the whole row, the NumPy runtime only these (DESIGN.md §6.5)
    lut_columns_live: float = 0.0
    other_calls: float = 0.0
    # pre-loop setup ops (hoisted; charged once per kernel invocation)
    setup_ops: float = 0.0

    # -- derived -------------------------------------------------------------------

    def per_cell(self, value: float) -> float:
        return value / self.width

    @property
    def flops_per_cell(self) -> float:
        """FP operations per cell per step (roofline x-axis numerator)."""
        lanes = float(self.width)
        lut_column_elements = (self.lut_columns_vector * lanes
                               + self.lut_columns_scalar)
        lut_index_elements = (self.lut_calls_vector * lanes
                              + self.lut_calls_scalar)
        per_iter = (self.simple_fp * lanes
                    + self.div_fp * lanes
                    + self.exp_class * lanes * EXP_CLASS_FLOPS
                    + self.pow_class * lanes * POW_CLASS_FLOPS
                    + lut_column_elements * 4.0        # interp mul/add
                    + lut_index_elements * 4.0)        # index computation
        return per_iter / lanes

    @property
    def bytes_per_cell(self) -> float:
        """Nominal DRAM/cache traffic per cell per step (8B doubles)."""
        lanes = float(self.width)
        lut_column_elements = (self.lut_columns_vector * lanes
                               + self.lut_columns_scalar)
        element_moves = ((self.contiguous_loads + self.contiguous_stores
                          + self.gathers + self.scatters) * lanes
                         + self.scalar_loads + self.scalar_stores
                         + lut_column_elements * 2.0)
        return element_moves * 8.0 / lanes

    @property
    def operational_intensity(self) -> float:
        bytes_ = self.bytes_per_cell
        return self.flops_per_cell / bytes_ if bytes_ else float("inf")

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), (int, float))}


def profile_kernel(module: Module, function_name: str) -> KernelProfile:
    """Instrument one kernel function; see :class:`KernelProfile`."""
    func_op = module.lookup_func(function_name)
    if func_op is None:
        raise ValueError(f"no function @{function_name}")
    profile = KernelProfile(function=function_name)
    _walk_function(func_op, profile)
    return profile


def _walk_function(func_op: Operation, profile: KernelProfile) -> None:
    entry = func_op.regions[0].entry
    _count_block(entry, profile, multiplier=0.0, in_cell_loop=False)


def _count_block(block, profile: KernelProfile, multiplier: float,
                 in_cell_loop: bool) -> None:
    for op in block.ops:
        if op.name == "omp.parallel":
            profile.parallel = True
            _count_block(op.regions[0].entry, profile, multiplier,
                         in_cell_loop)
            continue
        if op.name == "gpu.launch":
            profile.simt = True
            profile.parallel = True
            _count_block(op.regions[0].entry, profile, multiplier,
                         in_cell_loop)
            continue
        if op.name == "scf.for":
            if op.attributes.get("cell_loop"):
                profile.simt = profile.simt or \
                    bool(op.attributes.get("simt"))
                profile.width = int(op.attributes.get("vector_width", 1))
                profile.layout = str(op.attributes.get("layout", "aos"))
                profile.parallel = profile.parallel or \
                    bool(op.attributes.get("parallel"))
                _count_block(op.regions[0].entry, profile, 1.0, True)
            else:
                trip = _trip_count(op)
                _count_block(op.regions[0].entry, profile,
                             multiplier * trip if in_cell_loop else 0.0,
                             in_cell_loop)
            continue
        if op.name == "scf.if":
            # both branches execute under if-conversion / vector masks
            for region in op.regions:
                _count_block(region.entry, profile, multiplier,
                             in_cell_loop)
            continue
        if not in_cell_loop:
            profile.setup_ops += 1
            continue
        _count_op(op, profile, multiplier)


def _trip_count(op: Operation) -> float:
    bounds = []
    for operand in op.operands[:3]:
        owner = operand.owner
        if isinstance(owner, Operation) and owner.name == "arith.constant":
            bounds.append(owner.attributes["value"])
        else:
            return _DEFAULT_TRIP
    lb, ub, step = bounds
    if step <= 0:
        return _DEFAULT_TRIP
    return max(0.0, float(-(-(ub - lb) // step)))


def _count_op(op: Operation, profile: KernelProfile, m: float) -> None:
    name = op.name
    info = op_info(name)
    counter = _COST_COUNTER.get(info.cost) if info is not None else None
    if counter is not None:
        setattr(profile, counter, getattr(profile, counter) + m)
        if name == "arith.select":
            profile.selects += m
    elif name == "memref.load":
        profile.scalar_loads += m
    elif name == "memref.store":
        profile.scalar_stores += m
    elif name == "vector.load":
        profile.contiguous_loads += m
    elif name == "vector.store":
        profile.contiguous_stores += m
    elif name == "vector.gather":
        profile.gathers += m
    elif name == "vector.scatter":
        profile.scatters += m
    elif name == "vector.broadcast":
        profile.broadcasts += m
    elif name in ("vector.extract", "vector.insert", "vector.step"):
        profile.inserts_extracts += m
    elif name == "func.call":
        callee = op.attributes.get("callee", "")
        live = sum(1 for r in op.results if r.num_uses)
        if callee.startswith("LUT_interpRowSpline_n_elements_vec"):
            # cubic interpolation: 4 row gathers + a polynomial per
            # column, charged as twice the linear column work
            profile.lut_calls_vector += m
            profile.lut_columns_vector += 2.0 * m * len(op.results)
            profile.lut_columns_live += 2.0 * m * live
        elif callee.startswith("LUT_interpRowSpline"):
            profile.lut_calls_scalar += m
            profile.lut_columns_scalar += 2.0 * m * len(op.results)
        elif callee.startswith("LUT_interpRow_n_elements_vec"):
            profile.lut_calls_vector += m
            profile.lut_columns_vector += m * len(op.results)
            profile.lut_columns_live += m * live
        elif callee.startswith("LUT_interpRow"):
            profile.lut_calls_scalar += m
            profile.lut_columns_scalar += m * len(op.results)
        else:
            profile.other_calls += m
    elif name in ("memref.cast", "memref.view", "memref.dim",
                  "gpu.global_id", "gpu.grid_dim"):
        profile.int_ops += m
