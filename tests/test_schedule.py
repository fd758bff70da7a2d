"""The schedule decides, the printer spells, profiling only adds lines.

A kernel is lowered in two steps: :class:`repro.runtime.schedule.Schedule`
walks the post-pipeline function once, and the NumPy printer spells the
result.  Profile mode is the same schedule printed with each compute
statement clock-bracketed, so deleting the bracket lines must give back
the plain source, line for line.
"""

import re

import numpy as np
import pytest

from repro.codegen import generate_baseline, generate_limpet_mlir
from repro.ir import IRBuilder, build_module
from repro.ir.dialects import arith, func, memref, scf, vector
from repro.ir.dialects import math as math_dialect
from repro.ir.passes import default_pipeline
from repro.ir.types import f64, index, memref_of
from repro.models import load_model
from repro.runtime import lower_function
from repro.runtime.schedule import Schedule

from .pins import TIER1_MODELS

GENERATORS = {"scalar": generate_baseline,
              "vector": lambda m: generate_limpet_mlir(m, 8)}
#: the five tier-1 models; Campbell calls a foreign function, so only
#: its scalar kernel exists
CASES = [(model, mode) for model in TIER1_MODELS for mode in GENERATORS
         if (model, mode) != ("Campbell", "vector")]

#: the two lines profiling adds around a statement (group 2: its slot)
_BRACKET = re.compile(
    r"\s*(_pt = _clock\(\)|_prof\[(\d+)\] \+= _clock\(\) - _pt)$")


@pytest.mark.parametrize("model,mode", CASES)
def test_profiling_only_adds_lines(model, mode):
    generated = GENERATORS[mode](load_model(model))
    module = generated.module
    default_pipeline(verify_each=False).run(module, fixed_point=True)
    name = generated.spec.function_name
    plain = lower_function(module, name)
    profiled = lower_function(module, name, profile=True)
    assert plain.mode == mode and profiled.mode == mode
    kept, slots = [], []
    for line in profiled.source.splitlines():
        match = _BRACKET.match(line)
        if match is None:
            kept.append(line)
        elif match.group(2) is not None:
            slots.append(int(match.group(2)))
    assert kept == plain.source.splitlines()
    # one record and one counter per bracketed statement, in order
    assert slots == list(range(len(profiled.provenance)))
    assert profiled.source.count("_pt = _clock()") == len(slots)
    assert len(profiled.profile_counters) == len(slots)
    assert all(set(record) == {"index", "op", "dialect", "text", "detail"}
               for record in profiled.provenance)


def _sum_function():
    """total(buf, n) = sum of buf[i] for i < n, over scf.for iter_args."""
    module, _ = build_module()
    fn = func.func(module, "total", [memref_of(f64), index], [f64],
                   ["buf", "n"])
    b = IRBuilder(fn.entry)
    loop = scf.for_op(b, b.constant(0, index), fn.args[1],
                      b.constant(1, index), [b.constant(-0.5, f64)])
    with b.at_end_of(loop.body):
        value = memref.load(b, fn.args[0], [loop.induction_var])
        scf.yield_op(b, [arith.addf(b, loop.iter_args[0], value)])
    func.ret(b, [loop.results[0]])
    return module


def test_schedule_records_statements_names_and_fusion():
    func_op = _sum_function().lookup_func("total")
    schedule = Schedule(func_op, "scalar", 1)
    assert schedule.args == ["buf", "n"]
    rows = [(s.depth, s.op.name if s.op else None, s.targets, s.kind,
             s.compute) for s in schedule.stmts]
    assert rows == [
        (1, "scf.for", ("iter0",), "value", False),   # the carried init
        (1, "scf.for", ("i",), "op", False),          # the loop header
        (2, "memref.load", ("v4",), "op", True),
        (2, "arith.addf", ("iter0",), "value", True),  # the fused yield
        (1, "func.return", (), "op", False)]
    # constants and the single-use sum are spelled where they are used
    add = next(op for op in func_op.walk() if op.name == "arith.addf")
    assert id(add.results[0]) in schedule.fused
    assert not schedule.access and not schedule.uses_lanes
    source = lower_function(_sum_function(), "total").source
    assert "iter0 = (-0.5)" in source and "iter0 = (iter0 + v4)" in source


def test_unfused_schedule_names_every_value():
    func_op = _sum_function().lookup_func("total")
    schedule = Schedule(func_op, "scalar", 1, fuse=False)
    assert not schedule.fused
    bound = [s.targets[0] for s in schedule.stmts
             if s.op is not None and s.op.name == "arith.constant"]
    assert bound == ["v2", "v3", "v4"]


# -- packed statements --------------------------------------------------------

#: lanes per block and state slots per cell of the hand-built kernel
W, SLOTS = 4, 8


def _packing_function(members):
    """step(start, end, sv, k): an AoSoA cell loop over ``SLOTS`` slots
    that loads slots 0..3 as ``x``, computes ``members`` (each
    ``(b, x, done, k) -> value``, given the builder, the loads, the
    values computed so far and ``k``), stores value j to slot 4 + j and
    their sum to slot 7 (so each value has two uses: a statement)."""
    module, _ = build_module()
    fn = func.func(module, "step", [index, index, memref_of(f64), f64], [],
                   ["start", "end", "sv", "k"])
    b = IRBuilder(fn.entry)
    loop = scf.for_op(b, fn.args[0], fn.args[1], b.constant(W, index))
    loop.op.attributes.update({"cell_loop": True, "vector_width": W})
    with b.at_end_of(loop.body):
        base = arith.muli(b, loop.induction_var, b.constant(SLOTS, index))

        def at(slot):
            return [arith.addi(b, base, b.constant(slot * W, index))]
        x = [vector.load(b, fn.args[2], at(j), W) for j in range(4)]
        done = []
        for member in members:
            done.append(member(b, x, done, vector.broadcast(b, fn.args[3], W)))
        for j, value in enumerate(done):
            vector.store(b, value, fn.args[2], at(4 + j))
        total = done[0]
        for value in done[1:]:
            total = arith.addf(b, total, value)
        vector.store(b, total, fn.args[2], at(7))
        scf.yield_op(b)
    func.ret(b)
    return module


def _scaled_exp(c, j):
    """``c * exp(x_j) + k``: one member per ``(c, j)``."""
    def member(b, x, done, k):
        scale = vector.broadcast(b, b.constant(c, f64), W)
        return arith.addf(b, arith.mulf(b, scale, math_dialect.exp(b, x[j])),
                          k)
    return member


def _member_values(module):
    """The values the hand-built kernel stores to slots 4, 5, 6."""
    stores = [op for op in module.lookup_func("step").walk()
              if op.name == "vector.store"]
    return [op.operands[0] for op in stores[:3]]


def _packs(module):
    return Schedule(module.lookup_func("step"), "vector", W).packs


def _runs_like_unpacked(module):
    """The packed kernel and the ``fuse=False`` one (which packs
    nothing) leave bitwise-equal state behind, on 3 blocks (the packs
    run packed) and on 600 (they run lane by lane)."""
    rng = np.random.default_rng(7)
    for blocks in (3, 600):
        state = rng.uniform(0.1, 0.9, blocks * W * SLOTS)
        results = []
        for fuse in (True, False):
            sv = state.copy()
            lower_function(module, "step", fuse=fuse)(0, blocks * W, sv,
                                                      0.25)
            results.append(sv)
        assert np.array_equal(*results)


def test_three_isomorphic_statements_pack():
    module = _packing_function([_scaled_exp(c, j) for j, c in
                                enumerate((0.5, 1.5, 2.5))])
    loads, exps, stores = _packs(module)
    assert [len(p.members) for p in (loads, exps, stores)] == [4, 3, 3]
    assert (loads.slot, stores.slot) == (0, 4)
    kinds = sorted(leaf.kind for leaf in exps.leaves.values())
    assert kinds == ["column", "lanes", "shared"]
    column = next(l for l in exps.leaves.values() if l.kind == "column")
    assert [v.op.attributes["value"] for v in column.values] \
        == [0.5, 1.5, 2.5]
    # the store pack reads the lanes as a slice, the sum by name
    assert exps.lanes == ["v9", "v10", "v11"]
    lines = lower_function(module, "step").source.splitlines()
    assert lines[0] == "_pk1_c0 = _column((0.5, 1.5, 2.5))"
    assert "    _packed = _nb <= 512" in lines      # 64 KiB / (4 x 4 x 8)
    start = lines.index("        _pk1 = ((_pk1_c0 * np.exp(_pk0[0:3])) + k)")
    assert lines[start - 1:start + 13] == [
        "    if _packed:",
        "        _pk1 = ((_pk1_c0 * np.exp(_pk0[0:3])) + k)",
        "    else:",
        "        _pk1 = []",
        "        for _k in range(3):",
        "            _pk1.append(((_pk1_c0[_k] * np.exp(_pk0[_k])) + k))",
        "    v9, v10, v11, = _pk1",
        "    if _packed:",
        "        _sv_b0.reshape(_nb, 8, 4)[:, 4:7].transpose(1, 0, 2)[...] "
        "= _pk1",
        "    else:",
        "        for _k, _to in enumerate("
        "_sv_b0.reshape(_nb, 8, 4)[:, 4:7].transpose(1, 0, 2)):",
        "            _to[...] = _pk1[_k]",
        "    _sv_b0[:, 28:32] = ((v9 + v10) + v11)",
        "    return"]
    _runs_like_unpacked(module)


def test_a_member_reading_another_member_is_left_out():
    def reads_member(b, x, done, k):
        scale = vector.broadcast(b, b.constant(3.5, f64), W)
        return arith.addf(b, arith.mulf(b, scale, math_dialect.exp(
            b, done[1])), k)
    module = _packing_function([_scaled_exp(0.5, 0), _scaled_exp(1.5, 1),
                                reads_member])
    exps = _packs(module)[1]
    assert [m.op for m in exps.members] == [
        v.op for v in _member_values(module)[:2]]
    _runs_like_unpacked(module)


def test_a_member_with_another_leaf_kind_is_left_out():
    def reads_constant(b, x, done, k):
        scale = vector.broadcast(b, b.constant(2.5, f64), W)
        two = vector.broadcast(b, b.constant(2.0, f64), W)
        return arith.addf(b, arith.mulf(b, scale, math_dialect.exp(b, two)),
                          k)
    module = _packing_function([_scaled_exp(0.5, 0), reads_constant,
                                _scaled_exp(1.5, 1)])
    exps = _packs(module)[1]
    values = _member_values(module)
    assert [m.op for m in exps.members] == [values[0].op, values[2].op]
    _runs_like_unpacked(module)


def test_a_member_recomputes_a_named_value_in_lane():
    """Stores of ``c * exp(x_j) + k`` pack although the third reads
    ``e = exp(x_2)`` by name (``e`` has a second reader): its lane
    recomputes ``exp``, and ``e`` keeps its statement for that reader."""
    module, _ = build_module()
    fn = func.func(module, "step", [index, index, memref_of(f64), f64], [],
                   ["start", "end", "sv", "k"])
    b = IRBuilder(fn.entry)
    loop = scf.for_op(b, fn.args[0], fn.args[1], b.constant(W, index))
    loop.op.attributes.update({"cell_loop": True, "vector_width": W})
    with b.at_end_of(loop.body):
        base = arith.muli(b, loop.induction_var, b.constant(SLOTS, index))

        def at(slot):
            return [arith.addi(b, base, b.constant(slot * W, index))]
        x = [vector.load(b, fn.args[2], at(j), W) for j in range(3)]
        k = vector.broadcast(b, fn.args[3], W)
        e = math_dialect.exp(b, x[2])
        for j, c in enumerate((0.5, 1.5, 2.5)):
            scale = vector.broadcast(b, b.constant(c, f64), W)
            exp = e if j == 2 else math_dialect.exp(b, x[j])
            vector.store(b, arith.addf(b, arith.mulf(b, scale, exp), k),
                         fn.args[2], at(4 + j))
        vector.store(b, arith.mulf(b, e, e), fn.args[2], at(7))
        scf.yield_op(b)
    func.ret(b)
    loads, stores = _packs(module)
    assert len(stores.members) == 3
    source = lower_function(module, "step").source
    assert "(_pk1_c0 * np.exp(_pk0)) + k)" in source
    # e's statement still reads lane 2 of the loads by name
    assert "    _, _, v7, = _pk0\n    v8 = np.exp(v7)\n" in source
    assert "_sv_b0[:, 28:32] = (v8 * v8)" in source
    _runs_like_unpacked(module)


def test_lanes_read_out_of_order_do_not_pack():
    """Members reading load lanes 0 and 2 are no run: a pack reads
    consecutive lanes of one earlier pack only."""
    module = _packing_function([_scaled_exp(0.5, 0), _scaled_exp(1.5, 2)])
    assert len(_packs(module)) == 1          # the loads
    _runs_like_unpacked(module)


def test_shared_leaves_stay_scalars():
    module = _packing_function([_scaled_exp(0.5, j) for j in range(3)])
    exps = _packs(module)[1]
    assert sorted(leaf.kind for leaf in exps.leaves.values()) \
        == ["lanes", "shared", "shared"]
    source = lower_function(module, "step").source
    assert "        _pk1 = ((0.5 * np.exp(_pk0[0:3])) + k)\n" in source
    assert "_column" not in source
    _runs_like_unpacked(module)


def test_profile_brackets_a_pack_once():
    module = _packing_function([_scaled_exp(c, j) for j, c in
                                enumerate((0.5, 1.5, 2.5))])
    profiled = lower_function(module, "step", profile=True)
    records = [r for r in profiled.provenance
               if (r["detail"] or "").startswith("pack ")]
    assert [(r["op"], r["detail"]) for r in records] == [
        ("vector.load", "pack 4"), ("arith.addf", "pack 3"),
        ("vector.store", "pack 3")]
    assert profiled.source.count("_pt = _clock()") == len(
        profiled.provenance)
    plain = lower_function(module, "step").source.splitlines()
    kept = [line for line in profiled.source.splitlines()
            if _BRACKET.match(line) is None]
    assert kept == plain
