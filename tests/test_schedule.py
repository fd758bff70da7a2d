"""The schedule decides, the printer spells, profiling only adds lines.

A kernel is lowered in two steps: :class:`repro.runtime.schedule.Schedule`
walks the post-pipeline function once, and the NumPy printer spells the
result.  Profile mode is the same schedule printed with each compute
statement clock-bracketed, so deleting the bracket lines must give back
the plain source, line for line.
"""

import re

import pytest

from repro.codegen import (generate_baseline, generate_gpu,
                           generate_limpet_mlir)
from repro.ir import IRBuilder, build_module
from repro.ir.dialects import arith, func, memref, scf
from repro.ir.passes import default_pipeline
from repro.ir.types import f64, index, memref_of
from repro.models import load_model
from repro.runtime import lower_function
from repro.runtime.schedule import Schedule

GENERATORS = {"scalar": generate_baseline,
              "vector": lambda m: generate_limpet_mlir(m, 8),
              "simt": generate_gpu}
#: the five tier-1 models; Campbell calls a foreign function, so only
#: its scalar kernel exists
CASES = [(model, mode) for model in ("FitzHughNagumo", "LuoRudy91",
                                     "Courtemanche", "OHara")
         for mode in GENERATORS] + [("Campbell", "scalar")]

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
