"""Remainder-lane differential tests: every layout x width, ragged.

The autotuner freely swaps (width, layout, lut) variants under a user's
workload, so every point of that space must be *bitwise* exchangeable.
These tests pick cell counts with ``n_cells % width != 0`` — the padded
remainder block is where layout addressing bugs live — and require the
lowered kernel to agree bitwise (``rtol=0, atol=0``) with the scalar IR
interpreter walking the identical module, plus within solver tolerance
of the scalar baseline backend.

Between them the cases hit every addressing mode of the lowering
(DESIGN.md §6.2): unit-stride slices (AoSoA and SoA state, externals,
``param_*`` arrays), strided slices (AoS state) and — through an index
the analysis cannot prove — indexed gathers, over whole allocations and
over a shard's ``(start, end)`` sub-range.
"""

import numpy as np
import pytest

from repro.codegen import generate_baseline, generate_limpet_mlir
from repro.codegen.layout import LayoutKind
from repro.frontend import load_model
from repro.ir.builder import IRBuilder
from repro.ir.core import Module
from repro.ir.dialects import arith, func as func_dialect, scf
from repro.ir.dialects import vector as vector_dialect
from repro.ir.types import f64, index, memref_of
from repro.models import ALL_MODELS
from repro.models.registry import load_model as load_registry_model
from repro.runtime import (KernelRunner, compare_trajectories,
                           lower_function)
from repro.runtime.interpreter import Interpreter
from repro.runtime.schedule import analyze_accesses

from tests.conftest import GATE_SOURCE

LAYOUTS = [kind.value for kind in LayoutKind]

#: ragged cell counts: one remainder lane, half a block, block-1
_RAGGED = {2: 7, 4: 13, 8: 13}


def _kernel_args(runner, state, dt, start, end):
    args = [start, end, dt, state.time, state.sv]
    args += [state.externals[ext] for ext in runner.model.externals]
    args += [state.params[p] for p in runner.model.promoted_params]
    if runner.spec.use_lut:
        args += runner.luts_for(dt)
    return args


def _run_both(generated, n_cells, n_steps=4, dt=0.01, bounds=None,
              optimize=False, param_values=None):
    """The lowered kernel and the interpreter over the same module,
    each stepping ``bounds`` (default: the whole allocation)."""
    lowered = KernelRunner(generated, optimize=optimize)
    interpreter = Interpreter(generated.module)
    name = generated.spec.function_name
    fast, slow = (lowered.make_state(n_cells, perturbation=0.01,
                                     param_values=param_values)
                  for _ in range(2))
    start, end = bounds or (0, fast.n_alloc)
    for _ in range(n_steps):
        lowered.kernel.fn(*_kernel_args(lowered, fast, dt, start, end))
        interpreter.call(name, *_kernel_args(lowered, slow, dt, start, end))
    return fast, slow


class TestRaggedLayoutsBitwise:
    """Lowered == interpreter, bitwise, on ragged cell counts."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_layout_width_matches_interpreter(self, gate_model, layout,
                                              width):
        n_cells = _RAGGED[width]
        assert n_cells % width != 0
        generated = generate_limpet_mlir(gate_model, width, layout=layout)
        fast, slow = _run_both(generated, n_cells)
        comparison = compare_trajectories(fast, slow, rtol=0, atol=0)
        assert comparison, (
            f"w{width}/{layout}: {comparison.describe()}")

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_lut_off_matches_interpreter(self, gate_model, layout):
        generated = generate_limpet_mlir(gate_model, 8, layout=layout,
                                         use_lut=False)
        fast, slow = _run_both(generated, 13)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)

    def test_registry_model_ragged(self, luo_rudy):
        for layout in sorted(LAYOUTS):
            generated = generate_limpet_mlir(luo_rudy, 8, layout=layout)
            fast, slow = _run_both(generated, 13, n_steps=3)
            assert compare_trajectories(fast, slow, rtol=0, atol=0), layout


class TestShardRangesBitwise:
    """A shard's ``(start, end)`` sub-range: the block views start at
    ``a*start``, and cells outside the range stay untouched."""

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_sub_range_matches_interpreter(self, gate_model, layout, width,
                                           optimize):
        generated = generate_limpet_mlir(gate_model, width, layout=layout)
        n_cells = 4 * width + _RAGGED[width] % width
        n_alloc = -(-n_cells // width) * width
        # SoA's slot stride is ``end``: its shards end at the allocation
        end = n_alloc if layout == "soa" else 3 * width
        fast, slow = _run_both(generated, n_cells, bounds=(width, end),
                               optimize=optimize)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)
        untouched = fast.state_matrix()[:width]
        fresh = KernelRunner(generated).make_state(
            n_cells, perturbation=0.01).state_matrix()[:width]
        assert np.array_equal(untouched, fresh)

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_out_of_range_end_raises(self, gate_model, layout):
        runner = KernelRunner(generate_limpet_mlir(gate_model, 8,
                                                   layout=layout))
        state = runner.make_state(16)
        before = state.sv.copy()
        with pytest.raises((IndexError, ValueError)):
            runner.kernel.fn(*_kernel_args(runner, state, 0.01, 8,
                                           state.n_alloc + 8))
        with pytest.raises((IndexError, ValueError)):
            runner.kernel.fn(*_kernel_args(runner, state, 0.01,
                                           state.n_alloc, 2 * state.n_alloc))
        assert np.array_equal(state.sv, before)


class TestPopulationParamsBitwise:
    """Promoted ``param_*`` arrays are unit-stride loads like externals."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_param_loads_match_interpreter(self, layout, width):
        model = load_model(GATE_SOURCE, "GateTest", promote_params=("GNa",))
        generated = generate_limpet_mlir(model, width, layout=layout)
        n_cells = _RAGGED[width]
        values = {"GNa": np.linspace(5.0, 40.0, n_cells)}
        fast, slow = _run_both(generated, n_cells, optimize=True,
                               param_values=values)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)
        accesses = analyze_accesses(
            generated.module.lookup_func(generated.spec.function_name))
        assert {a.mode for a in accesses.values()} == \
            ({"unit", "strided"} if layout == "aos" else {"unit"})


#: two states that read each other, and a three-state Markov-style ring:
#: every update's right-hand side reads a state an earlier store of the
#: same step has already overwritten in memory
ALIAS_SOURCE = """
Vm; .external();
Iion; .external();
diff_a = b - a;
diff_b = a - b;
a_init = 1.0;
b_init = -2.0;
diff_r1 = 2.0*r3 - 3.0*r1;
diff_r2 = 3.0*r1 - 5.0*r2;
diff_r3 = 5.0*r2 - 2.0*r3;
r1_init = 0.7;
r2_init = 0.2;
r3_init = 0.1;
Iion = a + b + r1 + r2 + r3 + 0.0*Vm;
"""


class TestLoadsDoNotAliasStores:
    """A load is a copy: were it a view of the state buffer, a store
    earlier in the same step would show through to later right-hand
    sides.  The interpreter loads by value, so it is the reference."""

    @pytest.mark.parametrize("optimize", [False, True])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_cross_reading_updates(self, layout, optimize):
        model = load_model(ALIAS_SOURCE, "AliasTest")
        generated = generate_limpet_mlir(model, 4, layout=layout)
        fast, slow = _run_both(generated, 9, n_steps=6, dt=0.1,
                               optimize=optimize)
        assert compare_trajectories(fast, slow, rtol=0, atol=0)
        # the updates are symmetric, so the sums are conserved: a store
        # read back as a load's value would break both
        matrix = fast.state_matrix()
        names = list(model.states)
        a, b = (matrix[:, names.index(n)] for n in ("a", "b"))
        assert np.allclose(a + b, -1.0, rtol=0, atol=0.05)
        ring = sum(matrix[:, names.index(n)] for n in ("r1", "r2", "r3"))
        assert np.allclose(ring, 1.0, rtol=0, atol=0.05)


class TestAddressingModes:
    """What the analysis proves, asserted on its result."""

    @pytest.mark.parametrize("name", ALL_MODELS)
    def test_zoo_has_no_indexed_access(self, name):
        model = load_registry_model(name)
        for layout, modes in (("aosoa", {"unit"}), ("soa", {"unit"}),
                              ("aos", {"unit", "strided"})):
            generated = generate_limpet_mlir(model, 8, layout=layout)
            KernelRunner(generated)      # runs the pipeline in place
            accesses = analyze_accesses(
                generated.module.lookup_func(generated.spec.function_name))
            # (a one-state model's AoS stride is 1: unit)
            assert accesses
            assert {a.mode for a in accesses.values()} <= modes, layout

    def test_ohara_statement_count(self):
        runner = KernelRunner(generate_limpet_mlir(
            load_registry_model("OHara"), 8))
        source = runner.kernel.source
        # the function body: 181 lines before packed statements, 111
        # with four packs (each one statement, or a loop over its lanes)
        body = [line for line in source.splitlines()
                if line.startswith("    ")]
        assert len(body) == 111
        assert source.count("    if _packed:\n") == 4
        for helper in ("_vb(", "_lanes", "_vstore", "_vgather", "np.arange"):
            assert helper not in source

    def test_unprovable_index_stays_indexed(self):
        """An index loaded from memory proves nothing: the access keeps
        the index-array form and still matches the interpreter."""
        module = Module("perm")
        mem = memref_of(f64)
        kernel = func_dialect.func(
            module, "permute",
            [index, index, mem, memref_of(index), mem, mem], [],
            arg_hints=["start", "end", "src", "perm", "dst", "wrap"])
        start, end, src, perm, dst, wrap = kernel.args
        b = IRBuilder(kernel.entry)
        loop = scf.for_op(b, start, end, b.constant(4, index), iv_hint="i")
        loop.op.attributes.update({"cell_loop": True, "vector_width": 4})
        with b.at_end_of(loop.body):
            i = loop.induction_var
            where = vector_dialect.load(b, perm, [i], 4)
            moved = vector_dialect.gather(b, src, where)
            doubled = arith.muli(b, i, b.constant(2, index))
            wrapped = arith.remsi(b, arith.addi(b, doubled,
                                                b.constant(1, index)),
                                  b.constant(12, index))
            vector_dialect.scatter(b, moved, dst, where)
            vector_dialect.store(b, moved, wrap, [wrapped])
            scf.yield_op(b)
        func_dialect.ret(b)
        modes = [a.mode for a in analyze_accesses(kernel.op).values()]
        assert modes == ["unit", "indexed", "indexed", "indexed"]
        lowered = lower_function(module, "permute")
        assert "_lanes = np.arange(4)" in lowered.source
        results = []
        for run in (lowered.fn, lambda *a: Interpreter(module).call(
                "permute", *a)):
            source = np.arange(16, dtype=np.float64) * 1.5
            order = np.random.default_rng(3).permutation(16)
            out, wrapped_out = np.zeros(16), np.zeros(16)
            run(0, 8, source, order, out, wrapped_out)
            results.append(np.concatenate([out, wrapped_out]))
        assert results[0].any() and np.array_equal(*results)


class TestRaggedVsScalarBaseline:
    """Every vector variant lands on the scalar backend's trajectory."""

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("width", [2, 4, 8])
    def test_matches_baseline_backend(self, gate_model, layout, width):
        n_cells = _RAGGED[width]
        base = KernelRunner(generate_baseline(gate_model))
        vec = KernelRunner(generate_limpet_mlir(gate_model, width,
                                                layout=layout))
        r_base = base.simulate(n_cells, 40, 0.01, perturbation=0.01)
        r_vec = vec.simulate(n_cells, 40, 0.01, perturbation=0.01)
        assert r_vec.state.n_alloc % width == 0   # padded
        assert compare_trajectories(r_base.state, r_vec.state, rtol=1e-9)
