"""LUT layout: column-major tables, precomputed slopes, live columns only.

The row-major interpolation routines the kernels called up to
``LOWERING_VERSION`` 3 are kept here verbatim as the reference: the
column-major runtime, and every kernel lowered against it, must
reproduce them bit for bit.
"""

import re
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import kernel_profile
from repro.codegen import generate_limpet_mlir
from repro.frontend import load_model as load_source
from repro.models import ALL_MODELS, load_model
from repro.population import (PopulationRunner, PopulationSpec,
                              load_promoted_model)
from repro.runtime import KernelRunner
from repro.runtime.lut_runtime import (LUTData, build_all_luts,
                                       lut_interp_row,
                                       lut_interp_row_spline_vec,
                                       lut_interp_row_vec)

from .conftest import GATE_SOURCE

# ---------------------------------------------------------------------------
# the reference: row-major gathers, as lowered kernels ran them at v3
# ---------------------------------------------------------------------------


def row_major_interp(lut, x):
    position = (np.asarray(x, dtype=np.float64) - lut.lo) / lut.step
    position = np.clip(position, 0.0, float(lut.n_rows - 1))
    with np.errstate(invalid="ignore"):
        safe = np.where(np.isnan(position), 0.0, position)
        idx = np.minimum(safe.astype(np.int64), lut.n_rows - 2)
        frac = position - idx           # NaN keys propagate NaN rows
    low = lut.rows[idx]           # (n, n_cols) gather
    high = lut.rows[idx + 1]
    row = low + frac[..., None] * (high - low)
    return tuple(row[..., c] for c in range(lut.n_cols))


def row_major_spline(lut, x):
    position = (np.asarray(x, dtype=np.float64) - lut.lo) / lut.step
    position = np.clip(position, 0.0, float(lut.n_rows - 1))
    with np.errstate(invalid="ignore"):
        safe = np.where(np.isnan(position), 0.0, position)
        idx = np.minimum(safe.astype(np.int64), lut.n_rows - 2)
        t = position - idx
    i0 = np.maximum(idx - 1, 0)
    i3 = np.minimum(idx + 2, lut.n_rows - 1)
    p0, p1 = lut.rows[i0], lut.rows[idx]
    p2, p3 = lut.rows[idx + 1], lut.rows[i3]
    t = t[..., None]
    a = 2.0 * p1
    b = p2 - p0
    c = 2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3
    d = -p0 + 3.0 * p1 - 3.0 * p2 + p3
    row = 0.5 * (a + b * t + c * t * t + d * t * t * t)
    return tuple(row[..., col] for col in range(lut.n_cols))


REFERENCE = {lut_interp_row_vec: row_major_interp,
             lut_interp_row_spline_vec: row_major_spline}


def same_bits(a, b) -> bool:
    """Equal bit for bit (so -0.0 is not 0.0), any NaN equal to any NaN:
    which operand's sign and payload a NaN result inherits is the
    ufunc inner loop's choice, not the routine's."""
    a, b = (np.where(np.isnan(v), np.nan, v) for v in (a, b))
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def with_reference_luts(kernel):
    """``kernel``'s function over the row-major routines: what the
    parent's lowering produced (it computed every column and the
    kernel dropped the dead ones)."""
    def select(reference):
        def live_of_all(lut, x, columns):
            row = reference(lut, x)
            return tuple(row[c] for c in columns)
        return live_of_all
    return types.FunctionType(
        kernel.fn.__code__,
        {**kernel.fn.__globals__,
         "_lut_vec": select(row_major_interp),
         "_lut_spline_vec": select(row_major_spline)})


def final_arrays(runner, fn, cells, steps=25, kernel=None):
    """Final ``sv`` + externals of ``runner`` stepping with ``fn`` in
    place of ``kernel``'s function (default: the runner's own)."""
    kernel = kernel or runner.kernel
    state = runner.make_state(cells, perturbation=1e-3,
                              rng=np.random.default_rng(cells))
    kernel_fn, kernel.fn = kernel.fn, fn
    try:
        runner.run(state, steps, 0.01)
    finally:
        kernel.fn = kernel_fn
    return [state.sv] + [state.externals[k] for k in sorted(state.externals)]


def live_columns(source):
    """The column tuple of every vector LUT call in a kernel source."""
    return [tuple(int(c) for c in cols.split(",") if c.strip())
            for cols in re.findall(
                r"_lut(?:_spline)?_vec\(.*, \(([\d, ]*)\)\)$", source, re.M)]


# ---------------------------------------------------------------------------
# the runtime routines against the reference
# ---------------------------------------------------------------------------

SPECIAL_KEYS = [np.nan, np.inf, -np.inf, -1e300, 1e300, -0.0]


@st.composite
def table_keys_columns(draw):
    n_rows = draw(st.integers(2, 9))
    n_cols = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_rows, n_cols))
    if draw(st.booleans()):                 # a table that is not finite
        rows[rng.integers(n_rows), rng.integers(n_cols)] = \
            draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    lo, step = draw(st.sampled_from([(-5.0, 1.0), (0.0, 0.05),
                                     (-100.0, 12.5)]))
    lut = LUTData("v", lo, step, rows, [f"c{i}" for i in range(n_cols)])
    shape = draw(st.sampled_from([(), (7,), (3, 8), (2, 3, 8)]))
    size = int(np.prod(shape, dtype=int))
    hi = lo + (n_rows - 1) * step
    keys = rng.uniform(lo - 2 * step, hi + 2 * step, size=size)
    grid = lo + step * rng.integers(0, n_rows, size=size)
    pick = rng.integers(0, 3, size=size)
    keys = np.where(pick == 0, grid, keys)  # exactly on a grid point
    special = rng.choice(SPECIAL_KEYS + [lo, hi], size=size)
    keys = np.where(pick == 1, special, keys).reshape(shape)
    columns = draw(st.one_of(
        st.none(),
        st.lists(st.integers(0, n_cols - 1), unique=True).map(
            lambda c: tuple(sorted(c)))))
    return lut, keys, columns


class TestRuntimeAgainstRowMajor:
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("interp", list(REFERENCE),
                             ids=["linear", "spline"])
    @given(table_keys_columns())
    @settings(max_examples=150, deadline=None)
    def test_bitwise_and_contiguous(self, interp, case):
        lut, keys, columns = case
        expected = REFERENCE[interp](lut, keys)
        got = interp(lut, keys, columns)
        wanted = range(lut.n_cols) if columns is None else columns
        assert len(got) == len(wanted)
        for column, c in zip(got, wanted):
            assert same_bits(column, expected[c]), (c, columns)
            assert column.shape == np.shape(keys)
            assert column.flags.c_contiguous

    def test_scalar_path_reads_the_same_table(self):
        rows = np.random.default_rng(0).normal(size=(11, 3))
        lut = LUTData("v", -5.0, 1.0, rows, ["a", "b", "c"])
        assert np.array_equal(lut.rows, rows)
        assert np.shares_memory(lut.rows, lut.values)
        assert not lut.rows.flags.writeable
        for key in (-7.0, -5.0, 0.25, 5.0, 9.0):
            vec = lut_interp_row_vec(lut, np.float64(key))
            assert lut_interp_row(lut, key) == tuple(float(v) for v in vec)

    def test_built_tables_are_column_major_without_a_second_copy(self):
        lut = build_all_luts(load_model("OHara"))[0]
        assert lut.values.shape == (lut.n_cols, lut.n_rows) == (42, 4001)
        assert lut.values.flags.c_contiguous
        assert lut.memory_bytes() == lut.values.nbytes

    def test_memory_bytes_counts_every_gather_table(self):
        lut = build_all_luts(load_model("OHara"))[0]
        table = lut.values.nbytes
        keys = np.linspace(-90.0, 40.0, 16)
        lut_interp_row_vec(lut, keys, (1, 4, 6))
        per_column = table // lut.n_cols
        slopes = 3 * (per_column - 8)
        assert lut.memory_bytes() == table + 3 * per_column + slopes
        lut_interp_row_vec(lut, keys, (1, 4, 6))        # served, not rebuilt
        lut_interp_row_spline_vec(lut, keys, (1, 4, 6))  # needs no slopes
        assert lut.memory_bytes() == table + 3 * per_column + slopes
        lut_interp_row_vec(lut, keys)                   # all: slopes only
        assert lut.memory_bytes() == (table + 3 * per_column + slopes
                                      + table - 8 * lut.n_cols)

    def test_threads_sharing_a_fresh_table_agree(self):
        """More threads than cores race to build one column subset."""
        lut = build_all_luts(load_model("OHara"))[0]
        keys = np.random.default_rng(1).uniform(-120.0, 80.0, (64, 8))
        columns = tuple(range(0, lut.n_cols, 2))
        expected = row_major_interp(lut, keys)
        start = threading.Barrier(8)
        wrong = []

        def work():
            start.wait(timeout=30)
            for _ in range(20):
                got = lut_interp_row_vec(lut, keys, columns)
                if not all(same_bits(g, expected[c])
                           for g, c in zip(got, columns)):
                    wrong.append(threading.get_ident())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        per_column = lut.values.nbytes // lut.n_cols
        assert lut.memory_bytes() == (lut.values.nbytes + len(columns)
                                      * (2 * per_column - 8))


# ---------------------------------------------------------------------------
# lowered kernels against the parent's
# ---------------------------------------------------------------------------


class TestLoweredKernels:
    def test_zoo_matches_parent_kernels_and_live_counts(self):
        """43 models x {67, 1000} cells x 25 steps: final state and
        externals identical to the same kernel over the row-major
        routines; live-column counts pinned."""
        live = total = 0
        for name in ALL_MODELS:
            runner = KernelRunner(generate_limpet_mlir(load_model(name), 8))
            columns = live_columns(runner.kernel.source)
            tables = runner.luts_for(0.01)
            assert len(columns) == len(tables), name
            live += sum(len(c) for c in columns)
            total += sum(t.n_cols for t in tables)
            if name == "OHara":
                assert (len(columns[0]), tables[0].n_cols) == (27, 42)
            if not tables:
                continue
            parent = with_reference_luts(runner.kernel)
            for cells in (67, 1000):
                ours = final_arrays(runner, runner.kernel.fn, cells)
                theirs = final_arrays(runner, parent, cells)
                assert all(same_bits(a, b) for a, b in zip(ours, theirs)), \
                    (name, cells)
        assert (live, total) == (635, 1033)

    def test_spline_kernels_match_parent(self):
        for name in ("LuoRudy91", "Courtemanche"):
            runner = KernelRunner(generate_limpet_mlir(
                load_model(name), 8, lut_interpolation="spline"))
            assert "_lut_spline_vec" in runner.kernel.source
            parent = with_reference_luts(runner.kernel)
            ours = final_arrays(runner, runner.kernel.fn, 67)
            theirs = final_arrays(runner, parent, 67)
            assert all(same_bits(a, b) for a, b in zip(ours, theirs)), name

    def test_courtemanche_gkr_population_matches_parent(self):
        model = load_promoted_model("Courtemanche", ("GKr",))
        spec = PopulationSpec.from_ranges(model, {"GKr": "0.1:1.0:16"})
        with PopulationRunner(model, spec, width=8) as pop:
            runner = pop.runner_for(256)
            (columns,) = live_columns(runner.kernel.source)
            assert (len(columns), runner.luts_for(0.01)[0].n_cols) == (27, 44)
            ours = final_arrays(pop, runner.kernel.fn, 256,
                                kernel=runner.kernel)
            theirs = final_arrays(pop, with_reference_luts(runner.kernel),
                                  256, kernel=runner.kernel)
        assert all(same_bits(a, b) for a, b in zip(ours, theirs))

    def test_kernel_with_no_live_lut_result_lowers_and_runs(self):
        generated = generate_limpet_mlir(load_source(GATE_SOURCE, "Gate"), 8)
        calls = [op for op in generated.module.walk()
                 if op.name == "func.call"
                 and op.attributes["callee"].startswith("LUT_")]
        assert calls
        for call in calls:
            for result in call.results:     # same type as the key vector
                result.replace_all_uses_with(call.operands[1])
        runner = KernelRunner(generated, optimize=False)
        assert live_columns(runner.kernel.source) == [()] * len(calls)
        state = runner.make_state(19)
        runner.run(state, 5, 0.01)
        assert np.isfinite(state.sv).all()


# ---------------------------------------------------------------------------
# cost model and profiler count what the kernel interpolates
# ---------------------------------------------------------------------------


class TestCostModelFollowsKernel:
    def test_instrumentation_splits_live_from_tabulated(self):
        profile = kernel_profile("OHara", "limpet_mlir", 8)
        assert (profile.lut_columns_live, profile.lut_columns_vector) \
            == (27, 42)

    def test_profile_detail_is_per_live_column(self):
        runner = KernelRunner(generate_limpet_mlir(load_model("OHara"), 8),
                              profile=True)
        runner.run(runner.make_state(128), 4, 0.01)
        report = runner.profile_report(invocations=4)
        (call,) = [e for e in report.entries if e.element_class == "lut"]
        assert call.detail.startswith("27/42 LUT_interpRow_n_elements_vec")
        assert " 27/42 LUT_ " in report.hot_table(len(report.entries))
