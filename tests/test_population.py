"""Population-batched execution: bitwise differential vs loop-of-N,
cache keying on the population shape, throughput accounting,
spec validation, legality findings, foreign fallback, sharding plans."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import (check_population_legality, generate_baseline,
                           generate_limpet_mlir)
from repro.frontend import load_model as load_source
from repro.frontend.analysis import SemanticError
from repro.models import load_model
from repro.obs import metrics as _metrics
from repro.population import (PopulationRunner, PopulationSpec,
                              load_promoted_model, parse_range, sweep)
from repro.runtime import (KernelCache, KernelRunner, ShardedRunner,
                           kernel_cache_key, multiprocess_supported,
                           shard_bounds)
from repro.runtime.executor import RunResult

needs_mp = pytest.mark.skipif(not multiprocess_supported(),
                              reason="platform lacks fork/shared_memory")

#: a small LUT model with a promotable conductance — fast to compile
MODEL, PARAM = "LuoRudy91", "GK"


def promoted(name=MODEL, params=(PARAM,)):
    return load_promoted_model(name, tuple(params))


def loop_of_n(generated, spec, c, n_steps, dt=0.01, **runner_kwargs):
    """The pre-population shape: N sequential single-instance runs of
    the *same* promoted kernel, stacked instance-major."""
    runner = KernelRunner(generated, **runner_kwargs)
    blocks = []
    for i in range(spec.n_instances):
        values = {name: float(spec.values[name][i])
                  for name in spec.values}
        state = runner.make_state(c, param_values=values)
        runner.run(state, n_steps, dt)
        blocks.append(state.state_matrix())
    return blocks


# ---------------------------------------------------------------------------
# PopulationSpec
# ---------------------------------------------------------------------------


class TestPopulationSpec:
    def test_basic(self):
        spec = PopulationSpec({"GK": [0.1, 0.2, 0.3]})
        assert spec.n_instances == 3
        assert spec.param_names == ("GK",)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PopulationSpec({})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="3 values"):
            PopulationSpec({"a": [1.0, 2.0], "b": [1.0, 2.0, 3.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            PopulationSpec({"a": [1.0, np.nan]})

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            PopulationSpec({"a": []})

    def test_scalar_promoted_to_one_instance(self):
        assert PopulationSpec({"a": 2.0}).n_instances == 1

    def test_fingerprint_is_shape_not_values(self):
        a = PopulationSpec({"GK": [0.1, 0.2]})
        b = PopulationSpec({"GK": [5.0, 9.0]})
        assert a.fingerprint() == b.fingerprint() == "params=GK;n=2"

    def test_fingerprint_sorts_names(self):
        a = PopulationSpec({"b": [1.0], "a": [2.0]})
        b = PopulationSpec({"a": [1.0], "b": [2.0]})
        assert a.fingerprint() == b.fingerprint() == "params=a,b;n=1"

    def test_fingerprint_distinguishes_n(self):
        assert PopulationSpec({"a": [1.0]}).fingerprint() != \
            PopulationSpec({"a": [1.0, 2.0]}).fingerprint()

    def test_parse_range(self):
        assert parse_range("0.1:1.0:4") == (0.1, 1.0, 4)
        assert parse_range("0.5:2.0") == (0.5, 2.0, 16)

    @pytest.mark.parametrize("text", ["1.0", "a:b:4", "1:2:0", "1:2:3:4"])
    def test_parse_range_rejects(self, text):
        with pytest.raises(ValueError):
            parse_range(text)

    def test_from_ranges_scales_declared_value(self):
        model = load_model(MODEL)
        spec = PopulationSpec.from_ranges(model, {PARAM: "0.5:1.0:3"})
        expected = np.linspace(0.5, 1.0, 3) * model.params[PARAM]
        assert np.array_equal(spec.values[PARAM], expected)

    def test_from_ranges_absolute(self):
        model = load_model(MODEL)
        spec = PopulationSpec.from_ranges(model, {PARAM: "0.5:1.0:3"},
                                          absolute=True)
        assert np.array_equal(spec.values[PARAM],
                              np.linspace(0.5, 1.0, 3))

    def test_from_ranges_unknown_param(self):
        with pytest.raises(ValueError, match="not a declared"):
            PopulationSpec.from_ranges(load_model(MODEL),
                                       {"nope": "0.1:1.0:4"})

    def test_from_ranges_count_mismatch(self):
        model = load_model("Courtemanche")
        with pytest.raises(ValueError, match="instances"):
            PopulationSpec.from_ranges(
                model, {"GKr": "0.1:1.0:4", "GNa": "0.1:1.0:8"})


# ---------------------------------------------------------------------------
# Parameter promotion (frontend + codegen ABI)
# ---------------------------------------------------------------------------


class TestPromotion:
    def test_promoted_param_becomes_kernel_argument(self):
        generated = generate_limpet_mlir(promoted(), width=4)
        names = generated.spec.argument_names()
        assert f"param_{PARAM}" in names
        # between the externals and the LUT tables
        assert names.index(f"param_{PARAM}") < \
            min(i for i, n in enumerate(names) if n.startswith("lut_"))

    def test_unpromoted_model_has_no_param_arguments(self):
        generated = generate_limpet_mlir(load_model(MODEL), width=4)
        assert not [n for n in generated.spec.argument_names()
                    if n.startswith("param_")]

    def test_unknown_promote_name_rejected(self):
        with pytest.raises(SemanticError):
            load_promoted_model(MODEL, ("not_a_param",))

    def test_promoted_analysis_is_cached(self):
        assert promoted() is promoted()

    def test_init_param_uses_recorded(self):
        model = load_source("g = 2; .param(); diff_x = -g*x; x_init = g;",
                            promote_params=("g",))
        assert "g" in model.init_param_uses
        assert model.promoted_params == ("g",)


# ---------------------------------------------------------------------------
# Legality
# ---------------------------------------------------------------------------


class TestPopulationLegality:
    def test_legal_promotion_is_clean(self):
        report = check_population_legality(promoted(), (PARAM,))
        assert report.vectorizable
        assert not report.findings

    def test_unknown_name_is_blocker(self):
        report = check_population_legality(load_model(MODEL), ("nope",))
        assert not report.vectorizable

    def test_foreign_model_warns_not_blocks(self):
        model = load_promoted_model("ARPF", ("GK",))
        report = check_population_legality(model, ("GK",))
        assert report.vectorizable
        assert any("foreign" in f.message for f in report.findings)

    def test_init_use_warns(self):
        model = load_source("g = 2; .param(); diff_x = -g*x; x_init = g;",
                            promote_params=("g",))
        report = check_population_legality(model, ("g",))
        assert report.vectorizable
        assert any("_init" in f.message for f in report.findings)


# ---------------------------------------------------------------------------
# Bitwise differential: batched vs loop-of-N, same promoted kernel
# ---------------------------------------------------------------------------


SPEC3 = {PARAM: "0.25:1.0:3"}


def make_spec(model):
    return PopulationSpec.from_ranges(model, SPEC3)


class TestBitwiseDifferential:
    @pytest.mark.parametrize("layout,width", [
        ("aos", 2), ("aos", 4), ("aosoa", 4), ("aosoa", 8),
    ])
    def test_layouts_and_widths(self, layout, width):
        model = promoted()
        spec = make_spec(model)
        pop = PopulationRunner(model, spec, width=width, layout=layout)
        result = pop.simulate(cells_per_instance=13, n_steps=8)
        loop = loop_of_n(pop.generated, spec, 13, 8)
        for i in range(spec.n_instances):
            assert np.array_equal(result.instance_state_matrix(i),
                                  loop[i]), f"instance {i} diverged"
        pop.close()

    def test_instances_actually_differ(self):
        model = promoted()
        spec = make_spec(model)
        with PopulationRunner(model, spec, width=4) as pop:
            result = pop.simulate(cells_per_instance=8, n_steps=8)
        assert not np.array_equal(result.instance_state_matrix(0),
                                  result.instance_state_matrix(2))

    @needs_mp
    def test_sharded_instance_axis(self):
        model = promoted()
        spec = make_spec(model)
        pop = PopulationRunner(model, spec, width=4, n_workers=2)
        result = pop.simulate(cells_per_instance=8, n_steps=8)
        runner = pop.runner_for(8)
        assert isinstance(runner, ShardedRunner)
        # the flattened axis is cut like any cell range: through instance 1
        assert runner.shards_for(result.flat.state) \
            == shard_bounds(24, 2, 4) == [(0, 12), (12, 24)]
        loop = loop_of_n(pop.generated, spec, 8, 8)
        for i in range(spec.n_instances):
            assert np.array_equal(result.instance_state_matrix(i), loop[i])
        pop.close()

    @needs_mp
    def test_sharded_ragged_falls_back_to_cell_axis(self):
        model = promoted()
        spec = make_spec(model)
        # 23 % 4 != 0: instance bounds are not on vector blocks
        pop = PopulationRunner(model, spec, width=4, n_workers=2)
        result = pop.simulate(cells_per_instance=23, n_steps=6)
        loop = loop_of_n(pop.generated, spec, 23, 6)
        for i in range(spec.n_instances):
            assert np.array_equal(result.instance_state_matrix(i), loop[i])
        pop.close()

    @needs_mp
    def test_supervised_tier(self):
        model = promoted()
        spec = make_spec(model)
        pop = PopulationRunner(model, spec, width=4, n_workers=2)
        try:
            result = pop.simulate(cells_per_instance=8, n_steps=6)
            loop = loop_of_n(pop.generated, spec, 8, 6)
            for i in range(spec.n_instances):
                assert np.array_equal(result.instance_state_matrix(i),
                                      loop[i])
        finally:
            pop.close()

    def test_foreign_model_batches_through_baseline(self):
        model = load_promoted_model("ARPF", ("GK",))
        spec = PopulationSpec.from_ranges(model, {"GK": "0.5:1.0:2"})
        with PopulationRunner(model, spec) as pop:
            assert pop.foreign
            result = pop.simulate(cells_per_instance=5, n_steps=4)
        generated = generate_baseline(model)
        loop = loop_of_n(generated, spec, 5, 4)
        for i in range(spec.n_instances):
            assert np.array_equal(result.instance_state_matrix(i), loop[i])

    def test_stimulus_applies_to_every_instance(self):
        from repro.runtime import Stimulus
        model = promoted()
        spec = make_spec(model)
        stim = Stimulus(amplitude=-40.0, duration=0.5, period=100.0)
        with PopulationRunner(model, spec, width=4) as pop:
            state = pop.make_state(4)
            result = pop.run(state, 10, 0.01, stimulus=stim,
                             record_vm=True)
        for i in range(spec.n_instances):
            assert result.vm_trace_of(i).max() > \
                result.vm_trace_of(i)[0]


# ---------------------------------------------------------------------------
# Results: per-instance views + throughput accounting
# ---------------------------------------------------------------------------


class TestPopulationResult:
    @pytest.fixture(scope="class")
    def result(self):
        model = promoted()
        spec = make_spec(model)
        with PopulationRunner(model, spec, width=4) as pop:
            return pop.simulate(cells_per_instance=8, n_steps=6,
                                record_vm=True)

    def test_vm_traces_shape(self, result):
        assert result.vm_traces.shape == (6, 3)
        assert result.vm_trace_of(1).shape == (6,)

    def test_instance_param(self, result):
        model = load_model(MODEL)
        assert result.instance_param(PARAM, 2) == \
            pytest.approx(model.params[PARAM])

    def test_index_out_of_range(self, result):
        with pytest.raises(IndexError):
            result.instance_state_matrix(3)
        with pytest.raises(IndexError):
            result.vm_trace_of(-1)

    def test_flat_throughput_spans_all_instances(self, result):
        # the flat state has N x c cells, so no extra multiplier
        assert result.flat.instances == 1
        assert result.flat.state.n_cells == 24
        assert result.cell_steps_per_second == \
            pytest.approx(result.flat.cell_steps_per_second)

    def test_carved_results_keep_kernel_throughput(self, result):
        carved = result.instance_result(1)
        assert carved.instances == 3
        assert carved.state.n_cells == 8
        # 8 cells x 3 instances == the flat 24-cell throughput
        assert carved.cell_steps_per_second == \
            pytest.approx(result.cell_steps_per_second)
        assert np.array_equal(carved.state.state_matrix(),
                              result.instance_state_matrix(1))

    def test_plain_run_result_defaults_to_one_instance(self):
        runner = KernelRunner(generate_limpet_mlir(load_model(MODEL),
                                                   width=4))
        run = runner.simulate(8, 4, dt=0.01)
        assert run.instances == 1
        assert run.cell_steps_per_second == \
            pytest.approx(run.steps_per_second * 8)


# ---------------------------------------------------------------------------
# Cache keying on the population shape
# ---------------------------------------------------------------------------


class TestPopulationKeys:
    def test_kernel_cache_key_gains_population_line(self):
        generated = generate_limpet_mlir(promoted(), width=4)
        plain = kernel_cache_key(generated, "pipe", True, False, True)
        keyed = kernel_cache_key(generated, "pipe", True, False, True,
                                 population="params=GK;n=4")
        assert plain != keyed
        # shape-keyed: N matters, values never enter the key
        other_n = kernel_cache_key(generated, "pipe", True, False, True,
                                   population="params=GK;n=8")
        assert keyed != other_n

    def test_empty_population_leaves_legacy_keys_unchanged(self):
        generated = generate_limpet_mlir(load_model(MODEL), width=4)
        assert kernel_cache_key(generated, "pipe", True, False, True) == \
            kernel_cache_key(generated, "pipe", True, False, True,
                             population="")

    def test_one_compile_serves_same_shape_sweeps(self, tmp_path):
        model = promoted()
        cache = KernelCache(tmp_path / "kernels")
        spec_a = PopulationSpec.from_ranges(model, {PARAM: "0.2:1.0:3"})
        with PopulationRunner(model, spec_a, width=4,
                              cache=cache) as pop:
            pop.runner_for(8)
            assert not pop.cache_hit        # cold: this is the compile
            key_a = pop.cache_key
        # different values, same shape: pure cache hit
        spec_b = PopulationSpec.from_ranges(model, {PARAM: "0.5:2.0:3"})
        with PopulationRunner(model, spec_b, width=4,
                              cache=cache) as pop:
            pop.runner_for(8)
            assert pop.cache_hit
            assert pop.cache_key == key_a
        # different N: different shape, different entry
        spec_c = PopulationSpec.from_ranges(model, {PARAM: "0.2:1.0:5"})
        with PopulationRunner(model, spec_c, width=4,
                              cache=cache) as pop:
            pop.runner_for(8)
            assert not pop.cache_hit
            assert pop.cache_key != key_a


# ---------------------------------------------------------------------------
# sweep(): the one-call API + metrics
# ---------------------------------------------------------------------------


class TestSweepAPI:
    def test_sweep_runs_and_reports_shape(self, tmp_path):
        cache = KernelCache(tmp_path / "kernels")
        result = sweep(MODEL, {PARAM: "0.5:1.0:3"},
                       cells_per_instance=6, n_steps=4, cache=cache)
        assert result.n_instances == 3
        assert result.cells_per_instance == 6
        assert result.flat.state.n_cells == 18
        assert not result.compile_reused

    def test_second_sweep_reuses_compile_and_counts_it(self, tmp_path):
        _metrics.reset()
        cache = KernelCache(tmp_path / "kernels")
        sweep(MODEL, {PARAM: "0.5:1.0:3"}, cells_per_instance=6,
              n_steps=2, cache=cache)
        result = sweep(MODEL, {PARAM: "0.1:0.9:3"}, cells_per_instance=6,
                       n_steps=2, cache=cache)
        assert result.compile_reused
        reuse = _metrics.default_registry().get(
            "sweep_compile_reuse_total")
        assert reuse is not None and reuse.value >= 1
        gauge = _metrics.default_registry().get("population_instances")
        assert gauge is not None and gauge.value == 3

    def test_sweep_rejects_unknown_param(self):
        with pytest.raises(SemanticError, match="unknown parameter"):
            sweep(MODEL, {"nope": "0.1:1.0:2"}, cells_per_instance=4,
                  n_steps=1)

    def test_run_rejects_misshapen_state(self):
        model = promoted()
        spec = make_spec(model)
        with PopulationRunner(model, spec, width=4) as pop:
            runner = pop.runner_for(4)
            bad = runner.make_state(7)     # 7 % 3 != 0
            with pytest.raises(ValueError, match="multiple"):
                pop.run(bad, 2, 0.01)
