"""The execution stack's three single points (DESIGN.md §5.1):
``resolve_kernel`` (where a kernel comes from), ``advance`` (the
two-stage loop) and ``make_runner`` (which tier runs it)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.aot import ArtifactStore, build_bundle, runner_from_store
from repro.codegen import (UnsupportedModelError, generate_baseline,
                           generate_limpet_mlir)
from repro.models import all_model_files, load_model
from repro.population import PopulationRunner, PopulationSpec
from repro.resilience import WatchdogConfig
from repro.runtime import (KernelCache, KernelRunner, Stimulus,
                           compare_trajectories, make_runner,
                           multiprocess_supported, resolve_kernel)

needs_fork = pytest.mark.skipif(
    not multiprocess_supported(),
    reason="supervised tier needs the fork start method")


def default_kernel(name: str):
    """The zoo's default kernel for ``name``, as ``build-all`` picks it."""
    model = load_model(name)
    try:
        return generate_limpet_mlir(model, 8)
    except UnsupportedModelError:
        return generate_baseline(model)


# ---------------------------------------------------------------------------
# Resolve: one walk, byte-identical source from every store
# ---------------------------------------------------------------------------

class TestResolve:
    @pytest.mark.parametrize("name", all_model_files())
    def test_same_source_from_every_store(self, name, tmp_path):
        cache = KernelCache(tmp_path / "cache")
        build_bundle(tmp_path / "bundle", models=[name])
        store = ArtifactStore(tmp_path / "bundle")

        jit, how = resolve_kernel(default_kernel(name), cache=cache)
        assert how.source == "jit" and how.cache_outcome == "miss"
        cached, hit = resolve_kernel(default_kernel(name), cache=cache)
        assert hit.source == "cache" and hit.cache_outcome == "hit"
        by_key, art = resolve_kernel(default_kernel(name), artifacts=store)
        assert art.source == "artifact"
        assert how.key == hit.key == art.key
        backend = "baseline" if jit.width == 1 else "limpet_mlir"
        by_spec = runner_from_store(name, backend=backend,
                                    width=jit.width, store=store)
        assert by_spec.resolution.source == "bundle"
        assert by_spec.artifact_hit and not by_spec.cache_hit
        assert by_spec.cache_key == how.key
        assert art.cache_outcome == "artifact" \
            == by_spec.resolution.cache_outcome
        for kernel in (cached, by_key, by_spec.kernel):
            assert kernel.source == jit.source

    def test_no_store_derives_no_key(self):
        _, how = resolve_kernel(default_kernel("Plonsey"))
        assert how.source == "jit" and how.key is None
        assert how.cache_outcome == "off"
        assert how.seconds > 0.0

    def test_runner_attributes_are_views_of_the_record(self, tmp_path):
        cache = KernelCache(tmp_path)
        KernelRunner(default_kernel("Plonsey"), cache=cache)
        runner = KernelRunner(default_kernel("Plonsey"), cache=cache)
        how = runner.resolution
        assert (runner.cache_hit, runner.artifact_hit) == (True, False)
        assert runner.cache_key == how.key
        assert runner.compile_seconds == how.seconds
        with pytest.raises(AttributeError):
            runner.cache_hit = False


# ---------------------------------------------------------------------------
# Step: every run mode is the same loop
# ---------------------------------------------------------------------------

class TestStep:
    MODES = {
        "record_vm": dict(record_vm=True),
        "step_hook": dict(step_hook=lambda state: None),
        "time_breakdown": dict(time_breakdown=True),
        # 37 steps in segments of 10: the last segment stops on the
        # target time, not on its step count
        "watchdog": dict(watchdog=WatchdogConfig(check_interval=10)),
        "watchdog+record_vm": dict(
            watchdog=WatchdogConfig(check_interval=10), record_vm=True),
    }

    @pytest.fixture(scope="class")
    def runner(self):
        return KernelRunner(generate_limpet_mlir(load_model("LuoRudy91")))

    @staticmethod
    def run(runner, **mode):
        state = runner.make_state(24, perturbation=0.01,
                                  rng=np.random.default_rng(7))
        stim = Stimulus(amplitude=-20.0, duration=0.1, period=0.2)
        return runner.run(state, 37, 0.01, stimulus=stim, **mode)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_mode_matches_plain_run_bitwise(self, runner, mode):
        plain = self.run(runner)
        other = self.run(runner, **self.MODES[mode])
        verdict = compare_trajectories(plain.state, other.state,
                                       rtol=0, atol=0)
        assert verdict, verdict.describe()
        assert other.state.steps_done == plain.state.steps_done == 37
        assert other.state.time == plain.state.time
        assert other.n_steps == plain.n_steps == 37
        for result in (plain, other):
            assert result.compile_seconds == runner.compile_seconds
            assert result.time_to_first_step > result.compile_seconds
        assert (other.compute_seconds is not None) \
            == (mode == "time_breakdown")
        if "record_vm" in mode:
            reference = self.run(runner, record_vm=True).vm_trace
            assert other.vm_trace.shape == (37,)
            assert np.array_equal(other.vm_trace, reference)

    def test_zero_steps_has_no_first_step(self, runner):
        state = runner.make_state(8)
        result = runner.run(state, 0, 0.01, record_vm=True)
        assert result.time_to_first_step is None
        assert result.vm_trace.shape == (0,)
        assert state.steps_done == 0 and state.time == 0.0


# ---------------------------------------------------------------------------
# Tier: one rule for "is this run parallel?"
# ---------------------------------------------------------------------------

#: the one rule, as every entry point must apply it
EXPECTED_TIER = {0: "single", 1: "single", 2: "supervised"}


@pytest.fixture
def tiers_run(monkeypatch):
    """Every run any runner starts records the tier it started on."""
    seen = []
    real = KernelRunner.run

    def run(self, *args, **kwargs):
        seen.append(self.active_tier)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(KernelRunner, "run", run)
    return seen


def _cli_run(workers, tmp_path):
    from repro.cli import cmd_run
    assert cmd_run("Plonsey", "limpet_mlir", 8, 16, 3, 0.01,
                   workers=workers or None) == 0


def _cli_trace(workers, tmp_path):
    from repro.cli import cmd_trace
    assert cmd_trace("Plonsey", "limpet_mlir", 8, 16, 3, 0.01,
                     str(tmp_path / "trace.json"), False, workers) == 0


def _resilient_sweep(workers, tmp_path):
    from repro.bench import resilient_sweep
    record, = resilient_sweep(["Plonsey"], n_cells=16, n_steps=3,
                              workers=workers)
    assert record.ok
    assert record.tier == EXPECTED_TIER[workers]


def _population(workers, tmp_path):
    model = load_model("LuoRudy91")
    spec = PopulationSpec.from_ranges(model, {"GK": "0.5:1.0:2"})
    with PopulationRunner("LuoRudy91", spec, n_workers=workers) as pop:
        pop.simulate(8, 3)


@needs_fork
class TestTier:
    def test_make_runner_is_the_rule(self):
        for workers, tier in EXPECTED_TIER.items():
            with make_runner(default_kernel("Plonsey"),
                             workers=workers) as runner:
                assert runner.active_tier == tier

    @pytest.mark.parametrize("workers", sorted(EXPECTED_TIER))
    @pytest.mark.parametrize("entry", [_cli_run, _cli_trace,
                                       _resilient_sweep, _population])
    def test_entry_points_agree(self, entry, workers, tiers_run, tmp_path,
                                capsys):
        entry(workers, tmp_path)
        assert tiers_run and set(tiers_run) == {EXPECTED_TIER[workers]}

    def test_traced_run_with_workers_compiles_once(self, tmp_path,
                                                   monkeypatch, capsys):
        """`run --workers N` used to build a KernelRunner and then a
        SupervisedRunner on its already-optimised module: two of each
        compile span."""
        from repro.cli import main
        monkeypatch.setenv("LIMPET_TRACE", str(tmp_path))
        assert main(["run", "Plonsey", "--cells", "16", "--steps", "3",
                     "--workers", "2"]) == 0
        assert "supervised x2" in capsys.readouterr().out
        trace_file, = tmp_path.glob("trace-run-*.json")
        events = json.loads(trace_file.read_text())["traceEvents"]
        names = [e["name"] for e in events if e["ph"] == "X"]
        for span in ("passes", "verify", "lowering"):
            assert names.count(span) == 1, (span, names.count(span))
        assert names.count("shard_task") >= 2
