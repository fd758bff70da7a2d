"""PR2 performance layer: fusion, kernel cache, sharding."""

import json

import numpy as np
import pytest

from repro.codegen import generate_limpet_mlir
from repro.ir.dialects.arith import trunc_div, trunc_rem
from repro.ir.passes import default_pipeline
from repro.ir.passes.pass_manager import PassManager
from repro.models import load_model
from repro.runtime import (KernelCache, KernelRunner, ShardedRunner,
                           compare_trajectories, kernel_cache_key,
                           shard_bounds)
from repro.runtime.interpreter import interpret_kernel

#: differential suite: a trivial model, two LUT models, two Markov-BE
#: models (OHara is the paper's flagship; WangSobie is the other family)
DIFF_MODELS = ["Plonsey", "HodgkinHuxley", "LuoRudy91", "OHara",
               "WangSobie"]


def make_runner(name, **kwargs):
    return KernelRunner(generate_limpet_mlir(load_model(name)), **kwargs)


# ---------------------------------------------------------------------------
# Satellite: C-style integer division/remainder
# ---------------------------------------------------------------------------


class TestTruncatedIntegerOps:
    @pytest.mark.parametrize("a,b", [(7, 2), (-7, 2), (7, -2), (-7, -2),
                                     (6, 3), (-6, 3), (0, 5), (1, 7)])
    def test_scalar_matches_c_semantics(self, a, b):
        # C truncates toward zero; Python's // floors
        expected_div = int(a / b)
        assert trunc_div(a, b) == expected_div
        assert trunc_rem(a, b) == a - expected_div * b

    def test_identity_holds(self):
        for a in range(-20, 21):
            for b in list(range(-5, 0)) + list(range(1, 6)):
                assert trunc_div(a, b) * b + trunc_rem(a, b) == a

    def test_exact_beyond_float_mantissa(self):
        # int(a / b) round-trips through float64 and loses bits >= 2^53
        a = (1 << 62) + 1
        assert trunc_div(a, 1) == a
        assert int(a / 1) != a          # the old lowering's bug
        assert trunc_rem((1 << 60) + 3, 1 << 30) == 3

    def test_division_by_zero_is_zero(self):
        assert trunc_div(5, 0) == 0
        assert trunc_rem(5, 0) == 0

    def test_vector_matches_scalar(self):
        a = np.array([7, -7, 7, -7, 9, 0, 100, -100])
        b = np.array([2, 2, -2, -2, 4, 3, -7, 7])
        expected_div = np.array([trunc_div(int(x), int(y))
                                 for x, y in zip(a, b)])
        expected_rem = np.array([trunc_rem(int(x), int(y))
                                 for x, y in zip(a, b)])
        np.testing.assert_array_equal(trunc_div(a, b), expected_div)
        np.testing.assert_array_equal(trunc_rem(a, b), expected_rem)
        assert np.issubdtype(trunc_rem(a, b).dtype, np.integer)

    def test_vector_division_by_zero(self):
        np.testing.assert_array_equal(
            trunc_div(np.array([4, 5]), np.array([0, 5])),
            np.array([0, 1]))

    def test_lowering_emits_integer_helpers(self):
        from repro.ir.core import op_info
        for spelling in ("scalar", "numpy"):
            assert "_idiv" in getattr(op_info("arith.divsi"), spelling)
            assert "_irem" in getattr(op_info("arith.remsi"), spelling)


# ---------------------------------------------------------------------------
# Tentpole 1: fused lowering
# ---------------------------------------------------------------------------


class TestFusedLowering:
    @pytest.mark.parametrize("name", DIFF_MODELS)
    def test_fused_matches_unfused_bitwise(self, name):
        unfused = make_runner(name, fuse=False)
        fused = make_runner(name)
        assert fused.kernel.fused and not unfused.kernel.fused
        a = unfused.simulate(13, 60, 0.01).state
        b = fused.simulate(13, 60, 0.01).state
        assert compare_trajectories(a, b, rtol=0, atol=0)

    @pytest.mark.parametrize("name", ["Plonsey", "HodgkinHuxley", "OHara"])
    def test_fused_matches_interpreter(self, name):
        generated = generate_limpet_mlir(load_model(name))
        runner = KernelRunner(generated)
        dt, n_steps = 0.01, 5
        fast = runner.make_state(8, perturbation=0.01)
        slow = runner.make_state(8, perturbation=0.01)
        luts = runner.luts_for(dt)
        for _ in range(n_steps):
            runner.compute_step(fast, dt)
            interpret_kernel(generated, slow, luts, dt)
        assert compare_trajectories(fast, slow, rtol=1e-12)

    def test_fused_source_is_shorter(self):
        unfused = make_runner("LuoRudy91", fuse=False)
        fused = make_runner("LuoRudy91")
        assert len(fused.kernel.source.splitlines()) < \
            0.6 * len(unfused.kernel.source.splitlines())

    def test_arena_parameters_only_accept_false(self, tmp_path):
        """``lower_function`` and ``KernelCache.store`` keep an ``arena``
        parameter for old callers; the mode itself is gone."""
        from repro.runtime.lowering import lower_function
        generated = generate_limpet_mlir(load_model("Plonsey"))
        with pytest.raises(ValueError, match="arena"):
            lower_function(generated.module, generated.spec.function_name,
                           arena=True)
        with pytest.raises(ValueError, match="arena"):
            KernelCache(tmp_path).store("a" * 64, "def k(): pass",
                                        "vector", 8, [], "k", fused=True,
                                        arena=True)


# ---------------------------------------------------------------------------
# Tentpole 2: persistent kernel cache
# ---------------------------------------------------------------------------


class TestKernelCache:
    def test_miss_then_hit(self, tmp_path):
        cache = KernelCache(tmp_path)
        first = make_runner("HodgkinHuxley", cache=cache)
        assert not first.cache_hit
        second = make_runner("HodgkinHuxley", cache=cache)
        assert second.cache_hit
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert second.kernel.source == first.kernel.source

    def test_cached_kernel_runs_identically(self, tmp_path):
        cache = KernelCache(tmp_path)
        fresh = make_runner("LuoRudy91", cache=cache)
        cached = make_runner("LuoRudy91", cache=cache)
        assert cached.cache_hit
        a = fresh.simulate(13, 60, 0.01).state
        b = cached.simulate(13, 60, 0.01).state
        assert compare_trajectories(a, b, rtol=0, atol=0)

    def test_key_changes_with_model_source(self):
        g1 = generate_limpet_mlir(load_model("Plonsey"))
        g2 = generate_limpet_mlir(load_model("HodgkinHuxley"))
        fp = default_pipeline().fingerprint()
        assert kernel_cache_key(g1, fp, True, False, True) != \
            kernel_cache_key(g2, fp, True, False, True)

    def test_key_changes_with_kernel_spec(self):
        model = load_model("Plonsey")
        g4 = generate_limpet_mlir(model, 4)
        g8 = generate_limpet_mlir(load_model("Plonsey"), 8)
        fp = default_pipeline().fingerprint()
        assert kernel_cache_key(g4, fp, True, False, True) != \
            kernel_cache_key(g8, fp, True, False, True)

    def test_key_changes_with_pipeline(self, tmp_path):
        """A pipeline change MUST miss (the ISSUE's invalidation case)."""
        cache = KernelCache(tmp_path)
        make_runner("Plonsey", cache=cache)
        short = PassManager(default_pipeline().passes[:2],
                            verify_each=False)
        third = make_runner("Plonsey", cache=cache, pipeline=short)
        assert not third.cache_hit
        assert cache.stats.misses == 2

    def test_key_changes_with_pass_version(self):
        g = generate_limpet_mlir(load_model("Plonsey"))
        pipe = default_pipeline()
        key_a = kernel_cache_key(g, pipe.fingerprint(), True, False, True)
        pipe.passes[0].version = 99
        key_b = kernel_cache_key(g, pipe.fingerprint(), True, False, True)
        assert key_a != key_b

    def test_key_changes_with_lowering_version(self, monkeypatch):
        from repro.runtime import lowering
        g = generate_limpet_mlir(load_model("Plonsey"))
        fp = default_pipeline().fingerprint()
        key_a = kernel_cache_key(g, fp, True, False, True)
        monkeypatch.setattr(lowering, "LOWERING_VERSION",
                            lowering.LOWERING_VERSION + 1)
        key_b = kernel_cache_key(g, fp, True, False, True)
        assert key_a != key_b

    def test_key_changes_with_fuse_and_arena_flags(self):
        g = generate_limpet_mlir(load_model("Plonsey"))
        fp = default_pipeline().fingerprint()
        keys = {kernel_cache_key(g, fp, fuse, arena, True)
                for fuse in (True, False) for arena in (True, False)}
        assert len(keys) == 4

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = KernelCache(tmp_path)
        runner = make_runner("Plonsey", cache=cache)
        cache._path(runner.cache_key).write_text("{not json")
        again = make_runner("Plonsey", cache=cache)
        assert not again.cache_hit
        # ...and the bad entry was overwritten with a good one
        assert make_runner("Plonsey", cache=cache).cache_hit

    def test_eviction_keeps_bound(self, tmp_path):
        cache = KernelCache(tmp_path, max_entries=2)
        for name in ("Plonsey", "HodgkinHuxley", "LuoRudy91"):
            make_runner(name, cache=cache)
        entries = [p for p in cache.root.glob("*.json")
                   if p.name != "stats.json"]
        assert len(entries) == 2
        assert cache.stats.evictions >= 1

    def test_eviction_does_not_wait_on_its_own_lock(self, tmp_path,
                                                    monkeypatch):
        # store() holds the cache lock while it evicts; counting the
        # eviction must not open a second descriptor on the lock file
        # (that waited out the 10 s timeout, then wrote stats unlocked)
        import contextlib
        import time
        from repro.runtime import kernel_cache as kc
        file_lock = kc.file_lock
        yielded = []

        @contextlib.contextmanager
        def recording_lock(path, *args, **kwargs):
            with file_lock(path, *args, **kwargs) as held:
                yielded.append(held)
                yield held

        monkeypatch.setattr(kc, "file_lock", recording_lock)
        cache = KernelCache(tmp_path, max_entries=2)
        start = time.perf_counter()
        for key in ("a" * 64, "b" * 64, "c" * 64):
            cache.store(key, "def k(): pass", "vector", 8, [], "k",
                        fused=True, arena=False)
        assert time.perf_counter() - start < 1.0
        assert yielded and all(yielded)
        assert cache.stats.evictions == 1
        assert cache.persistent_stats().evictions == 1

    def test_persistent_stats_across_instances(self, tmp_path):
        cache_a = KernelCache(tmp_path)
        make_runner("Plonsey", cache=cache_a)        # miss
        cache_b = KernelCache(tmp_path)              # a "new process"
        make_runner("Plonsey", cache=cache_b)        # hit
        stats = cache_b.persistent_stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.entries == 1 and stats.bytes > 0

    def test_clear(self, tmp_path):
        cache = KernelCache(tmp_path)
        make_runner("Plonsey", cache=cache)
        assert cache.clear() == 1
        assert cache.persistent_stats().entries == 0


# ---------------------------------------------------------------------------
# Tentpole 2b: prebound compute_step arguments
# ---------------------------------------------------------------------------


class TestPreboundArgs:
    def test_prebind_survives_run_and_reuses_args(self):
        runner = make_runner("HodgkinHuxley")
        state = runner.make_state(8)
        runner.run(state, 5, 0.01)
        bound = runner._bound
        assert bound is not None and bound[0] is state
        runner.run(state, 5, 0.01)
        assert runner._bound is bound   # same binding object: no rebuild

    def test_set_state_keeps_buffer_identity(self):
        """set_state writes in place: buffer identity is load-bearing
        (shared-memory views held by supervised workers and prebound
        kernel args must keep seeing this state)."""
        runner = make_runner("HodgkinHuxley")
        fresh = make_runner("HodgkinHuxley")
        state = runner.make_state(8)
        runner.run(state, 5, 0.01)              # binds to sv
        old_sv = state.sv
        mid = state.state_matrix()[:state.n_cells].copy()
        state.set_state(mid)                    # same values, SAME buffer
        assert state.sv is old_sv
        runner.compute_step(state, 0.01)
        assert runner._bound[3][4] is state.sv  # binding still valid
        # behavioral check: identical trajectory on a fresh runner whose
        # state never had its buffer swapped
        ref = fresh.make_state(8)
        fresh.run(ref, 5, 0.01)
        fresh.compute_step(ref, 0.01)
        np.testing.assert_array_equal(state.sv, ref.sv)

    def test_dt_change_rebinds(self):
        runner = make_runner("HodgkinHuxley")
        state = runner.make_state(8)
        runner.compute_step(state, 0.01)
        first = runner._bound
        runner.compute_step(state, 0.02)
        assert runner._bound is not first

    def test_throughput_properties(self):
        runner = make_runner("Plonsey")
        result = runner.simulate(32, 50, 0.01)
        assert result.steps_per_second == pytest.approx(
            50 / result.elapsed_seconds)
        assert result.cell_steps_per_second == pytest.approx(
            result.steps_per_second * 32)

    def test_lut_cache_stats(self):
        runner = make_runner("LuoRudy91")
        runner.luts_for(0.01)
        runner.luts_for(0.01)
        runner.luts_for(0.02)
        stats = runner.lut_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 1
        assert stats["entries"] == 2 and stats["bytes"] > 0


# ---------------------------------------------------------------------------
# Tentpole 3: sharded execution
# ---------------------------------------------------------------------------


class TestShardedRunner:
    def test_shard_bounds_cover_and_align(self):
        bounds = shard_bounds(n_alloc=40, n_shards=4, width=8)
        assert bounds[0][0] == 0 and bounds[-1][1] == 40
        for (s0, e0), (s1, e1) in zip(bounds, bounds[1:]):
            assert e0 == s1                      # disjoint and contiguous
        for start, _ in bounds:
            assert start % 8 == 0                # block-aligned cuts

    def test_shard_bounds_small_n(self):
        assert shard_bounds(8, 4, 8) == [(0, 8)]
        assert shard_bounds(0, 4, 8) == []

    def test_shard_plan_must_align_and_cover(self):
        def runner(plan):
            return ShardedRunner(generate_limpet_mlir(load_model("Plonsey")),
                                 n_threads=2, shard_plan=plan)
        with pytest.raises(ValueError, match="not aligned"):
            runner([(0, 12), (12, 32)])
        with pytest.raises(ValueError, match="is empty"):
            runner([(0, 16), (16, 16)])
        good = runner([(0, 16), (16, 32)])
        assert good.shards_for(good.make_state(32)) == [(0, 16), (16, 32)]
        with pytest.raises(ValueError, match="covers"):
            good.shards_for(good.make_state(64))


# ---------------------------------------------------------------------------
# Bench report plumbing (no timing loops: synthetic reports)
# ---------------------------------------------------------------------------


def _synthetic_report(fused_run=0.5, cached_construct=0.01):
    """A ``perf`` section with plausible numbers."""
    def variant(name, construct, run, **hits):
        return {"name": name, "construct_seconds": construct,
                "run_seconds": run, "total_seconds": construct + run,
                "steps_per_second": 100 / run,
                "cell_steps_per_second": 100 * 4096 / run,
                "cache_hit": False, "artifact_hit": False, **hits}

    variants = [variant("baseline", 0.1, 1.0),
                variant("fused", 0.08, fused_run),
                variant("fused_cached", cached_construct, fused_run,
                        cache_hit=True),
                variant("fused_artifact", cached_construct, fused_run,
                        artifact_hit=True)]
    base_total, base_run = 1.1, 1.0
    ratios = {}
    for v in variants[1:]:
        ratios[f"{v['name']}.total"] = base_total / v["total_seconds"]
        ratios[f"{v['name']}.run"] = base_run / v["run_seconds"]
    return {"config": {"model_name": "OHara", "n_cells": 4096,
                       "n_steps": 100, "dt": 0.01, "runs": 5,
                       "width": 8},
            "variants": variants, "ratios": ratios,
            "evidence": {"n_states": 41, "available_cpus": 4}}


class TestPerfReportPlumbing:
    def test_check_report_passes_on_good_numbers(self):
        from repro.bench.perf import check_report
        assert check_report(_synthetic_report()) == []

    def test_check_report_flags_slow_fused(self):
        from repro.bench.perf import check_report
        failures = check_report(_synthetic_report(fused_run=1.5))
        assert any("fused run slower" in f for f in failures)

    def test_check_report_flags_cold_cache(self):
        from repro.bench.perf import check_report
        report = _synthetic_report()
        report["variants"][2]["cache_hit"] = False
        assert any("cache" in f for f in check_report(report))
        report = _synthetic_report()
        report["variants"][3]["artifact_hit"] = False
        assert any("artifact" in f for f in check_report(report))
        slow = _synthetic_report(cached_construct=0.2)
        assert any("not faster than full pipeline" in f
                   for f in check_report(slow))

    def test_format_perf_table(self):
        from repro.bench.report import format_perf_table
        text = format_perf_table(_synthetic_report())
        assert "OHara" in text and "fused_cached" in text
        assert "fused_artifact*" in text
        assert "Mcell-steps/s" in text

    def test_write_report_round_trips(self, tmp_path):
        from repro.bench.record import (SCHEMA, load_record, make_record,
                                        machine_identity, write_record)
        path = tmp_path / "BENCH.json"
        write_record(make_record({"perf": _synthetic_report()}), path)
        loaded = load_record(path)
        assert loaded["schema"] == SCHEMA
        assert loaded["machine"] == machine_identity()
        assert len(loaded["sections"]["perf"]["variants"]) == 4
