"""Autotuner tests: space legality, DB keying, the tuning pipeline."""

import json

import pytest

from repro.codegen import generate_limpet_mlir
from repro.machine import PythonRuntimeCostModel, isa_for_width
from repro.models import load_model
from repro.runtime import KernelRunner
from repro.tuning import (TUNE_DB_VERSION, TuningConfig, TuningDB,
                          Workload, autotune, check_tuning_report,
                          default_config_for, enumerate_space,
                          integrator_summary, lookup_config,
                          predict_ranking, profile_variants,
                          tuning_db_key, variant_key)


@pytest.fixture(scope="module")
def fhn():
    return load_model("FitzHughNagumo")


@pytest.fixture
def db(tmp_path):
    return TuningDB(path=tmp_path / "tuning.json")


class TestTuningConfig:
    def test_defaults_mirror_pr2(self):
        config = TuningConfig()
        assert (config.width, config.layout, config.lut) == \
            (8, "aosoa", "linear")
        assert config.fuse and not config.arena and config.shards == 1

    @pytest.mark.parametrize("kwargs", [
        {"width": 3}, {"layout": "csr"}, {"lut": "cubic"}, {"shards": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TuningConfig(**kwargs)

    def test_dict_round_trip(self):
        config = TuningConfig(width=4, layout="soa", lut="off",
                              fuse=False, arena=True, shards=1)
        assert TuningConfig.from_dict(config.as_dict()) == config

    def test_lut_off_maps_to_valid_interpolation(self):
        config = TuningConfig(lut="off")
        assert not config.use_lut
        assert config.lut_interpolation == "linear"


class TestSpaceLegality:
    def test_default_config_is_in_space(self, fhn):
        assert default_config_for(fhn) in enumerate_space(fhn)

    def test_no_lut_model_gets_only_off(self, fhn):
        assert not fhn.lut_tables
        assert {c.lut for c in enumerate_space(fhn)} == {"off"}

    def test_lut_model_gets_all_modes(self):
        ohara = load_model("OHara")
        assert {c.lut for c in enumerate_space(ohara)} == \
            {"linear", "spline", "off"}

    def test_scalar_points_are_plain_aos(self, fhn):
        for c in enumerate_space(fhn):
            if c.width == 1:
                assert c.layout == "aos" and not c.arena and c.shards == 1

    def test_arena_never_sharded(self, fhn):
        space = enumerate_space(fhn, shard_counts=(1, 2))
        assert any(c.shards > 1 for c in space)
        assert not any(c.arena and c.shards > 1 for c in space)

    def test_soa_never_sharded(self, fhn):
        space = enumerate_space(fhn, shard_counts=(1, 2))
        assert not any(c.layout == "soa" and c.shards > 1 for c in space)

    def test_foreign_model_is_scalar_only(self):
        model = load_model("Campbell")
        assert model.foreign_functions
        space = enumerate_space(model)
        assert space and all(c.width == 1 for c in space)
        assert default_config_for(model).width == 1


class TestDBKey:
    def test_key_is_stable(self, fhn):
        workload = Workload.from_model(fhn, 64, 0.01)
        assert tuning_db_key(workload) == tuning_db_key(workload)

    def test_key_changes_with_source_hash(self, fhn):
        workload = Workload.from_model(fhn, 64, 0.01)
        assert tuning_db_key(workload, source_hash="a" * 64) != \
            tuning_db_key(workload, source_hash="b" * 64)

    def test_key_changes_with_pipeline_fingerprint(self, fhn):
        workload = Workload.from_model(fhn, 64, 0.01)
        assert tuning_db_key(workload, pipeline_fingerprint="p1") != \
            tuning_db_key(workload, pipeline_fingerprint="p2")

    def test_key_changes_with_lowering_version(self, fhn, monkeypatch):
        import repro.runtime.lowering as lowering
        workload = Workload.from_model(fhn, 64, 0.01)
        before = tuning_db_key(workload)
        monkeypatch.setattr(lowering, "LOWERING_VERSION",
                            lowering.LOWERING_VERSION + 1)
        assert tuning_db_key(workload) != before

    def test_key_changes_with_workload_shape(self, fhn):
        a = tuning_db_key(Workload.from_model(fhn, 64, 0.01))
        b = tuning_db_key(Workload.from_model(fhn, 128, 0.01))
        c = tuning_db_key(Workload.from_model(fhn, 64, 0.02))
        assert len({a, b, c}) == 3

    def test_integrator_is_part_of_identity(self, fhn):
        summary = integrator_summary(fhn)
        workload = Workload.from_model(fhn, 64, 0.01)
        assert workload.integrator == summary
        other = Workload(model=workload.model, n_cells=64, dt=0.01,
                         integrator=summary + "+Method.MARKOV_BE")
        assert tuning_db_key(workload) != tuning_db_key(other)


class TestTuningDB:
    def test_round_trip(self, db):
        config = TuningConfig(width=4, layout="soa", lut="off")
        db.put("k1", {"config": config.as_dict()})
        assert db.get_config("k1") == config
        assert db.get("k1")["stored_at"] > 0
        assert len(db) == 1

    def test_miss_and_delete(self, db):
        assert db.get("nope") is None
        db.put("k1", {"config": TuningConfig().as_dict()})
        assert db.delete("k1") and not db.delete("k1")

    def test_schema_version_mismatch_is_a_miss(self, db):
        db.put("k1", {"config": TuningConfig().as_dict()})
        data = json.loads(db.path.read_text())
        data["format"] = TUNE_DB_VERSION + 1
        db.path.write_text(json.dumps(data))
        assert db.get("k1") is None and len(db) == 0

    def test_corrupt_record_is_a_miss(self, db):
        db.put("k1", {"config": {"width": "wide"}})
        assert db.get_config("k1") is None

    def test_corrupt_file_is_empty(self, db):
        db.path.write_text("{not json")
        assert len(db) == 0
        db.put("k1", {"config": TuningConfig().as_dict()})
        assert len(db) == 1

    def test_clear(self, db):
        db.put("k1", {"config": TuningConfig().as_dict()})
        db.put("k2", {"config": TuningConfig().as_dict()})
        assert db.clear() == 2 and len(db) == 0


class TestCostRanking:
    def test_profiles_cover_only_ir_variants(self, fhn):
        space = enumerate_space(fhn, shard_counts=(1,))
        profiles = profile_variants(fhn, space)
        assert set(profiles) == {variant_key(c) for c in space}
        assert len(profiles) < len(space)   # flags don't regenerate IR

    def test_ranking_is_total_and_ordered(self, fhn):
        space = enumerate_space(fhn, shard_counts=(1,))
        ranked = predict_ranking(
            fhn, Workload.from_model(fhn, 256, 0.01), space)
        assert [c.predicted_rank for c in ranked] == \
            list(range(len(space)))
        seconds = [c.predicted_seconds for c in ranked]
        assert seconds == sorted(seconds)
        assert all(s > 0 for s in seconds)

    def test_scalar_predicted_slowest(self, fhn):
        space = enumerate_space(fhn, shard_counts=(1,))
        ranked = predict_ranking(
            fhn, Workload.from_model(fhn, 256, 0.01), space)
        assert ranked[-1].config.width == 1
        assert ranked[0].config.width > 1

    def test_arena_is_a_penalty(self, fhn):
        model = PythonRuntimeCostModel()
        profile = next(iter(profile_variants(
            fhn, [TuningConfig(lut="off")]).values()))
        isa = isa_for_width(8)
        plain = model.step_time(profile, isa, 1, 1024, arena=False)
        arena = model.step_time(profile, isa, 1, 1024, arena=True)
        assert arena.seconds > plain.seconds


class TestAutotune:
    def test_second_tune_is_a_db_hit(self, fhn, db):
        first = autotune(fhn, n_cells=48, n_steps=3, top_k=2,
                         repeats=2, db=db)
        assert not first.from_db and first.measurements > 0
        second = autotune(fhn, n_cells=48, n_steps=3, top_k=2,
                          repeats=2, db=db)
        assert second.from_db and second.measurements == 0
        assert second.winner == first.winner

    def test_winner_never_slower_than_default(self, fhn, db):
        result = autotune(fhn, n_cells=48, n_steps=3, top_k=2,
                          repeats=2, db=db)
        assert result.winner_seconds <= result.default_seconds
        assert result.speedup_vs_default >= 1.0

    def test_default_always_measured(self, fhn, db):
        result = autotune(fhn, n_cells=48, n_steps=3, top_k=1,
                          repeats=2, db=db)
        defaults = [c for c in result.candidates if c.is_default]
        assert len(defaults) == 1
        assert defaults[0].measured_seconds is not None

    def test_force_remeasures(self, fhn, db):
        autotune(fhn, n_cells=48, n_steps=3, top_k=2, repeats=2, db=db)
        result = autotune(fhn, n_cells=48, n_steps=3, top_k=2,
                          repeats=2, db=db, force=True)
        assert not result.from_db and result.measurements > 0


class TestRunnerIntegration:
    def _record(self, db, model, n_cells, config):
        workload = Workload.from_model(model, n_cells, 0.01)
        db.put(tuning_db_key(workload), {"config": config.as_dict()})

    def test_tune_true_applies_db_config(self, fhn, db):
        config = TuningConfig(width=4, layout="soa", lut="off",
                              fuse=False)
        self._record(db, fhn, 64, config)
        runner = KernelRunner(generate_limpet_mlir(fhn), tune=True,
                              tune_cells=64, tune_db=db)
        assert runner.tuned_config == config
        assert runner.kernel.width == 4
        assert not runner.fuse
        runner.simulate(10, 5)              # tuned variant executes

    def test_tune_true_miss_keeps_kernel(self, fhn, db):
        generated = generate_limpet_mlir(fhn)
        runner = KernelRunner(generated, tune=True, tune_cells=64,
                              tune_db=db)
        assert runner.tuned_config is None
        assert runner.generated is generated

    def test_sharded_record_is_skipped(self, fhn, db):
        self._record(db, fhn, 64, TuningConfig(lut="off", shards=2))
        runner = KernelRunner(generate_limpet_mlir(fhn), tune=True,
                              tune_cells=64, tune_db=db)
        assert runner.tuned_config is None

    def test_lookup_config_is_db_only(self, fhn, db):
        assert lookup_config(fhn, 64, 0.01, db=db) is None
        config = TuningConfig(width=4, layout="aos", lut="off")
        self._record(db, fhn, 64, config)
        assert lookup_config(fhn, 64, 0.01, db=db) == config

    def test_compile_resilient_tune_passthrough(self, fhn, db):
        from repro.resilience import compile_resilient
        config = TuningConfig(width=4, layout="aos", lut="off")
        self._record(db, fhn, 64, config)
        compiled = compile_resilient(fhn, tune=True, tune_cells=64,
                                     tune_db=db)
        assert compiled.runner.tuned_config == config


class TestReportChecks:
    def _report(self, speedups, agreements):
        """A ``tune`` section with the fields the checks read."""
        names = [f"M{i}" for i in range(len(speedups))]
        return {"ratios": {f"{n}.tuned_vs_default": s
                           for n, s in zip(names, speedups)},
                "evidence": {
                    "models": {n: {"top1_in_measured_top3": a}
                               for n, a in zip(names, agreements)},
                    "top1_agreement": sum(agreements) / len(agreements)}}

    def test_passing_report(self):
        report = self._report([1.5, 1.3, 1.2, 1.0, 1.0],
                              [True, True, True, True, False])
        assert check_tuning_report(report) == []

    def test_slower_than_default_fails(self):
        report = self._report([1.5, 1.3, 1.2, 0.9, 1.0],
                              [True] * 5)
        assert any("SLOWER" in f for f in check_tuning_report(report))

    def test_too_few_speedups_fails(self):
        report = self._report([1.5, 1.3, 1.0, 1.0, 1.0], [True] * 5)
        assert any("models reached" in f
                   for f in check_tuning_report(report))

    def test_low_agreement_fails(self):
        report = self._report([1.5, 1.3, 1.2, 1.0, 1.0],
                              [True, True, False, False, False])
        assert any("top-3" in f for f in check_tuning_report(report))


class TestTop1Agreement:
    """Cost-model agreement uses the winner's own noise rule."""

    def _candidates(self, rows):
        from repro.tuning import CandidateResult
        config = TuningConfig(width=8, layout="aosoa", lut="off")
        return [CandidateResult(config=config, predicted_seconds=0.0,
                                predicted_rank=rank,
                                measured_seconds=seconds,
                                measured_iqr=iqr)
                for rank, (seconds, iqr) in enumerate(rows)]

    def test_rank_inside_the_top_three_agrees(self):
        from repro.tuning.tuner import _top1_agrees
        assert _top1_agrees(self._candidates(
            [(2.0, 0.0), (1.0, 0.0), (3.0, 0.0), (4.0, 0.0)]))

    def test_rank_inside_the_noise_band_agrees(self):
        # the FitzHughNagumo/Plonsey shape: the whole space within a
        # few hundredths of a millisecond, top-1 measured fifth
        from repro.tuning.tuner import _top1_agrees
        flat = self._candidates([(0.427, 0.031), (0.383, 0.015),
                                 (0.397, 0.018), (0.414, 0.025),
                                 (0.416, 0.024)])
        assert _top1_agrees(flat)

    def test_rank_outside_the_noise_band_disagrees(self):
        from repro.tuning.tuner import _top1_agrees
        assert not _top1_agrees(self._candidates(
            [(2.0, 0.05), (1.0, 0.05), (1.1, 0.05), (1.2, 0.05)]))

    def test_fewer_than_three_candidates(self):
        from repro.tuning.tuner import _top1_agrees
        assert _top1_agrees(self._candidates([(2.0, 0.0), (1.0, 0.0)]))


class TestReportDatabase:
    def test_report_without_a_db_leaves_the_users_alone(self, tmp_path,
                                                        monkeypatch):
        """``tuning_report`` force-retunes, so the gate (which passes
        no db) must write to a throw-away one."""
        from repro.tuning import tuning_report
        users = tmp_path / "users-tuning.json"
        monkeypatch.setenv("LIMPET_TUNE_DB", str(users))
        section = tuning_report(models=["FitzHughNagumo"], n_cells=48,
                                n_steps=3, top_k=1, repeats=2)
        assert not users.exists()
        assert [v["name"] for v in section["variants"]] == \
            ["FitzHughNagumo.default", "FitzHughNagumo.tuned"]
        assert section["ratios"]["FitzHughNagumo.tuned_vs_default"] >= 1.0
        # an explicit db is the caller's to fill
        mine = TuningDB(path=tmp_path / "mine.json")
        tuning_report(models=["FitzHughNagumo"], n_cells=48, n_steps=3,
                      top_k=1, repeats=2, db=mine)
        assert len(mine) == 1
