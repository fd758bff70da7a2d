"""AOT artifact bundles: build-all, the read-only tier, the audit.

The contract under test (DESIGN.md §12): ``build_bundle`` compiles the
zoo once into a versioned bundle; a fresh process pointed at it cold-
starts with zero compile work and a bitwise-identical trajectory; the
audit catches every way the bundle can drift stale; and the kernel
cache underneath tolerates a read-only mount without ever writing.
"""

import json
import os

import numpy as np
import pytest

from repro.aot import (BUNDLE_FORMAT_VERSION, ArtifactStore, audit_bundle,
                       build_bundle, runner_from_store)
from repro.aot.build import default_kernel
from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import Tracer
from repro.runtime.executor import KernelRunner
from repro.runtime.kernel_cache import KernelCache, payload_checksum

from .pins import TIER1_MODELS

COMPILE_SPANS = {"passes", "verify", "lowering"}


def _metric(name):
    metric = obs_metrics.default_registry().get(name)
    return metric.value if metric is not None else 0


def _span_names(tracer):
    return {e["name"] for e in tracer.to_chrome()["traceEvents"]
            if e.get("ph") == "X"}


def _tamper(root, key, mutate):
    """Edit one bundle entry in place, keeping its checksum valid."""
    path = root / f"{key}.json"
    entry = json.loads(path.read_text())
    mutate(entry)
    entry["checksum"] = payload_checksum(entry)
    path.write_text(json.dumps(entry))


@pytest.fixture
def bundle(tmp_path):
    """A built single-model bundle (Plonsey, width 8) + its store."""
    root = tmp_path / "bundle"
    report = build_bundle(root, models=["Plonsey"], width=8)
    assert report.built == 1 and not report.failed
    return root


@pytest.fixture(scope="module")
def tier1_bundle(tmp_path_factory):
    """A bundle of the ``TIER1_MODELS`` (width 8), built once."""
    root = tmp_path_factory.mktemp("tier1") / "bundle"
    report = build_bundle(root, models=TIER1_MODELS, width=8)
    assert report.built == len(TIER1_MODELS) and not report.failed
    return root


# ---------------------------------------------------------------------------
# build-all: the bundle writer
# ---------------------------------------------------------------------------


class TestBuildBundle:
    def test_bundle_layout(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["format"] == BUNDLE_FORMAT_VERSION
        assert len(manifest["entries"]) == 1
        (key,) = manifest["entries"]
        entry = json.loads((bundle / f"{key}.json").read_text())
        assert entry["key"] == key
        assert entry["checksum"] == payload_checksum(entry)
        assert entry["spec"]["model"] == "Plonsey"
        assert entry["kernel"]["source"]
        assert entry["provenance"]["pipeline_fingerprint"]
        assert manifest["spec_index"][entry["spec_fingerprint"]] == key

    def test_second_build_is_a_byte_level_noop(self, bundle):
        manifest_path = bundle / "manifest.json"
        before_bytes = manifest_path.read_bytes()
        before_mtime = manifest_path.stat().st_mtime_ns
        report = build_bundle(bundle, models=["Plonsey"], width=8)
        assert report.built == 0 and report.reused == 1
        assert "(manifest unchanged)" in report.describe()
        assert manifest_path.read_bytes() == before_bytes
        assert manifest_path.stat().st_mtime_ns == before_mtime

    def test_foreign_model_gets_baseline_entry(self, tmp_path):
        report = build_bundle(tmp_path, models=["ARPF"], width=8)
        assert report.built == 1 and not report.failed
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (key,) = manifest["entries"]
        entry = json.loads((tmp_path / f"{key}.json").read_text())
        assert entry["spec"]["backend"] == "baseline"
        assert entry["spec"]["width"] == 1

    def test_model_blob_written_and_verified(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        record = manifest["models"]["Plonsey"]
        blob_path = bundle / record["file"]
        assert blob_path.exists()
        store = ArtifactStore(bundle)
        model = store.load_model_blob("Plonsey")
        assert model is not None and model.name == "Plonsey"
        # a stale source hash is a soft miss, never an error
        assert store.load_model_blob("Plonsey",
                                     source_hash="0" * 64) is None

    def test_corrupt_model_blob_is_soft_miss(self, bundle):
        corrupt = _metric("artifact_corrupt_total")
        blob_path = bundle / "models" / "Plonsey.pkl"
        blob_path.write_bytes(b"not a pickle")
        store = ArtifactStore(bundle)
        assert store.load_model_blob("Plonsey") is None
        assert _metric("artifact_corrupt_total") == corrupt + 1
        # the fast path still works -- it parses instead
        runner = runner_from_store("Plonsey", width=8, store=store)
        assert runner is not None and runner.artifact_hit


# ---------------------------------------------------------------------------
# the runtime tiers: key lookup under KernelRunner, spec fast path
# ---------------------------------------------------------------------------


class TestArtifactTier:
    def test_key_tier_bitwise_identical_and_zero_compile(self, bundle):
        jit = KernelRunner(
            generate_limpet_mlir(load_model("Plonsey"), width=8),
            cache=None, artifacts=False)
        assert not jit.artifact_hit

        hits = _metric("artifact_hits_total")
        load_model.cache_clear()
        tracer = Tracer()
        previous = obs_trace.activate(tracer)
        try:
            runner = KernelRunner(
                generate_limpet_mlir(load_model("Plonsey"), width=8),
                cache=None, artifacts=ArtifactStore(bundle))
        finally:
            obs_trace.deactivate(previous)
        assert runner.artifact_hit
        assert _metric("artifact_hits_total") == hits + 1
        assert not (COMPILE_SPANS & _span_names(tracer))

        ref = jit.run(jit.make_state(32), 40, 0.01)
        got = runner.run(runner.make_state(32), 40, 0.01)
        assert np.array_equal(ref.state.state_matrix(),
                              got.state.state_matrix())

    def test_spec_fast_path_skips_irgen_entirely(self, tier1_bundle):
        for name in TIER1_MODELS:
            # the kernel build-all built: limpetMLIR, or the baseline
            # for a model that calls foreign functions
            generated = default_kernel(load_model(name))
            load_model.cache_clear()
            tracer = Tracer()
            previous = obs_trace.activate(tracer)
            try:
                runner = runner_from_store(
                    name, backend=generated.spec.mode.value,
                    width=generated.spec.width,
                    store=ArtifactStore(tier1_bundle))
            finally:
                obs_trace.deactivate(previous)
            assert runner is not None and runner.artifact_hit, name
            # the bundled model blob replaces even the parse + frontend
            spans = _span_names(tracer)
            assert not ((COMPILE_SPANS | {"parse", "frontend", "irgen"})
                        & spans), name

            jit = KernelRunner(generated, cache=None, artifacts=False)
            ref = jit.run(jit.make_state(16), 20, 0.01)
            got = runner.run(runner.make_state(16), 20, 0.01)
            assert np.array_equal(ref.state.state_matrix(),
                                  got.state.state_matrix()), name

    def test_spec_miss_returns_none(self, bundle):
        misses = _metric("artifact_misses_total")
        assert runner_from_store("Plonsey", width=16,
                                 store=ArtifactStore(bundle)) is None
        assert _metric("artifact_misses_total") == misses + 1

    def test_env_var_mounts_the_tier(self, bundle, monkeypatch):
        monkeypatch.setenv("LIMPET_ARTIFACT_DIR", str(bundle))
        runner = KernelRunner(
            generate_limpet_mlir(load_model("Plonsey"), width=8),
            cache=None)
        assert runner.artifact_hit

        monkeypatch.setenv("LIMPET_ARTIFACTS", "off")
        runner = KernelRunner(
            generate_limpet_mlir(load_model("Plonsey"), width=8),
            cache=None)
        assert not runner.artifact_hit

    def test_corrupt_entry_left_in_place_and_missed(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        (key,) = manifest["entries"]
        path = bundle / f"{key}.json"
        path.write_text(path.read_text()[:40])
        corrupt = _metric("artifact_corrupt_total")
        store = ArtifactStore(bundle)
        assert store.lookup_kernel(key) is None
        assert _metric("artifact_corrupt_total") == corrupt + 1
        assert path.exists(), "runtime tier must never mutate the bundle"

    def test_metrics_reach_prometheus_exposition(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        (key,) = manifest["entries"]
        store = ArtifactStore(bundle)
        assert store.lookup_kernel(key) is not None
        assert store.lookup_kernel("f" * 64) is None
        text = obs_metrics.to_prometheus()
        assert "# TYPE artifact_hits_total counter" in text
        assert "# TYPE artifact_misses_total counter" in text

    def test_run_result_carries_cold_start_fields(self, bundle):
        runner = runner_from_store("Plonsey", width=8,
                                   store=ArtifactStore(bundle))
        result = runner.run(runner.make_state(16), 5, 0.01)
        assert result.compile_seconds == runner.compile_seconds
        assert result.time_to_first_step is not None
        assert result.time_to_first_step >= result.compile_seconds


# ---------------------------------------------------------------------------
# compile_resilient: one bundle lookup, by the runner it builds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def resilient_bundle(tmp_path_factory):
    """OHara (limpetMLIR) and ARPF (foreign: baseline) in one bundle."""
    root = tmp_path_factory.mktemp("resilient") / "bundle"
    report = build_bundle(root, models=["OHara", "ARPF"], width=8)
    assert report.built == 2 and not report.failed
    return root


def _resilient(name, store, **kwargs):
    """``compile_resilient`` traced: (result, span names, hits, misses)."""
    from repro.resilience import compile_resilient
    hits = _metric("artifact_hits_total")
    misses = _metric("artifact_misses_total")
    tracer = Tracer()
    previous = obs_trace.activate(tracer)
    try:
        compiled = compile_resilient(name, artifacts=store, **kwargs)
    finally:
        obs_trace.deactivate(previous)
    return (compiled, _span_names(tracer),
            _metric("artifact_hits_total") - hits,
            _metric("artifact_misses_total") - misses)


class TestResilientLookup:
    def test_supported_model_hits_by_key_with_zero_compile(
            self, resilient_bundle):
        compiled, spans, hits, misses = _resilient(
            "OHara", ArtifactStore(resilient_bundle))
        assert compiled.backend == "limpet_mlir"
        assert compiled.runner.resolution.source == "artifact"
        assert not (COMPILE_SPANS & spans)
        assert (hits, misses) == (1, 0)
        assert any("zero compile" in d.message
                   for d in compiled.diagnostics)

    def test_foreign_model_counts_no_miss_for_skipped_tiers(
            self, resilient_bundle):
        """limpet_mlir and icc_simd refuse ARPF before any lookup; the
        baseline tier's one lookup hits."""
        compiled, spans, hits, misses = _resilient(
            "ARPF", ArtifactStore(resilient_bundle))
        assert compiled.backend == "baseline"
        assert compiled.runner.resolution.source == "artifact"
        assert not (COMPILE_SPANS & spans)
        assert (hits, misses) == (1, 0)
        assert not any("no usable AOT artifact" in d.message
                       for d in compiled.diagnostics)

    def test_fault_injection_jits_without_a_lookup(self, resilient_bundle):
        from repro.resilience import FaultInjector, FaultPlan
        compiled, spans, hits, misses = _resilient(
            "OHara", ArtifactStore(resilient_bundle),
            inject=FaultInjector(FaultPlan()))
        assert compiled.runner.resolution.source == "jit"
        assert COMPILE_SPANS <= spans
        assert (hits, misses) == (0, 0)
        assert "artifact_lookup" not in spans


# ---------------------------------------------------------------------------
# the audit: every drift axis, independently
# ---------------------------------------------------------------------------


class TestAudit:
    def _key(self, bundle):
        manifest = json.loads((bundle / "manifest.json").read_text())
        (key,) = manifest["entries"]
        return key

    def _kinds(self, report):
        return {f.kind for f in report.findings}

    def test_fresh_bundle_is_clean(self, bundle):
        report = audit_bundle(bundle)
        assert report.ok and not report.findings
        assert report.checked == 1

    def test_pipeline_drift(self, bundle):
        _tamper(bundle, self._key(bundle), lambda e: e["provenance"]
                .__setitem__("pipeline_fingerprint", "bogus"))
        report = audit_bundle(bundle)
        assert not report.ok and self._kinds(report) == {"pipeline_drift"}

    def test_bundle_of_another_cache_format_is_format_drift(self, bundle):
        """A bundle built before a ``CACHE_FORMAT_VERSION`` bump: one
        ``format_drift`` per entry (not a ``key_mismatch``), no hit at
        run time, and a rebuild in place starts over and audits clean."""
        from repro.runtime.kernel_cache import CACHE_FORMAT_VERSION
        old_key = self._key(bundle)
        _tamper(bundle, old_key, lambda e: e["provenance"].__setitem__(
            "cache_format_version", CACHE_FORMAT_VERSION - 1))
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["cache_format_version"] = CACHE_FORMAT_VERSION - 1
        manifest_path.write_text(json.dumps(manifest))
        report = audit_bundle(bundle)
        assert not report.ok and report.checked == 1
        assert [f.kind for f in report.findings] == ["format_drift"]
        assert "rebuild the bundle" in report.findings[0].detail
        rebuilt = build_bundle(bundle, models=["Plonsey"], width=8)
        assert rebuilt.built == 1
        assert audit_bundle(bundle).ok

    def test_lowering_drift(self, bundle, monkeypatch):
        monkeypatch.setattr("repro.runtime.lowering.LOWERING_VERSION", 99)
        report = audit_bundle(bundle)
        assert not report.ok and "lowering_drift" in self._kinds(report)

    def test_source_drift(self, bundle):
        _tamper(bundle, self._key(bundle), lambda e: e["provenance"]
                .__setitem__("model_source_hash", "0" * 64))
        report = audit_bundle(bundle)
        assert not report.ok and self._kinds(report) == {"source_drift"}

    def test_key_mismatch_on_spec_edit(self, bundle):
        def flip_lut(entry):
            entry["spec"]["use_lut"] = not entry["spec"]["use_lut"]
        _tamper(bundle, self._key(bundle), flip_lut)
        report = audit_bundle(bundle)
        assert not report.ok and "key_mismatch" in self._kinds(report)

    def test_missing_entry(self, bundle):
        key = self._key(bundle)
        (bundle / f"{key}.json").unlink()
        report = audit_bundle(bundle)
        assert not report.ok and self._kinds(report) == {"missing"}

    def test_corrupt_entry_quarantined(self, bundle):
        key = self._key(bundle)
        path = bundle / f"{key}.json"
        path.write_text(path.read_text()[:40])
        report = audit_bundle(bundle)
        assert not report.ok and self._kinds(report) == {"corrupt"}
        assert not path.exists()
        assert (bundle / "quarantine" / f"{key}.json").exists()

    def test_stale_counter_increments(self, bundle):
        stale = _metric("artifact_stale_total")
        _tamper(bundle, self._key(bundle), lambda e: e["provenance"]
                .__setitem__("pipeline_fingerprint", "bogus"))
        audit_bundle(bundle)
        assert _metric("artifact_stale_total") == stale + 1

    def test_entry_with_the_parents_extra_fields_still_serves(self, bundle):
        """Bundles built before PR 23 carry three more entry fields."""
        def add_fields(entry):
            entry.update(tuning=None, tuning_workload=None,
                         omp_parallel=True, variant="default")
        _tamper(bundle, self._key(bundle), add_fields)
        assert audit_bundle(bundle).ok
        runner = runner_from_store("Plonsey", store=ArtifactStore(bundle))
        assert runner is not None and runner.artifact_hit


# ---------------------------------------------------------------------------
# satellite: the kernel cache under a read-only mount
# ---------------------------------------------------------------------------


class TestReadOnlyKernelCache:
    KEY = "a" * 64

    def _seed(self, root):
        cache = KernelCache(root)
        cache.store(self.KEY, "def k(): pass", "vector", 8, [], "k",
                    fused=False, arena=False)
        return cache

    def _open_unwritable(self, root, monkeypatch):
        """Open ``root`` as an unwritable mount; root ignores mode bits,
        so the write check itself is denied."""
        real_access = os.access

        def access(path, mode, **kwargs):
            return not mode & os.W_OK and real_access(path, mode, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(os, "access", access)
            return KernelCache(root)

    @staticmethod
    def _files(root):
        return {p.relative_to(root): p.read_bytes()
                for p in root.rglob("*") if p.is_file()}

    def test_read_only_serves_disk_hits_without_writing(self, tmp_path,
                                                        monkeypatch):
        self._seed(tmp_path)
        before = self._files(tmp_path)
        cache = self._open_unwritable(tmp_path, monkeypatch)
        assert not cache.writable
        assert cache.load(self.KEY) is not None
        assert cache.load("b" * 64) is None
        # stores land in the overlay, visible to this process only
        cache.store("b" * 64, "def k2(): pass", "vector", 8, [], "k2",
                    fused=False, arena=False)
        assert cache.load("b" * 64) is not None
        assert self._files(tmp_path) == before, \
            "read-only cache wrote to disk"

    def test_read_only_never_bumps_stats_or_mtimes(self, tmp_path,
                                                   monkeypatch):
        # a directory an older version wrote: its counter file stays
        # as it was and is not counted as an entry
        self._seed(tmp_path)
        legacy = tmp_path / "stats.json"
        legacy.write_text(json.dumps({"hits": 3, "misses": 1}))
        entry_mtime = (tmp_path / f"{self.KEY}.json").stat().st_mtime_ns
        cache = self._open_unwritable(tmp_path, monkeypatch)
        assert cache.load(self.KEY) is not None
        assert cache.load("c" * 64) is None
        assert json.loads(legacy.read_text()) == {"hits": 3, "misses": 1}
        assert (tmp_path / f"{self.KEY}.json").stat().st_mtime_ns \
            == entry_mtime, "read-only hit refreshed LRU recency"
        assert cache.persistent_stats().entries == 1

    def test_corrupt_entry_left_in_place_read_only(self, tmp_path,
                                                   monkeypatch):
        self._seed(tmp_path)
        path = tmp_path / f"{self.KEY}.json"
        path.write_text("{ torn")
        cache = self._open_unwritable(tmp_path, monkeypatch)
        assert cache.load(self.KEY) is None
        assert path.exists()
        assert not (tmp_path / "quarantine").exists()

    def test_store_failure_degrades_to_read_only(self, tmp_path,
                                                 monkeypatch):
        self._seed(tmp_path)
        fallbacks = _metric("cache_readonly_fallbacks_total")
        cache = KernelCache(tmp_path)

        def deny(path):
            raise OSError(30, "Read-only file system")
        monkeypatch.setattr("repro.runtime.kernel_cache.file_lock", deny)
        cache.store("b" * 64, "def k2(): pass", "vector", 8, [], "k2",
                    fused=False, arena=False)
        assert not cache.writable
        assert _metric("cache_readonly_fallbacks_total") == fallbacks + 1
        # prior disk entries keep hitting; the failed store is overlaid
        assert cache.load(self.KEY) is not None
        assert cache.load("b" * 64) is not None

    def test_unwritable_root_detected_at_open(self, tmp_path):
        root = tmp_path / "mount"
        self._seed(root)
        os.chmod(root, 0o555)
        try:
            if os.access(root, os.W_OK):
                pytest.skip("privileged process ignores directory modes")
            cache = KernelCache(root)
            assert not cache.writable
            assert cache.load(self.KEY) is not None
        finally:
            os.chmod(root, 0o755)


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------


class TestArtifactCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main
        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_build_all_then_list_then_audit(self, tmp_path, capsys):
        dest = str(tmp_path / "bundle")
        code, out = self.run_cli(capsys, "build-all", "--dest", dest,
                                 "--models", "Plonsey")
        assert code == 0 and "1 built" in out
        code, out = self.run_cli(capsys, "artifacts", "list",
                                 "--dir", dest)
        assert code == 0 and "Plonsey" in out
        code, out = self.run_cli(capsys, "artifacts", "audit",
                                 "--dir", dest)
        assert code == 0 and "all current" in out

    def test_audit_fails_loud_on_drift(self, tmp_path, capsys):
        dest = tmp_path / "bundle"
        build_bundle(dest, models=["Plonsey"])
        manifest = json.loads((dest / "manifest.json").read_text())
        (key,) = manifest["entries"]
        _tamper(dest, key, lambda e: e["provenance"]
                .__setitem__("pipeline_fingerprint", "bogus"))
        code, out = self.run_cli(capsys, "artifacts", "audit",
                                 "--dir", str(dest))
        assert code == 1 and "pipeline_drift" in out

    def test_build_all_without_dest_needs_env(self, capsys, monkeypatch):
        monkeypatch.delenv("LIMPET_ARTIFACT_DIR", raising=False)
        code, _ = self.run_cli(capsys, "build-all", "--models", "Plonsey")
        assert code == 2
