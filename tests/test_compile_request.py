"""The kernel-cache key is the compile request, and the IR is lazy.

What a source-level key must still see (every input of the generators),
what it must not (the process, the IR being built or not), and that the
stores keyed by it keep same-named models with different text apart.
"""

import json
import subprocess
import sys

import pytest

from repro import codegen
from repro.codegen import backends, common
from repro.easyml import SemanticError
from repro.frontend import load_model as load_source
from repro.ir.passes import default_pipeline
from repro.models import (all_model_files, load_model, model_entry,
                          model_source_hash)
from repro.resilience import compile_resilient
from repro.runtime import KernelCache, KernelRunner, kernel_cache_key

FP = default_pipeline(verify_each=False).fingerprint()
TEXT = model_entry("LuoRudy91").path.read_text()


def key_of(generated) -> str:
    return kernel_cache_key(generated, FP, True, False, True)


def luo_rudy(text: str = TEXT, **kwargs):
    return load_source(text, "LuoRudy91", **kwargs)


class TestKeySensitivity:
    def test_same_text_same_key_without_building_ir(self, monkeypatch):
        monkeypatch.setattr(backends, "emit_kernel", None)  # never called
        a = key_of(codegen.generate(luo_rudy()))
        assert a == key_of(codegen.generate(luo_rudy()))

    def test_one_changed_byte_of_model_text(self):
        assert key_of(codegen.generate(luo_rudy())) != \
            key_of(codegen.generate(luo_rudy(TEXT + " ")))

    def test_promoted_params(self):
        params = luo_rudy().params
        assert key_of(codegen.generate(luo_rudy())) != key_of(
            codegen.generate(luo_rudy(promote_params=sorted(params)[:1])))

    def test_target_behind_equal_coordinates(self):
        model = luo_rudy()
        aos = codegen.generate_limpet_mlir(model, 8, layout="aos")
        icc = codegen.generate_icc_simd(model, 8)
        assert (aos.spec.width, str(aos.layout), aos.spec.function_name) \
            == (icc.spec.width, str(icc.layout), icc.spec.function_name)
        assert key_of(aos) != key_of(icc)

    def test_function_name(self):
        model = luo_rudy()
        assert key_of(codegen.generate_baseline(model)) != key_of(
            codegen.generate_baseline(model, function_name="other"))

    def test_gpu_launch_geometry(self):
        model = luo_rudy()
        keys = {key_of(codegen.generate_gpu(model)),
                key_of(codegen.generate_gpu(model, block_size=64)),
                key_of(codegen.generate_gpu(model, grid_size=32))}
        assert len(keys) == 3
        assert key_of(codegen.generate_gpu(model)) == key_of(
            codegen.generate_gpu(
                model, grid_size=codegen.backends.DEFAULT_GRID_SIZE,
                block_size=codegen.backends.DEFAULT_BLOCK_SIZE))

    def test_generator_version(self, monkeypatch):
        before = key_of(codegen.generate(luo_rudy()))
        monkeypatch.setattr(common, "GENERATOR_VERSION",
                            common.GENERATOR_VERSION + 1)
        assert key_of(codegen.generate(luo_rudy())) != before

    def test_a_fresh_process_derives_the_same_key(self):
        script = (
            "from repro import codegen\n"
            "from repro.ir.passes import default_pipeline\n"
            "from repro.models import load_model\n"
            "from repro.runtime import kernel_cache_key\n"
            "fp = default_pipeline(verify_each=False).fingerprint()\n"
            "print(kernel_cache_key(codegen.generate(load_model("
            "'LuoRudy91')), fp, True, False, True))\n")
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == key_of(codegen.generate(luo_rudy()))

    def test_no_digest_no_key(self):
        model = luo_rudy()
        model.source_digest = ""
        with pytest.raises(ValueError, match="source digest"):
            key_of(codegen.generate(model))
        # ...but such a model still compiles and runs without a store
        KernelRunner(codegen.generate(model), artifacts=False)

    def test_registry_digest_is_the_file_hash(self):
        """The bundle's source-drift check hashes the file; same bytes
        as the digest the kernel-cache key carries."""
        for name in all_model_files():
            assert load_model(name).source_digest == model_source_hash(name)


class TestRunnerAndHandKeyAgree:
    def test_runner_stores_under_the_key_computed_by_hand(self, tmp_path):
        cache = KernelCache(tmp_path)
        runner = KernelRunner(codegen.generate(luo_rudy()), cache=cache)
        by_hand = key_of(codegen.generate(luo_rudy()))
        assert runner.cache_key == by_hand
        assert cache.load(by_hand)["source"] == runner.kernel.source

    def test_module_stays_readable_and_assignable(self):
        generated = codegen.generate(luo_rudy())
        module = generated.module
        assert module is generated.module
        generated.module = None
        assert generated.module is None


class TestSameNameOtherText:
    OTHER = TEXT.replace("GNa = 23", "GNa = 11")

    def test_own_cache_entry(self, tmp_path):
        assert self.OTHER != TEXT
        cache = KernelCache(tmp_path)
        a = KernelRunner(codegen.generate(luo_rudy()), cache=cache)
        b = KernelRunner(codegen.generate(luo_rudy(self.OTHER)),
                         cache=cache)
        assert not a.cache_hit and not b.cache_hit
        assert a.cache_key != b.cache_key
        assert a.kernel.source != b.kernel.source
        again = KernelRunner(codegen.generate(luo_rudy(self.OTHER)),
                             cache=cache)
        assert again.cache_hit and again.kernel.source == b.kernel.source


class TestOldFormatEntries:
    def test_parent_format_entry_is_a_miss_and_is_refilled(self, tmp_path):
        from repro.runtime.kernel_cache import (CACHE_FORMAT_VERSION,
                                                payload_checksum)
        cache = KernelCache(tmp_path)
        first = KernelRunner(codegen.generate(luo_rudy()), cache=cache)
        path = cache._path(first.cache_key)
        payload = json.loads(path.read_text())
        payload["format"] = CACHE_FORMAT_VERSION - 1
        payload["source"] = "raise SystemExit('a wrong hit')"
        payload["checksum"] = payload_checksum(payload)
        path.write_text(json.dumps(payload))
        second = KernelRunner(codegen.generate(luo_rudy()), cache=cache)
        assert not second.cache_hit
        assert second.kernel.source == first.kernel.source
        assert KernelRunner(codegen.generate(luo_rudy()),
                            cache=cache).cache_hit


class TestLazyEmissionErrors:
    def test_emission_error_falls_to_the_next_tier(self, monkeypatch):
        emit = backends.emit_kernel

        def failing(spec, target, **launch):
            if target is backends.LIMPET_MLIR:
                raise SemanticError("codegen: injected emission failure")
            return emit(spec, target, **launch)

        monkeypatch.setattr(backends, "emit_kernel", failing)
        model = luo_rudy()
        codegen.generate(model)         # nothing raised at generate time
        compiled = compile_resilient(model, artifacts=False)
        assert compiled.backend == "icc_simd" and compiled.fell_back
        assert any("injected emission failure" in d.message
                   for d in compiled.diagnostics)
        with pytest.raises(SemanticError):
            compile_resilient(model, artifacts=False, strict=True)
