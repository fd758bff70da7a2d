"""Store hits load bytecode: kernel-cache and bundle payloads carry the
marshalled code object (``code``, tagged with the interpreter's magic
number), so a hit never runs CPython's compiler on the lowered source.
A foreign tag or a source-only payload is served by compiling
``source``; a tampered ``code`` fails the checksum before any
``marshal.loads``."""

import base64
import builtins
import contextlib
import json
import marshal
import os
import pathlib
import subprocess
import sys
from importlib.util import MAGIC_NUMBER

import numpy as np
import pytest

from repro.aot import ArtifactStore, build_bundle, runner_from_store
from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.obs import metrics
from repro.runtime import KernelCache
from repro.runtime.executor import KernelRunner
from repro.runtime.kernel_cache import payload_checksum

MODELS = ["TomekORd", "IyerMazhariWinslow", "HeijmanRudy", "OHara",
          "Courtemanche"]
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def lowered_compiles():
    """Filenames of every ``compile()`` of lowered kernel source."""
    seen, real = [], builtins.compile

    def spy(source, filename, *args, **kwargs):
        if str(filename).startswith("<lowered:"):
            seen.append(filename)
        return real(source, filename, *args, **kwargs)

    builtins.compile = spy
    try:
        yield seen
    finally:
        builtins.compile = real


@contextlib.contextmanager
def marshal_loads():
    """Every buffer ``marshal.loads`` is handed."""
    seen, real = [], marshal.loads

    def spy(data, *args, **kwargs):
        seen.append(bytes(data))
        return real(data, *args, **kwargs)

    marshal.loads = spy
    try:
        yield seen
    finally:
        marshal.loads = real


def cache_runner(name, root):
    return KernelRunner(generate_limpet_mlir(load_model(name), width=8),
                        cache=KernelCache(root), artifacts=False)


def rewrite(path, mutate, rechecksum=True):
    """Edit one stored payload in place."""
    payload = json.loads(path.read_text())
    mutate(payload)
    if rechecksum:
        payload["checksum"] = payload_checksum(payload)
    path.write_text(json.dumps(payload))


def final_state(runner):
    result = runner.run(runner.make_state(16), 20, 0.01)
    return result.state.state_matrix()


@pytest.fixture
def warm_cache(tmp_path):
    """A kernel cache holding one entry (Plonsey), and that entry's file."""
    root = tmp_path / "kernels"
    resolution = cache_runner("Plonsey", root).resolution
    assert resolution.source == "jit"
    return root, root / f"{resolution.key}.json"


def test_cache_payload_carries_tagged_code(warm_cache):
    _, path = warm_cache
    packed = base64.b64decode(json.loads(path.read_text())["code"])
    assert packed[:len(MAGIC_NUMBER)] == MAGIC_NUMBER
    code = marshal.loads(packed[len(MAGIC_NUMBER):])
    assert code.co_filename.startswith("<lowered:")


def test_cache_hit_compiles_nothing(warm_cache):
    root, _ = warm_cache
    with lowered_compiles() as seen:
        runner = cache_runner("Plonsey", root)
    assert runner.resolution.source == "cache"
    assert seen == []


def test_bundle_hit_compiles_nothing(tmp_path):
    build_bundle(tmp_path, models=["Plonsey"], width=8)
    load_model.cache_clear()
    with lowered_compiles() as seen:
        runner = runner_from_store("Plonsey", width=8,
                                   store=ArtifactStore(tmp_path))
    assert runner is not None and runner.artifact_hit
    assert seen == []


@pytest.mark.parametrize("mutate", [
    pytest.param(lambda p: p.update(code=base64.b64encode(
        b"\0\0\r\n" + base64.b64decode(p["code"])[4:]).decode()),
        id="foreign_magic"),
    pytest.param(lambda p: p.pop("code"), id="no_code_field"),
])
def test_fallback_compiles_the_source(warm_cache, mutate):
    root, path = warm_cache
    rewrite(path, mutate)
    with lowered_compiles() as seen, marshal_loads() as loads:
        runner = cache_runner("Plonsey", root)
    assert runner.resolution.source == "cache"
    assert len(seen) == 1
    assert loads == []


def test_tampered_code_is_quarantined_before_unmarshalling(warm_cache):
    root, path = warm_cache
    code = json.loads(path.read_text())["code"]
    i = len(code) // 2
    tampered = code[:i] + ("A" if code[i] != "A" else "B") + code[i + 1:]
    rewrite(path, lambda p: p.update(code=tampered), rechecksum=False)
    cache = KernelCache(root)
    with marshal_loads() as loads:
        payload = cache.load(path.stem)
    assert payload is None
    assert metrics.counter("kernel_cache_corrupt_total").value == 1
    assert list((root / "quarantine").glob("*.json"))
    assert loads == []


def test_tampered_bundle_code_is_a_miss_before_unmarshalling(tmp_path):
    build_bundle(tmp_path, models=["Plonsey"], width=8)
    (path,) = [p for p in tmp_path.glob("*.json")
               if p.name != "manifest.json"]
    rewrite(path, lambda e: e["kernel"].update(
        code=e["kernel"]["code"][::-1]), rechecksum=False)
    with marshal_loads() as loads:
        runner = runner_from_store("Plonsey", width=8,
                                   store=ArtifactStore(tmp_path))
    assert runner is None
    assert loads == []


def test_four_paths_are_bitwise_equal(tmp_path):
    """JIT, cache hit (bytecode), cache hit (compile fallback) and bundle
    hit run the same kernel."""
    cache_root, bundle_root = tmp_path / "kernels", tmp_path / "bundle"
    build_bundle(bundle_root, models=MODELS, width=8)
    for name in MODELS:
        jit = cache_runner(name, cache_root)
        assert jit.resolution.source == "jit"
        hit = cache_runner(name, cache_root)
        assert hit.resolution.source == "cache"
        assert hit.kernel.code is not None
        rewrite(cache_root / f"{hit.resolution.key}.json",
                lambda p: p.pop("code"))
        with lowered_compiles() as seen:
            fallback = cache_runner(name, cache_root)
        assert fallback.resolution.source == "cache" and len(seen) == 1
        bundled = runner_from_store(name, width=8,
                                    store=ArtifactStore(bundle_root))
        assert bundled is not None and bundled.artifact_hit
        ref = final_state(jit)
        for runner in (hit, fallback, bundled):
            assert np.array_equal(final_state(runner), ref, equal_nan=True)


_BUILD = """
import json, pathlib, sys
from repro.aot import build_bundle
root = pathlib.Path(sys.argv[1])
build_bundle(root, models=["OHara"], width=8, built_at=0.0)
(entry,) = [p for p in root.glob("*.json") if p.name != "manifest.json"]
print(json.loads(entry.read_text())["kernel"]["code"])
"""


def test_fresh_process_builds_write_identical_code(tmp_path):
    """``marshal`` output is deterministic across processes (and hash
    seeds), so a rebuilt bundle entry is byte-identical."""
    codes = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        out = subprocess.run(
            [sys.executable, "-c", _BUILD, str(tmp_path / seed)], env=env,
            check=True, capture_output=True, text=True).stdout
        codes.append(out.strip())
    assert codes[0] and codes[0] == codes[1]


def test_packing_ignores_reference_counts(warm_cache):
    """Marshal version 3 flags an object for back-reference only when
    its reference count exceeds one, so its bytes move once the kernel
    module has run; the packed form must not."""
    from repro.runtime.lowering import pack_code
    _, path = warm_cache
    code = compile(json.loads(path.read_text())["source"], "<lowered:k>",
                   "exec")
    before = pack_code(code)
    namespace = {}
    exec(code, namespace)
    assert pack_code(code) == before
