"""Stored kernel identity is pinned: keys, fingerprints and entry digests.

``tests/data/store_corpus.json`` holds, per zoo model, the kernel-cache
key and the bundle ``spec_fingerprint`` of its default kernel
(``repro.aot.build.default_kernel``, the one ``build-all`` builds:
limpetMLIR at width 8, baseline for the foreign models), and for the
``TIER1_MODELS`` the sha256 of the canonical JSON
of the kernel-cache payload and of the bundle entry (built at
``built_at=0``).  A cache or bundle written by an older checkout keeps
hitting only while all of these hold.

The digests leave out what depends on the interpreter: ``code`` (marshal
bytes differ between CPython versions), the checksum that covers it and
the bundle's recorded ``tool_versions``.

Re-record (only for a deliberate format change, with the matching
version bump) with
``PYTHONPATH=src python -m tests.pins --write --only store_corpus``.
"""

import functools
import hashlib
import json
import pathlib
import tempfile

import numpy as np
import pytest

from repro.aot import build_bundle
from repro.aot.build import default_kernel
from repro.aot.bundle import ArtifactKernel, spec_fingerprint
from repro.models import all_model_files, load_model
from repro.runtime import KernelCache
from repro.runtime.executor import KernelRunner
from repro.runtime.kernel_cache import kernel_cache_key
from repro.runtime.resolve import toolchain_identity

from . import pins
from .pins import TIER1_MODELS


def identity(name):
    """The default kernel's kernel-cache key and bundle fingerprint."""
    generated = default_kernel(load_model(name))
    spec = generated.spec
    fingerprint, _ = toolchain_identity()
    return {"key": kernel_cache_key(generated, fingerprint, True, False,
                                    True),
            "spec_fingerprint": spec_fingerprint(
                name, spec.mode.value, spec.width, spec.use_lut,
                spec.lut_interpolation)}


def digest(data):
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()).hexdigest()


def cache_payload(name, root):
    """The kernel-cache entry a JIT of ``name``'s default kernel writes."""
    runner = KernelRunner(default_kernel(load_model(name)),
                          cache=KernelCache(root),
                          artifacts=False)
    assert runner.resolution.source == "jit"
    return json.loads((root / f"{runner.resolution.key}.json").read_text())


def bundle_entries(root):
    """model name -> entry of a bundle of the ``TIER1_MODELS``."""
    report = build_bundle(root, models=TIER1_MODELS, width=8, built_at=0.0)
    assert report.ok
    entries = {}
    for path in root.glob("*.json"):
        if path.name != "manifest.json":
            entry = json.loads(path.read_text())
            entries[entry["spec"]["model"]] = entry
    return entries


def interpreter_free(entry):
    """``entry`` without the fields that depend on the interpreter."""
    entry = json.loads(json.dumps(entry))
    entry.pop("checksum")
    (entry["kernel"] if "kernel" in entry else entry).pop("code")
    entry.get("provenance", {}).pop("tool_versions", None)
    return entry


@functools.lru_cache(maxsize=None)
def stored():
    """(cache payloads, bundle entries) of the ``TIER1_MODELS``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        payloads = {name: cache_payload(name, root / "kernels")
                    for name in TIER1_MODELS}
        return payloads, bundle_entries(root / "bundle")


def record():
    payloads, entries = stored()
    return {
        "identity": {name: identity(name) for name in all_model_files()},
        "cache_payload": {name: digest(interpreter_free(p))
                          for name, p in payloads.items()},
        "cache_fields": list(payloads[TIER1_MODELS[0]]),
        "bundle_entry": {name: digest(interpreter_free(e))
                         for name, e in entries.items()},
    }


@pytest.fixture(scope="module")
def recorded():
    return pins.read("store_corpus")


def test_record_covers_the_zoo(recorded):
    assert sorted(recorded["identity"]) == sorted(all_model_files())
    assert len(recorded["identity"]) == 47
    assert sorted(recorded["cache_payload"]) == sorted(TIER1_MODELS)
    assert sorted(recorded["bundle_entry"]) == sorted(TIER1_MODELS)


def test_keys_and_spec_fingerprints_match_the_record(recorded):
    assert {name: identity(name) for name in recorded["identity"]} \
        == recorded["identity"]


@pytest.mark.parametrize("name", TIER1_MODELS)
def test_cache_payload_matches_the_record(recorded, name):
    payload = stored()[0][name]
    assert list(payload) == recorded["cache_fields"]
    assert digest(interpreter_free(payload)) \
        == recorded["cache_payload"][name]


@pytest.mark.parametrize("name", TIER1_MODELS)
def test_bundle_entry_matches_the_record(recorded, name):
    entry = stored()[1][name]
    assert entry["key"] == recorded["identity"][name]["key"]
    assert entry["spec_fingerprint"] \
        == recorded["identity"][name]["spec_fingerprint"]
    assert digest(interpreter_free(entry)) == recorded["bundle_entry"][name]


def test_source_only_payload_serves_a_bitwise_equal_kernel():
    """A payload without ``code`` but with ``fused`` / ``arena`` (what
    ``benchmarks/e2e/layers.py`` builds from a fresh lowering) is served
    by compiling its source, and runs the JIT kernel bit for bit."""
    payload = dict(stored()[0]["LuoRudy91"])
    for field in ("format", "code", "checksum"):
        payload.pop(field)
    assert payload["fused"] is True and payload["arena"] is False
    generated = default_kernel(load_model("LuoRudy91"))
    served = KernelRunner(ArtifactKernel(module=None, spec=generated.spec,
                                         layout=generated.layout,
                                         payload=payload), artifacts=False)
    assert served.resolution.source == "bundle"
    jit = KernelRunner(default_kernel(load_model("LuoRudy91")),
                       artifacts=False)
    assert jit.resolution.source == "jit"
    states = [r.run(r.make_state(16), 20, 0.01).state.state_matrix()
              for r in (jit, served)]
    assert np.array_equal(*states, equal_nan=True)
