"""``limpet-bench build-all``: AOT-compile the zoo into a bundle.

One build pass walks every requested model (default: all 47 shipped
model files), generates its default kernel — limpetMLIR where legal,
the baseline generator for the 4 foreign-function models, recorded as
ordinary baseline-tier entries rather than errors — runs the full
pipeline + verification + lowering once, and persists the result as a
checksummed bundle entry keyed by the exact kernel-cache key a runtime
JIT would compute.

The build is **idempotent**: an entry whose key is already in the
manifest and whose file passes its checksum is reused untouched, and
the manifest is rewritten only when something actually changed — a
second ``build-all`` over an up-to-date bundle is a byte-level no-op.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from ..codegen import backend_for, generate
from ..models import all_model_files, load_model, model_source_hash
from ..obs import metrics as _metrics
from ..runtime.kernel_cache import (CACHE_FORMAT_VERSION,
                                    kernel_cache_key, payload_checksum)
from ..runtime.locking import file_lock
from .bundle import (BUNDLE_FORMAT_VERSION, MANIFEST_NAME, MODELS_DIR,
                     layout_to_dict, spec_fingerprint)


@dataclass
class BuiltEntry:
    """One bundle entry's build outcome."""

    key: str
    model: str
    backend: str
    action: str                    # "built" | "reused" | "failed"
    seconds: float = 0.0
    error: Optional[str] = None


@dataclass
class BuildReport:
    """Outcome of one :func:`build_bundle` call."""

    root: str
    entries: List[BuiltEntry] = field(default_factory=list)
    manifest_written: bool = False

    @property
    def built(self) -> int:
        return sum(1 for e in self.entries if e.action == "built")

    @property
    def reused(self) -> int:
        return sum(1 for e in self.entries if e.action == "reused")

    @property
    def failed(self) -> List[BuiltEntry]:
        return [e for e in self.entries if e.action == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def describe(self) -> str:
        head = (f"bundle {self.root}: {self.built} built, "
                f"{self.reused} reused"
                + (f", {len(self.failed)} FAILED" if self.failed else "")
                + ("" if self.manifest_written
                   else " (manifest unchanged)"))
        lines = [head]
        for entry in self.failed:
            lines.append(f"  FAILED {entry.model}: {entry.error}")
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        return {"root": self.root, "built": self.built,
                "reused": self.reused,
                "failed": [e.model for e in self.failed],
                "manifest_written": self.manifest_written,
                "entries": [{"key": e.key, "model": e.model,
                             "backend": e.backend,
                             "action": e.action, "seconds": e.seconds,
                             "error": e.error}
                            for e in self.entries]}


def _tool_versions() -> Dict[str, str]:
    import numpy
    return {"python": platform.python_version(),
            "numpy": numpy.__version__}


def _fresh_manifest() -> Dict:
    return {"format": BUNDLE_FORMAT_VERSION, "created_at": None,
            "pipeline_fingerprint": None, "lowering_version": None,
            "cache_format_version": CACHE_FORMAT_VERSION,
            "tool_versions": {}, "entries": {}, "spec_index": {},
            "models": {}}


def _read_manifest(root: pathlib.Path) -> Dict:
    try:
        data = json.loads((root / MANIFEST_NAME).read_text())
    except (OSError, ValueError):
        return _fresh_manifest()
    if not isinstance(data, dict) \
            or data.get("format") != BUNDLE_FORMAT_VERSION \
            or data.get("cache_format_version") != CACHE_FORMAT_VERSION:
        # nothing keyed under another cache format can be reused
        return _fresh_manifest()
    for field_name in ("entries", "spec_index", "models"):
        if not isinstance(data.get(field_name), dict):
            data[field_name] = {}
    return data


def _atomic_write(path: pathlib.Path, payload: Dict) -> None:
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def build_bundle(dest: Union[str, pathlib.Path],
                 models: Optional[Sequence[str]] = None,
                 width: int = 8, use_lut: bool = True,
                 include_tuned: bool = False,
                 built_at: Optional[float] = None) -> BuildReport:
    """AOT-compile ``models`` (default: all 47) into the bundle ``dest``.

    ``built_at`` is the provenance timestamp recorded on newly built
    entries (default: now).  ``include_tuned`` is accepted and ignored:
    ``benchmarks/e2e/workloads.py:306`` passes it.  Idempotent — see
    the module docstring.
    """
    from ..obs import trace as _trace
    from ..runtime.resolve import resolve_kernel, toolchain_identity

    root = pathlib.Path(dest)
    root.mkdir(parents=True, exist_ok=True)
    if built_at is None:
        built_at = time.time()
    names = list(models) if models else all_model_files()
    fingerprint, lowering_version = toolchain_identity()
    tools = _tool_versions()
    manifest = _read_manifest(root)
    report = BuildReport(root=str(root))
    changed = False
    build_hist = _metrics.histogram(
        "artifact_build_seconds",
        "wall seconds to AOT-build one bundle entry")

    def failed(name: str, err: Exception, key: str = "",
               backend: str = "") -> None:
        report.entries.append(BuiltEntry(
            key=key, model=name, backend=backend, action="failed",
            error=f"{type(err).__name__}: {err}"))

    for name in names:
        try:
            model = load_model(name)
        except Exception as err:  # noqa: BLE001 - per-model boundary
            failed(name, err)
            continue
        source_hash = model_source_hash(name)
        if _write_model_blob(root, manifest, name, model, source_hash):
            changed = True
        start = time.perf_counter()
        try:
            # the 4 foreign-function models: first-class baseline-tier
            # entries, not build errors
            generated = generate(
                model, backend_for("limpet_mlir", width,
                                   bool(model.foreign_functions)),
                width=width, use_lut=use_lut)
            key = kernel_cache_key(generated, fingerprint, True, False,
                                   True)
        except Exception as err:  # noqa: BLE001 - per-model boundary
            failed(name, err)
            continue
        backend = generated.spec.mode.value
        if key in manifest["entries"] and _entry_file_valid(root, key):
            report.entries.append(BuiltEntry(
                key=key, model=name, backend=backend, action="reused"))
            continue
        try:
            with _trace.span("artifact_build", model=name):
                kernel, _ = resolve_kernel(generated)
                entry = _make_entry(key, generated, kernel, fingerprint,
                                    lowering_version, source_hash,
                                    built_at, tools)
            with file_lock(root / ".lock"):
                _atomic_write(root / f"{key}.json", entry)
        except Exception as err:  # noqa: BLE001 - per-model boundary
            failed(name, err, key, backend)
            continue
        seconds = time.perf_counter() - start
        build_hist.observe(seconds)
        manifest["entries"][key] = {
            "model": name, "backend": backend,
            "width": generated.spec.width,
            "file": f"{key}.json", "checksum": entry["checksum"],
            "source_hash": source_hash,
            "spec_fingerprint": entry["spec_fingerprint"],
        }
        manifest["spec_index"][entry["spec_fingerprint"]] = key
        changed = True
        report.entries.append(BuiltEntry(
            key=key, model=name, backend=backend, action="built",
            seconds=seconds))

    if changed or manifest.get("pipeline_fingerprint") != fingerprint \
            or manifest.get("lowering_version") != lowering_version:
        manifest["created_at"] = built_at
        manifest["pipeline_fingerprint"] = fingerprint
        manifest["lowering_version"] = lowering_version
        manifest["tool_versions"] = tools
        with file_lock(root / ".lock"):
            _atomic_write(root / MANIFEST_NAME, manifest)
        report.manifest_written = True
    return report


def _write_model_blob(root: pathlib.Path, manifest: Dict, name: str,
                      model, source_hash: str) -> bool:
    """Pickle the parsed model into the bundle; True when (re)written.

    The blob is what lets :func:`~repro.aot.bundle.runner_from_store`
    skip the EasyML parse on cold start.  Reused untouched when the
    recorded source hash still matches and the file verifies, so a
    second build stays a byte-level no-op.
    """
    import hashlib
    import pickle
    models = manifest.setdefault("models", {})
    record = models.get(name)
    path = root / MODELS_DIR / f"{name}.pkl"
    if isinstance(record, dict) \
            and record.get("source_hash") == source_hash:
        try:
            blob = path.read_bytes()
            if hashlib.sha256(blob).hexdigest() == record.get("checksum"):
                return False
        except OSError:
            pass
    blob = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with file_lock(root / ".lock"):
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    models[name] = {"file": f"{MODELS_DIR}/{name}.pkl",
                    "checksum": hashlib.sha256(blob).hexdigest(),
                    "source_hash": source_hash}
    return True


def _entry_file_valid(root: pathlib.Path, key: str) -> bool:
    try:
        entry = json.loads((root / f"{key}.json").read_text())
    except (OSError, ValueError):
        return False
    return isinstance(entry, dict) \
        and entry.get("format") == BUNDLE_FORMAT_VERSION \
        and entry.get("checksum") == payload_checksum(entry)


def _make_entry(key: str, generated, kernel, fingerprint: str,
                lowering_version: int, source_hash: str, built_at: float,
                tools: Dict) -> Dict:
    spec = generated.spec
    entry = {
        "format": BUNDLE_FORMAT_VERSION,
        "key": key,
        "spec": {
            "model": spec.model.name,
            "backend": spec.mode.value,
            "width": spec.width,
            "layout": layout_to_dict(generated.layout),
            "use_lut": spec.use_lut,
            "lut_interpolation": spec.lut_interpolation,
            "function_name": spec.function_name,
        },
        "kernel": {
            "function_name": kernel.name,
            "source": kernel.source,
            "mode": kernel.mode,
            "width": kernel.width,
            "arg_names": list(kernel.arg_names),
            "fused": kernel.fused,
            "arena": kernel.arena is not None,
        },
        "spec_fingerprint": spec_fingerprint(
            spec.model.name, spec.mode.value, spec.width, spec.use_lut,
            spec.lut_interpolation, pipeline_fingerprint=fingerprint),
        "provenance": {
            "model_source_hash": source_hash,
            "pipeline_fingerprint": fingerprint,
            "lowering_version": lowering_version,
            "cache_format_version": CACHE_FORMAT_VERSION,
            "built_at": built_at,
            "tool_versions": tools,
        },
    }
    entry["checksum"] = payload_checksum(entry)
    return entry
