"""Versioned AOT kernel artifact bundles: formats, store, fast path.

The paper's openCARP workflow ahead-of-time compiles every ionic model
once and ships the binaries into the tissue simulator; this package
reproduces that fleet shape.  ``limpet-bench build-all``
(:mod:`repro.aot.build`) compiles the whole model zoo into a **bundle
directory**: one JSON entry per kernel (lowered source + its marshalled code object + spec +
provenance + sha256 checksum) plus a bundle-level
``manifest.json``.  A bundle is immutable at runtime — processes mount
it read-only via ``$LIMPET_ARTIFACT_DIR`` and the
:class:`ArtifactStore` tier serves entries with **zero compile work**:
no passes, no verification, no lowering, bitwise-identical to the JIT
result (the entry *is* the JIT result, stored).

Two lookup paths exist, layered under the per-user kernel cache:

* **key lookup** — :class:`~repro.runtime.executor.KernelRunner`
  computes its content-addressed kernel-cache key as usual and, on an
  in-memory + per-user-cache miss, asks the store for that exact key.
  Covers every runner (supervised, population included).
* **spec lookup** (:func:`runner_from_store`) — resolves a kernel by
  its *logical coordinates* (model, backend, width, LUT/fuse flags)
  through the manifest's ``spec_index``, checking
  the model source hash, pipeline fingerprint and lowering version
  instead of re-deriving the key.  Skips IR generation entirely, and
  even the model *parse*: the bundle ships each parsed
  :class:`~repro.frontend.model.IonicModel` as a checksum-verified
  pickle blob (``models/<name>.pkl``), trusted exactly as far as the
  bundled kernel source we already ``exec`` — this is the zero-compile
  cold-start path (read + exec).

Staleness is structural: the spec fingerprint embeds the pipeline
fingerprint and ``LOWERING_VERSION``, and the manifest records each
entry's model source hash, so a drifted toolchain or edited model
misses cleanly and falls back to JIT (``limpet-bench artifacts audit``
reports exactly which entries drifted; see :mod:`repro.aot.audit`).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Dict, Optional, Union

from ..codegen.common import BackendMode, GeneratedKernel, KernelSpec
from ..codegen.layout import Layout, LayoutKind
from ..obs import metrics as _metrics
from ..runtime.kernel_cache import (CACHE_FORMAT_VERSION, quarantine_entry,
                                    read_entry)

#: bump to invalidate every existing bundle at once
BUNDLE_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: subdirectory holding pickled pre-parsed models (one per model)
MODELS_DIR = "models"

_ENV_DIR = "LIMPET_ARTIFACT_DIR"
_ENV_DISABLE = "LIMPET_ARTIFACTS"


def spec_fingerprint(model: str, backend: str, width: int,
                     use_lut: bool = True,
                     lut_interpolation: str = "linear",
                     fuse: bool = True, arena: bool = False,
                     verify: bool = True, population: str = "",
                     pipeline_fingerprint: Optional[str] = None) -> str:
    """Content address of a kernel's *logical coordinates*.

    Unlike :func:`~repro.runtime.kernel_cache.kernel_cache_key` this
    needs neither a parsed model nor a ``generate`` call, so the runtime
    can compute it from a model *name* — the whole point of the
    cold-start fast path.  It embeds the pipeline fingerprint and lowering version, so
    a drifted toolchain misses structurally; the model *source* drift
    is checked separately against the manifest's recorded hash (the
    source is an input we can hash cheaply, not a derived coordinate).

    The layout is deliberately absent: it is derived by the backend
    from (mode, width) and reconstructed from the entry payload.
    """
    from ..runtime.resolve import toolchain_identity
    default_fingerprint, lowering_version = toolchain_identity()
    if pipeline_fingerprint is None:
        pipeline_fingerprint = default_fingerprint
    lines = [
        f"bundle={BUNDLE_FORMAT_VERSION}",
        f"cache_format={CACHE_FORMAT_VERSION}",
        f"model={model}",
        f"backend={backend}",
        f"width={width}",
        f"use_lut={use_lut}",
        f"lut_interpolation={lut_interpolation}",
        f"fuse={fuse}",
        f"arena={arena}",
        f"verify={verify}",
        f"population={population}",
        "variant=default",      # byte-stable with format-1 bundles
        f"pipeline={pipeline_fingerprint}",
        f"lowering=v{lowering_version}",
    ]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class ArtifactKernel(GeneratedKernel):
    """A bundled kernel standing in for a freshly generated one.

    ``module`` is ``None`` — there is no IR; ``payload`` (the stored
    kernel, :func:`~repro.runtime.lowering.kernel_payload`) goes straight
    to :func:`~repro.runtime.lowering.kernel_from_payload`.
    :func:`~repro.runtime.resolve.resolve_kernel` recognizes this type
    and skips passes/verify/lowering entirely.
    """

    def __init__(self, module=None, spec=None, layout=None, key: str = "",
                 payload: Optional[Dict] = None, backend: str = ""):
        super().__init__(module, spec, layout)
        self.key = key
        self.payload = payload or {}
        self.backend = backend


def layout_from_dict(data: Dict) -> Layout:
    return Layout(LayoutKind(data["kind"]), int(data["n_states"]),
                  int(data.get("block", 1)))


def layout_to_dict(layout: Layout) -> Dict:
    return {"kind": layout.kind.value, "n_states": layout.n_states,
            "block": layout.block}


def kernel_from_entry(entry: Dict, model=None) -> ArtifactKernel:
    """Reconstruct a runnable :class:`ArtifactKernel` from one entry.

    ``model`` is the parsed :class:`~repro.frontend.model.IonicModel`
    (loaded from the registry when omitted); LUT tables and state
    allocation need the model's semantic analysis, so callers on the
    cold-start path pass the bundle's pre-parsed blob instead
    (:meth:`ArtifactStore.load_model_blob`).
    """
    spec_d = entry["spec"]
    if model is None:
        from ..models import load_model
        model = load_model(spec_d["model"])
    layout = layout_from_dict(spec_d["layout"])
    spec = KernelSpec(model=model, mode=BackendMode(spec_d["backend"]),
                      width=int(spec_d["width"]), layout=layout,
                      use_lut=bool(spec_d["use_lut"]),
                      lut_interpolation=spec_d["lut_interpolation"],
                      function_name=spec_d["function_name"])
    return ArtifactKernel(module=None, spec=spec, layout=layout,
                          key=entry["key"], payload=entry["kernel"],
                          backend=spec_d["backend"])


def _log_artifact_diagnostic(message: str, severity=None, **data) -> None:
    from ..resilience.diagnostics import (Diagnostic, Severity,
                                          log_diagnostic)
    log_diagnostic(Diagnostic(
        stage="cache", component="artifacts", message=message,
        severity=severity or Severity.WARNING, data=dict(data)))


def corrupt_counter():
    """``artifact_corrupt_total``: corrupt bundle entries, blobs and
    manifests, counted by the runtime store and the audit alike."""
    return _metrics.counter(
        "artifact_corrupt_total",
        "corrupt AOT artifact entries/manifests detected")


def count_stale() -> None:
    """``artifact_stale_total``: bundle entries whose inputs drifted,
    counted by the runtime store and the audit alike."""
    _metrics.counter(
        "artifact_stale_total",
        "AOT artifact entries found stale (drifted inputs)").inc()


def _count_hit() -> None:
    _metrics.counter("artifact_hits_total",
                     "AOT artifact-tier kernel hits").inc()


def _count_miss() -> None:
    _metrics.counter("artifact_misses_total",
                     "AOT artifact-tier kernel misses").inc()


class ArtifactStore:
    """Read-only access to one bundle directory.

    Strictly never writes at runtime — the directory may be a
    read-only mount shared by a whole process fleet.  Corrupt entries
    are diagnosed and counted (``artifact_corrupt_total``) but left in
    place; ``limpet-bench artifacts audit`` is the tool with write
    access that quarantines them.

    The manifest is cached per store and revalidated against the
    file's stat signature, so repeated lookups in one process do not
    re-read it but an updated bundle is picked up.
    """

    def __init__(self, root: Union[str, pathlib.Path]):
        self.root = pathlib.Path(root)
        self._manifest: Optional[Dict] = None
        self._manifest_sig: Optional[tuple] = None

    def entry_path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def model_path(self, name: str) -> pathlib.Path:
        return self.root / MODELS_DIR / f"{name}.pkl"

    def load_model_blob(self, name: str,
                        source_hash: Optional[str] = None):
        """The bundled pre-parsed model, or None (then parse instead).

        The blob is sha256-verified against the manifest record, and —
        when the caller passes the entry's ``source_hash`` — cross-
        checked against the source the kernel was built from, so a
        blob can never outlive the model file it parses.  Any failure
        (missing, corrupt, unpicklable after a code change) is a soft
        miss: callers fall back to :func:`repro.models.load_model`.
        """
        manifest = self.manifest()
        if manifest is None:
            return None
        record = manifest.get("models", {}).get(name)
        if not isinstance(record, dict):
            return None
        if source_hash is not None and \
                record.get("source_hash") != source_hash:
            return None
        path = self.model_path(name)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        if hashlib.sha256(blob).hexdigest() != record.get("checksum"):
            self._note_corrupt(path, "model blob checksum mismatch")
            return None
        import pickle
        try:
            return pickle.loads(blob)
        except Exception as err:  # noqa: BLE001 - version-drifted pickle
            _log_artifact_diagnostic(
                f"bundled model {name} failed to unpickle "
                f"({type(err).__name__}); parsing instead",
                model=name, root=str(self.root))
            return None

    def manifest_path(self) -> pathlib.Path:
        return self.root / MANIFEST_NAME

    def manifest(self) -> Optional[Dict]:
        """The parsed bundle manifest, or None (missing/unreadable)."""
        path = self.manifest_path()
        try:
            stat = path.stat()
            sig = (stat.st_mtime_ns, stat.st_size)
        except OSError:
            self._manifest = None
            self._manifest_sig = None
            return None
        if self._manifest is not None and sig == self._manifest_sig:
            return self._manifest
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as err:
            _log_artifact_diagnostic(
                f"unreadable bundle manifest {path}: "
                f"{type(err).__name__}", root=str(self.root))
            corrupt_counter().inc()
            return None
        if not isinstance(data, dict) \
                or data.get("format") != BUNDLE_FORMAT_VERSION:
            return None
        self._manifest = data
        self._manifest_sig = sig
        return data

    def load_key(self, key: str) -> Optional[Dict]:
        """The full, checksum-verified entry for ``key``, or None.

        Does not count hit/miss metrics — callers (the runner tier,
        :func:`runner_from_store`) count at their own granularity.
        """
        path = self.entry_path(key)
        entry, corrupt = read_entry(path, BUNDLE_FORMAT_VERSION)
        if corrupt is not None:
            self._note_corrupt(path, corrupt)
        return entry

    def _note_corrupt(self, path: pathlib.Path, reason: str) -> None:
        quarantine_entry(self.root, path, reason, "artifacts",
                         corrupt_counter(), move=False)

    def lookup_kernel(self, key: str) -> Optional[Dict]:
        """The runtime tier: the ``kernel`` payload for ``key``.

        Counts ``artifact_hits_total``/``artifact_misses_total``.
        """
        entry = self.load_key(key)
        if entry is None or not isinstance(entry.get("kernel"), dict):
            _count_miss()
            return None
        _count_hit()
        return entry["kernel"]


_STORES: Dict[str, ArtifactStore] = {}


def default_artifact_dir() -> Optional[pathlib.Path]:
    """``$LIMPET_ARTIFACT_DIR``, or None when no bundle is mounted."""
    env = os.environ.get(_ENV_DIR)
    return pathlib.Path(env) if env else None


def default_store() -> Optional[ArtifactStore]:
    """The process-wide store for ``$LIMPET_ARTIFACT_DIR``, or None.

    ``LIMPET_ARTIFACTS=off`` disables the tier even with a mounted
    bundle (mirrors ``LIMPET_KERNEL_CACHE=off``).
    """
    if os.environ.get(_ENV_DISABLE, "").lower() in ("off", "0", "no"):
        return None
    root = default_artifact_dir()
    if root is None:
        return None
    store = _STORES.get(str(root))
    if store is None:
        store = ArtifactStore(root)
        _STORES[str(root)] = store
    return store


def resolve_store(artifacts) -> Optional[ArtifactStore]:
    """Normalize a runner's ``artifacts=`` argument to a store.

    ``None`` → the env-configured default (usually None), ``False`` →
    disabled, an :class:`ArtifactStore` → itself, a path → a store on
    that path.
    """
    if artifacts is None:
        return default_store()
    if artifacts is False:
        return None
    if isinstance(artifacts, ArtifactStore):
        return artifacts
    return ArtifactStore(artifacts)


def runner_from_store(model, backend: str = "limpet_mlir",
                      width: int = 8, use_lut: bool = True,
                      lut_interpolation: str = "linear",
                      fuse: bool = True, population: str = "",
                      store: Optional[ArtifactStore] = None,
                      **runner_kwargs):
    """The zero-compile cold-start path: a runner straight from a bundle.

    Resolves the requested kernel through the manifest's spec index —
    no IR generation, no pipeline, no lowering; the only compile-stage
    work left is parsing the model file.  Returns ``None`` on any miss
    (no bundle, unknown spec, drifted model source, corrupt entry) so
    callers fall back to the ordinary JIT path.

    ``runner_kwargs`` go to :func:`~repro.runtime.tiers.make_runner`
    (``workers=`` included).
    """
    store = store if store is not None else default_store()
    if store is None:
        return None
    manifest = store.manifest()
    if manifest is None:
        return None
    name = model if isinstance(model, str) else model.name
    fp = spec_fingerprint(name, backend, width, use_lut,
                          lut_interpolation, fuse, False, True,
                          population)
    key = manifest.get("spec_index", {}).get(fp)
    ment = manifest.get("entries", {}).get(key) if key else None
    if ment is None:
        _count_miss()
        return None
    try:
        from ..models import model_source_hash
        current_hash = model_source_hash(name)
    except Exception:
        _count_miss()
        return None
    if ment.get("source_hash") != current_hash:
        count_stale()
        _log_artifact_diagnostic(
            f"artifact for {name} is stale (model source drifted); "
            "falling back to JIT", model=name, key=key)
        _count_miss()
        return None
    entry = store.load_key(key)
    if entry is None:
        _count_miss()
        return None
    parsed = None if isinstance(model, str) else model
    if parsed is None:
        # the bundled pre-parsed model saves the one remaining
        # compile-stage cost (the EasyML parse + frontend analysis)
        parsed = store.load_model_blob(name, source_hash=current_hash)
    try:
        kernel = kernel_from_entry(entry, model=parsed)
    except Exception as err:
        _log_artifact_diagnostic(
            f"artifact entry {key[:12]}… unusable "
            f"({type(err).__name__}); falling back to JIT",
            model=name, key=key)
        _count_miss()
        return None
    from ..runtime.tiers import make_runner
    runner = make_runner(kernel, fuse=fuse, artifacts=False,
                         **runner_kwargs)
    _count_hit()
    from ..obs import ledger as _ledger
    _ledger.record_event("artifact_load", model=name, backend=backend,
                         key=key, cache="artifact", disposition="ok")
    return runner
