"""Persistent kernel cache: content-addressed lowered sources on disk.

Constructing a :class:`~repro.runtime.executor.KernelRunner` normally
pays for a full fixed-point pass pipeline, module verification, and
lowering — per kernel, on every process.  For sweep workloads over the
47-model suite that construction cost dominates short runs, so this
module caches the *product* of that work (the lowered Python source,
its marshalled code object and their metadata) under a content address combining:

* the compile request (:class:`~repro.codegen.common.CompileRequest`):
  sha256 of the model text, promoted parameters, emitter target, width,
  layout, LUT options, function name, a constant ``launch=()`` line
  and ``GENERATOR_VERSION`` — everything the generated IR is a function of,
  known before any IR is built;
* the pass pipeline fingerprint
  (:meth:`~repro.ir.passes.pass_manager.PassManager.fingerprint`);
* the lowering version (:data:`~repro.runtime.lowering.LOWERING_VERSION`)
  and the fuse flag (plus an ``arena`` flag that is always false, kept
  so existing keys do not move).

A hit skips passes, verification and lowering entirely, and compiles
nothing: the cached code object is unmarshalled and exec'd (the source
is compiled instead only for another interpreter's bytecode or an entry
written without it).  Both stores share this module's entry check
(:func:`read_entry`), quarantine (:func:`quarantine_entry`) and write
(:func:`write_atomic`).  A load is a read: it writes nothing but a
hit's LRU mtime.  Hit/miss counts are this process's
(the ``kernel_cache_*_total`` metrics); across processes they are the run ledger's ``cache=`` column, and
``limpet-bench cache-stats`` reports what the directory holds.

Crash safety (the cache is shared by every process of a sweep, and by
supervised worker processes):

* every entry carries a **sha256 checksum** over its payload, verified
  on read — a torn or tampered entry is **quarantined** (moved to
  ``<root>/quarantine/``, recorded as a
  :class:`~repro.resilience.diagnostics.Diagnostic` and a
  ``kernel_cache_corrupt_total`` metric) instead of poisoning every
  later consumer, then treated as a miss and rebuilt;
* stores and evictions run under an **advisory ``flock``**
  (:mod:`repro.runtime.locking`) so concurrent writers serialize, and
  land through :func:`write_atomic`, so no reader sees a torn entry;
* a root that cannot be written (a read-only ``$LIMPET_CACHE_DIR``
  mount, the shared AOT artifact tier, a path under a file, a full
  disk) **stops being written**: disk hits keep being served with no
  LRU touches and no lock attempts, corrupt entries are left in place,
  and this process's stores land in an in-process overlay — with a
  logged Diagnostic and ``cache_readonly_fallbacks_total`` instead of
  raising at first write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..obs import metrics as _metrics
from .locking import file_lock
from .lowering import CompiledKernel, kernel_payload

#: bump to invalidate every existing cache entry at once
#: (v2: entries carry a payload checksum, verified on read;
#: v3: keyed by the compile request instead of the printed module)
CACHE_FORMAT_VERSION = 3

_ENV_DIR = "LIMPET_CACHE_DIR"
_ENV_DISABLE = "LIMPET_KERNEL_CACHE"

#: subdirectory corrupt entries are moved into (never scanned by LRU)
QUARANTINE_DIR = "quarantine"


@dataclass
class CacheStats:
    """What one cache's directory holds
    (:meth:`KernelCache.persistent_stats`): entries, bytes and, as
    ``corrupt``, the quarantined count."""

    entries: int = 0
    bytes: int = 0
    corrupt: int = 0


def kernel_cache_key(generated, pipeline_fingerprint: str,
                     fuse: bool, arena: bool, verify: bool,
                     population: str = "") -> str:
    """Content address for one (request, pipeline, lowering) point.

    ``generated`` is a :class:`~repro.codegen.common.GeneratedKernel`;
    only its :class:`~repro.codegen.common.CompileRequest` is read, never
    its module, so the key costs a hash of a few lines whether or not
    any IR exists yet.  The pipeline's effect is captured by its
    fingerprint, the generators' by ``GENERATOR_VERSION`` (in the
    request).  A kernel without a request, or whose model carries no
    source digest, has no key: ``ValueError``.

    ``population`` is the population-shape fingerprint (promoted
    parameter names + instance count, never the swept values): sweeps
    of the same shape share one compiled kernel.  The line is only
    added when set.
    """
    from .lowering import LOWERING_VERSION
    if generated.request is None:
        raise ValueError("kernel has no compile request to key it by")
    lines = [
        f"format={CACHE_FORMAT_VERSION}",
        f"model={generated.spec.model.name}",
        f"pipeline={pipeline_fingerprint}",
        f"lowering=v{LOWERING_VERSION};fuse={fuse};arena={arena}",
        f"verify={verify}",
    ]
    if population:
        lines.append(f"population={population}")
    lines += ["request:", *generated.request.key_lines()]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def payload_checksum(payload: Dict) -> str:
    """sha256 over the canonical JSON of ``payload`` minus ``checksum``."""
    material = {k: v for k, v in payload.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()).hexdigest()


def read_entry(path: pathlib.Path,
               fmt: int) -> Tuple[Optional[Dict], Optional[str]]:
    """One stored entry of either store, read and checked.

    ``(entry, None)`` for a JSON object of format ``fmt`` whose
    ``checksum`` matches :func:`payload_checksum`; ``(None, reason)``
    for a corrupt one; ``(None, None)`` for a missing entry (a root
    under a file included) or one of another format, which is a plain
    miss.
    """
    try:
        entry = json.loads(path.read_text())
    except (FileNotFoundError, NotADirectoryError):
        return None, None
    except (OSError, ValueError) as err:
        return None, f"unreadable ({type(err).__name__})"
    if not isinstance(entry, dict):
        return None, "payload is not an object"
    if entry.get("format") != fmt:
        return None, None
    if entry.get("checksum") != payload_checksum(entry):
        return None, "checksum mismatch"
    return entry, None


def quarantine_entry(root: pathlib.Path, path: pathlib.Path, reason: str,
                     component: str, counter,
                     move: bool = True) -> Optional[pathlib.Path]:
    """Move a corrupt entry into ``<root>/quarantine/`` so it cannot
    poison later reads (dropped when the move fails), log a Diagnostic
    and bump ``counter``.  Returns where the entry went, if anywhere.

    With ``move=False`` (a read-only root) the entry is left in place
    and only the Diagnostic and the count are recorded.
    """
    target = None
    if move:
        try:
            qdir = root / QUARANTINE_DIR
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            os.replace(path, target)
        except OSError:
            target = None
            try:
                path.unlink()
            except OSError:
                pass
    from ..resilience.diagnostics import (Diagnostic, Severity,
                                          log_diagnostic)
    verb = "quarantined" if move else "left in place (read-only)"
    log_diagnostic(Diagnostic(
        stage="cache", component=component,
        message=f"corrupt entry {path.name} {verb}: {reason}",
        severity=Severity.WARNING,
        data={"entry": path.name, "root": str(root),
              "quarantined_to": str(target) if target else None}))
    counter.inc()
    return target


def write_atomic(path: pathlib.Path, data: Union[str, bytes]) -> None:
    """Replace ``path`` by ``data`` through a tmp file and ``os.replace``:
    a reader sees the old file or the new one, never a torn write.  A
    failed write removes its tmp file and raises."""
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        if isinstance(data, bytes):
            tmp.write_bytes(data)
        else:
            tmp.write_text(data)
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise


class KernelCache:
    """A directory of content-addressed lowered-kernel entries.

    Each entry is one JSON file ``<key>.json``: a kernel's payload
    (:func:`~repro.runtime.lowering.kernel_payload`) plus ``format``
    and ``checksum``.  The cache is LRU-bounded by entry count (file
    mtime is the recency signal), checksum-verified on read (corrupt
    entries are quarantined, not served) and flock-serialized on
    store.  A load writes nothing but a hit's mtime.

    A root that was unwritable at start, failed ``mkdir``, or raised
    ``OSError`` on a store stops being written: the cache keeps serving
    what the disk holds and keeps its own stores in an in-process
    overlay.
    """

    def __init__(self, root, max_entries: int = 512):
        self.root = pathlib.Path(root)
        self.max_entries = max_entries
        #: this process's stores once the root stopped being written
        self._overlay: Dict[str, Dict] = {}
        self._writable = True
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            self._stop_writing(err)
            return
        if not os.access(self.root, os.W_OK):
            self._stop_writing(None)

    def _stop_writing(self, error: Optional[BaseException]) -> None:
        """Serve disk hits, keep stores in the overlay; record why."""
        self._writable = False
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        log_diagnostic(Diagnostic(
            stage="cache", component="kernel_cache",
            message=(f"cache root {self.root} is not writable; "
                     "continuing read-only (stores kept in memory)"),
            severity=Severity.WARNING,
            data={"root": str(self.root),
                  "error": repr(error) if error is not None else None}))
        _metrics.counter(
            "cache_readonly_fallbacks_total",
            "persistent tiers degraded to read-only operation").inc()

    @property
    def writable(self) -> bool:
        """False once the root stopped being written."""
        return self._writable

    # -- entries -----------------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def _lock_path(self) -> pathlib.Path:
        return self.root / ".lock"

    def load(self, key: str) -> Optional[Dict]:
        """The cached payload for ``key``, or None (counts hit/miss).

        A missing entry is a plain miss; an unreadable, torn, or
        checksum-mismatching entry is quarantined first (left in place
        when the root is not written), then counted as a miss.
        """
        payload = self._overlay.get(key)
        if payload is None:
            path = self._path(key)
            payload, corrupt = read_entry(path, CACHE_FORMAT_VERSION)
            if corrupt is not None:
                quarantine_entry(
                    self.root, path, corrupt, "kernel_cache",
                    _metrics.counter(
                        "kernel_cache_corrupt_total",
                        "corrupt kernel-cache entries quarantined"),
                    move=self._writable)
            if payload is not None and self._writable:
                try:
                    path.touch()          # refresh LRU recency
                except OSError:
                    pass
        if payload is None:
            _metrics.counter("kernel_cache_misses_total",
                             "persistent kernel-cache misses").inc()
            return None
        _metrics.counter("kernel_cache_hits_total",
                         "persistent kernel-cache hits").inc()
        return payload

    def store(self, key: str, source: str, mode: str, width: int,
              arg_names: List[str], function_name: str,
              fused: bool, arena: bool = False, code=None) -> None:
        """Write one entry from a kernel's fields; ``code`` is its
        compiled code object (omitted, the entry is served by compiling
        ``source``).  ``arena`` must be ``False``:
        ``benchmarks/e2e/layers.py:279`` passes a loaded payload's."""
        if arena:
            raise ValueError("KernelCache.store: the buffer arena was "
                             "removed; arena must be False")
        self.store_kernel(key, CompiledKernel(
            name=function_name, fn=None, source=source, mode=mode,
            width=width, arg_names=arg_names, fused=fused, code=code))

    def store_kernel(self, key: str, kernel: CompiledKernel) -> None:
        """Write ``kernel``'s payload
        (:func:`~repro.runtime.lowering.kernel_payload`) under ``key``."""
        payload = {"format": CACHE_FORMAT_VERSION, **kernel_payload(kernel)}
        payload["checksum"] = payload_checksum(payload)
        if self._writable:
            try:
                with file_lock(self._lock_path()):
                    write_atomic(self._path(key), json.dumps(payload))
                    self._evict()
                return
            except OSError as err:
                self._stop_writing(err)
        self._overlay[key] = payload

    def _evict(self) -> None:
        """Drop the oldest entries beyond ``max_entries``; the caller
        (:meth:`store_kernel`) holds the cache lock."""
        entries = sorted(self.root.glob("*.json"),
                         key=lambda p: p.stat().st_mtime)
        excess = len(entries) - self.max_entries
        evicted = 0
        for path in entries[:max(excess, 0)]:
            try:
                path.unlink()
            except OSError:
                continue
            evicted += 1
        if evicted:
            _metrics.counter("kernel_cache_evictions_total",
                             "persistent kernel-cache LRU evictions"
                             ).inc(evicted)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = len(self._overlay)
        self._overlay.clear()
        if not self._writable:
            return removed
        with file_lock(self._lock_path()):
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    def persistent_stats(self) -> CacheStats:
        """What the directory holds: the entries a load would serve,
        their bytes, and the quarantined count.  Hits, misses and
        evictions across processes are the run ledger's (its
        ``cache=`` column); the ``kernel_cache_*_total`` metrics count
        this process's."""
        entries = [p for p in self.root.glob("*.json")
                   if read_entry(p, CACHE_FORMAT_VERSION)[0] is not None]
        quarantined = sum(
            1 for _ in (self.root / QUARANTINE_DIR).glob("*.json"))
        return CacheStats(entries=len(entries),
                          bytes=sum(p.stat().st_size for p in entries),
                          corrupt=quarantined)


_DEFAULT_CACHE: Optional[KernelCache] = None


def default_cache_dir() -> pathlib.Path:
    """``$LIMPET_CACHE_DIR`` or ``~/.cache/limpet-repro/kernels``."""
    env = os.environ.get(_ENV_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "limpet-repro" / "kernels"


def default_cache() -> Optional[KernelCache]:
    """The process-wide cache (None when ``LIMPET_KERNEL_CACHE=off``)."""
    global _DEFAULT_CACHE
    if os.environ.get(_ENV_DISABLE, "").lower() in ("off", "0", "no"):
        return None
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = KernelCache(default_cache_dir())
    return _DEFAULT_CACHE
