"""Persistent kernel cache: content-addressed lowered sources on disk.

Constructing a :class:`~repro.runtime.executor.KernelRunner` normally
pays for a full fixed-point pass pipeline, module verification, and
lowering — per kernel, on every process.  For sweep workloads over the
47-model suite that construction cost dominates short runs, so this
module caches the *product* of that work (the lowered Python source
plus its metadata) under a content address combining:

* the compile request (:class:`~repro.codegen.common.CompileRequest`):
  sha256 of the model text, promoted parameters, emitter target, width,
  layout, LUT options, function name, launch geometry and
  ``GENERATOR_VERSION`` — everything the generated IR is a function of,
  known before any IR is built;
* the pass pipeline fingerprint
  (:meth:`~repro.ir.passes.pass_manager.PassManager.fingerprint`);
* the lowering version (:data:`~repro.runtime.lowering.LOWERING_VERSION`)
  and the fuse/arena lowering flags.

A hit skips passes, verification and lowering entirely: the cached
source is exec'd directly.  Hit/miss/eviction counters persist in the
cache directory (``stats.json``) so ``limpet-bench cache-stats`` can
report across processes.

Crash safety (the cache is shared by every process of a sweep, and by
supervised worker processes):

* every entry carries a **sha256 checksum** over its payload, verified
  on read — a torn or tampered entry is **quarantined** (moved to
  ``<root>/quarantine/``, recorded as a
  :class:`~repro.resilience.diagnostics.Diagnostic` and a
  ``kernel_cache_corrupt_total`` metric) instead of poisoning every
  later consumer, then treated as a miss and rebuilt;
* mutations (store, evict, stats bumps) run under an **advisory
  ``flock``** (:mod:`repro.runtime.locking`) so concurrent writers
  serialize — stats counts are exact, not best-effort;
* an **unwritable-but-readable cache root** (a read-only
  ``$LIMPET_CACHE_DIR`` mount, the shared AOT artifact tier) degrades
  to **read-only operation**: disk hits keep being served with no LRU
  touches, no ``stats.json`` bumps and no lock attempts, while stores
  land in an in-memory overlay for this process only;
* a cache root that cannot even be read (a path under a file, a full
  disk at mkdir time) degrades further to an in-memory dict — in both
  cases with a logged Diagnostic instead of raising at first write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from ..obs import metrics as _metrics
from .locking import file_lock

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
    """Counters for one cache (in-memory view; persisted to disk)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    bytes: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


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


class KernelCache:
    """A directory of content-addressed lowered-kernel entries.

    Each entry is one JSON file ``<key>.json`` holding the lowered
    source and the metadata :func:`~repro.runtime.lowering.compile_kernel_source`
    needs.  The cache is LRU-bounded by entry count (file mtime is the
    recency signal), checksum-verified on read (corrupt entries are
    quarantined, not served), flock-serialized on write, and falls
    back to an in-memory dict when the directory is unwritable.
    """

    def __init__(self, root, max_entries: int = 512,
                 read_only: bool = False):
        self.root = pathlib.Path(root)
        self.max_entries = max_entries
        self.stats = CacheStats()
        #: non-None once the cache degraded to memory-only operation
        self._memory: Optional[Dict[str, Dict]] = None
        #: absorbs stores while the cache operates read-only
        self._overlay: Dict[str, Dict] = {}
        self._read_only = bool(read_only)
        if self._read_only:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as err:
            if self.root.is_dir() and os.access(self.root, os.R_OK):
                self._fall_back_to_read_only(err)
            else:
                self._fall_back_to_memory(err)
            return
        if not os.access(self.root, os.W_OK):
            self._fall_back_to_read_only(None)

    # -- degraded (read-only / in-memory) modes ------------------------------------

    def _fall_back_to_read_only(self,
                                error: Optional[BaseException]) -> None:
        """Serve disk hits, absorb writes in memory; record why.

        The middle rung of the degradation ladder: the root cannot be
        written (read-only mount, permissions) but its entries are
        still perfectly readable, so — unlike the memory fallback —
        every previously stored kernel keeps hitting.
        """
        if self._read_only:
            return
        self._read_only = True
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

    def _fall_back_to_memory(self, error: BaseException) -> None:
        """Degrade to an in-memory dict; record why, never raise."""
        if self._memory is not None:
            return
        self._memory = {}
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        log_diagnostic(Diagnostic.from_exception(
            stage="cache", component="kernel_cache", exc=error,
            severity=Severity.WARNING, with_traceback=False,
            root=str(self.root)))
        _metrics.counter(
            "cache_memory_fallbacks_total",
            "persistent tiers degraded to in-memory operation").inc()

    @property
    def in_memory(self) -> bool:
        """True when the cache degraded to memory-only operation."""
        return self._memory is not None

    @property
    def read_only(self) -> bool:
        """True when the cache serves disk reads but never writes."""
        return self._read_only

    # -- entries -----------------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.json"

    def _lock_path(self) -> pathlib.Path:
        return self.root / ".lock"

    def _quarantine(self, path: pathlib.Path, reason: str,
                    move: bool = True) -> None:
        """Move a corrupt entry aside so it cannot poison later reads.

        With ``move=False`` (the read-only cache mode) the entry is
        left in place — we must not mutate a shared read-only mount —
        and only the diagnostic and counters are recorded.
        """
        self.stats.corrupt += 1
        target = None
        if move:
            try:
                qdir = self.root / QUARANTINE_DIR
                qdir.mkdir(parents=True, exist_ok=True)
                target = qdir / path.name
                os.replace(path, target)
            except OSError:
                try:                    # quarantine failed: drop instead
                    path.unlink()
                except OSError:
                    pass
        from ..resilience.diagnostics import (Diagnostic, Severity,
                                              log_diagnostic)
        verb = "quarantined" if move else "left in place (read-only)"
        log_diagnostic(Diagnostic(
            stage="cache", component="kernel_cache",
            message=f"corrupt entry {path.name} {verb}: {reason}",
            severity=Severity.WARNING,
            data={"entry": path.name,
                  "quarantined_to": str(target) if target else None}))
        _metrics.counter("kernel_cache_corrupt_total",
                         "corrupt kernel-cache entries quarantined").inc()

    def load(self, key: str) -> Optional[Dict]:
        """The cached payload for ``key``, or None (counts hit/miss).

        A missing entry is a plain miss; an unreadable, torn, or
        checksum-mismatching entry is quarantined first, then counted
        as a miss.
        """
        if self._memory is not None:
            payload = self._memory.get(key)
            if payload is None:
                self.stats.misses += 1
                _metrics.counter("kernel_cache_misses_total",
                                 "persistent kernel-cache misses").inc()
                return None
            self.stats.hits += 1
            _metrics.counter("kernel_cache_hits_total",
                             "persistent kernel-cache hits").inc()
            return payload
        if self._read_only and key in self._overlay:
            self.stats.hits += 1
            _metrics.counter("kernel_cache_hits_total",
                             "persistent kernel-cache hits").inc()
            return self._overlay[key]
        path = self._path(key)
        payload = None
        corrupt_reason = None
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                corrupt_reason = "payload is not an object"
            elif payload.get("format") != CACHE_FORMAT_VERSION:
                corrupt_reason = None       # stale format: silent miss
                payload = None
            elif payload.get("checksum") != payload_checksum(payload):
                corrupt_reason = "checksum mismatch"
        except FileNotFoundError:
            pass
        except (OSError, ValueError) as err:
            if path.exists():
                corrupt_reason = f"unreadable ({type(err).__name__})"
        if corrupt_reason is not None:
            self._quarantine(path, corrupt_reason,
                             move=not self._read_only)
            payload = None
        if payload is None:
            self.stats.misses += 1
            if not self._read_only:
                self._bump("misses")
            _metrics.counter("kernel_cache_misses_total",
                             "persistent kernel-cache misses").inc()
            return None
        if not self._read_only:
            try:
                path.touch()              # refresh LRU recency
            except OSError:
                pass
            self._bump("hits")
        self.stats.hits += 1
        _metrics.counter("kernel_cache_hits_total",
                         "persistent kernel-cache hits").inc()
        return payload

    def store(self, key: str, source: str, mode: str, width: int,
              arg_names: List[str], function_name: str,
              fused: bool, arena: bool) -> None:
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "function_name": function_name,
            "source": source,
            "mode": mode,
            "width": width,
            "arg_names": list(arg_names),
            "fused": fused,
            "arena": arena,
        }
        payload["checksum"] = payload_checksum(payload)
        if self._memory is not None:
            self._memory[key] = payload
            return
        if self._read_only:
            self._overlay[key] = payload
            return
        tmp = self._path(key).with_suffix(".tmp")
        try:
            with file_lock(self._lock_path()):
                tmp.write_text(json.dumps(payload))
                os.replace(tmp, self._path(key))
                self._evict()
        except OSError as err:
            try:
                tmp.unlink()
            except OSError:
                pass
            if self.root.is_dir() and os.access(self.root, os.R_OK):
                self._fall_back_to_read_only(err)
                self._overlay[key] = payload
            else:
                self._fall_back_to_memory(err)
                self._memory[key] = payload

    def _evict(self) -> None:
        """Drop the oldest entries beyond ``max_entries``; the caller
        (:meth:`store`) holds the cache lock, so the eviction count is
        added under it — taking the lock again here would wait out the
        whole timeout on this process's own descriptor."""
        entries = sorted((p for p in self.root.glob("*.json")
                          if p.name != "stats.json"),
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
            self.stats.evictions += evicted
            self._add("evictions", evicted)
            _metrics.counter("kernel_cache_evictions_total",
                             "persistent kernel-cache LRU evictions"
                             ).inc(evicted)

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self._memory is not None:
            removed = len(self._memory)
            self._memory.clear()
            return removed
        if self._read_only:
            removed = len(self._overlay)
            self._overlay.clear()
            return removed
        with file_lock(self._lock_path()):
            for path in self.root.glob("*.json"):
                if path.name == "stats.json":
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    continue
        return removed

    # -- statistics --------------------------------------------------------------

    def _stats_path(self) -> pathlib.Path:
        return self.root / "stats.json"

    def _bump(self, counter: str) -> None:
        """Increment one persistent counter.

        Read-modify-write under the cache's advisory flock, written
        atomically via tmp file + ``os.replace``: concurrent processes
        serialize on the lock, so counts are exact, and a torn write
        can never corrupt ``stats.json`` for later readers.  (If the
        lock is unavailable the update still happens atomically and
        merely degrades to best-effort, the pre-lock behaviour.)
        """
        if self._memory is not None or self._read_only:
            return
        with file_lock(self._lock_path()):
            self._add(counter, 1)

    def _add(self, counter: str, amount: int) -> None:
        """The read-modify-write itself; the caller holds the lock."""
        path = self._stats_path()
        tmp = path.with_name(
            f"stats.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            try:
                data = json.loads(path.read_text())
                if not isinstance(data, dict):
                    data = {}
            except (OSError, ValueError):
                data = {}
            data[counter] = int(data.get(counter, 0)) + amount
            tmp.write_text(json.dumps(data))
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def persistent_stats(self) -> CacheStats:
        """Counters accumulated across every process using this dir."""
        if self._memory is not None:
            return CacheStats(hits=self.stats.hits,
                              misses=self.stats.misses,
                              evictions=self.stats.evictions,
                              entries=len(self._memory),
                              bytes=0, corrupt=self.stats.corrupt)
        try:
            data = json.loads(self._stats_path().read_text())
        except (OSError, ValueError):
            data = {}
        entries = [p for p in self.root.glob("*.json")
                   if p.name != "stats.json"]
        quarantined = 0
        qdir = self.root / QUARANTINE_DIR
        if qdir.is_dir():
            quarantined = sum(1 for _ in qdir.glob("*.json"))
        return CacheStats(
            hits=int(data.get("hits", 0)),
            misses=int(data.get("misses", 0)),
            evictions=int(data.get("evictions", 0)),
            entries=len(entries),
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
