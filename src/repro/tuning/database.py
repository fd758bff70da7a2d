"""The persistent tuning database: workload -> tuned configuration.

One JSON file maps content-addressed workload keys to tuning records
(the winning :class:`~repro.tuning.space.TuningConfig` plus the
predicted-vs-measured ranking evidence behind it).  The key follows
the kernel cache's discipline (``repro.runtime.kernel_cache``): it
hashes everything that could change the *answer* —

* the sha256 of the model's **EasyML text** — the digest the kernel
  cache keys by (any edit retunes; a same-named model with other text
  has its own record),
* the integrator summary (per-state integration methods),
* the run shape (``n_cells``, ``dt``) and machine name,
* the **pass-pipeline fingerprint** and the **lowering version**
  (a new optimization or lowering strategy shifts the optimum),
* the DB schema version (:data:`TUNE_DB_VERSION`).

``$LIMPET_TUNE_DB`` overrides the file location; records with a stale
schema version are ignored (treated as a miss).

Crash safety (the DB is shared by concurrent tuners and, with the
supervised tier, by worker processes):

* writes are atomic (tmp file + rename) so a torn write can never be
  observed, and read-modify-write cycles (``put``/``delete``/``clear``)
  additionally hold an **advisory flock**
  (:mod:`repro.runtime.locking`) so concurrent writers serialize
  instead of dropping each other's records;
* every record carries a **sha256 checksum**, verified on read: a
  tampered or torn record is **quarantined** (appended to
  ``<db>.quarantine.json``, logged as a Diagnostic and counted in
  ``tuning_db_corrupt_total``) and treated as a miss instead of
  poisoning every consumer;
* an **unparsable DB file** is renamed to ``<db>.corrupt-<pid>`` and
  the DB restarts empty (with a Diagnostic), never crashing readers;
* an **unwritable path** degrades to in-memory operation with a
  Diagnostic instead of raising at first write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time
from typing import Dict, Optional, Union

from ..models import model_entry
from ..obs import metrics as _metrics
from ..runtime.locking import file_lock
from ..runtime.resolve import toolchain_identity
from .space import TuningConfig, Workload

#: bump to invalidate every tuning decision at once
#: (v2: records carry a checksum, verified on read;
#: v3: the source line is the workload's own text digest)
TUNE_DB_VERSION = 3

_ENV_DB = "LIMPET_TUNE_DB"


def model_source_hash(model_name: str) -> str:
    """sha256 of the model's EasyML source file bytes."""
    path = model_entry(model_name).path
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tuning_db_key(workload: Workload,
                  pipeline_fingerprint: Optional[str] = None,
                  source_hash: Optional[str] = None) -> str:
    """Content address of one workload's tuning decision.

    ``pipeline_fingerprint`` defaults to the default pass pipeline's;
    ``source_hash`` to the digest of the text the workload's model was
    parsed from, or the registry file's for a workload that only names
    its model (override both in tests to prove invalidation).
    """
    default_fingerprint, lowering_version = toolchain_identity()
    if pipeline_fingerprint is None:
        pipeline_fingerprint = default_fingerprint
    if source_hash is None:
        source_hash = workload.source or model_source_hash(workload.model)
    lines = [
        f"format={TUNE_DB_VERSION}",
        f"model={workload.model}",
        f"source={source_hash}",
        f"integrator={workload.integrator}",
        f"n_cells={workload.n_cells}",
        f"dt={workload.dt!r}",
        f"machine={workload.machine}",
        f"pipeline={pipeline_fingerprint}",
        f"lowering=v{lowering_version}",
    ]
    # population-shape line only when present
    if getattr(workload, "population", ""):
        lines.append(f"population={workload.population}")
    material = "\n".join(lines)
    return hashlib.sha256(material.encode()).hexdigest()


def record_checksum(record: Dict) -> str:
    """sha256 over the canonical JSON of ``record`` minus ``checksum``."""
    material = {k: v for k, v in record.items() if k != "checksum"}
    return hashlib.sha256(
        json.dumps(material, sort_keys=True).encode()).hexdigest()


def default_db_path() -> pathlib.Path:
    """``$LIMPET_TUNE_DB`` or ``~/.cache/limpet-repro/tuning.json``."""
    env = os.environ.get(_ENV_DB)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "limpet-repro" / "tuning.json"


def _log_db_diagnostic(message: str, error: Optional[BaseException] = None,
                       **data) -> None:
    from ..resilience.diagnostics import (Diagnostic, Severity,
                                          log_diagnostic)
    if error is not None:
        log_diagnostic(Diagnostic.from_exception(
            stage="cache", component="tuning_db", exc=error,
            severity=Severity.WARNING, with_traceback=False, **data))
    else:
        log_diagnostic(Diagnostic(
            stage="cache", component="tuning_db", message=message,
            severity=Severity.WARNING, data=dict(data)))


class TuningDB:
    """A single JSON file of tuning records, schema-versioned.

    Checksum-verified on read, flock-serialized on mutation, and
    degrading to in-memory operation when the path is unwritable.
    """

    def __init__(self, path: Union[str, pathlib.Path, None] = None):
        self.path = pathlib.Path(path) if path is not None \
            else default_db_path()
        #: non-None once the DB degraded to memory-only operation
        self._memory: Optional[Dict] = None

    @property
    def in_memory(self) -> bool:
        """True when the DB degraded to memory-only operation."""
        return self._memory is not None

    # -- raw file I/O -------------------------------------------------------------

    def _lock_path(self) -> pathlib.Path:
        return self.path.with_suffix(self.path.suffix + ".lock")

    def _quarantine_path(self) -> pathlib.Path:
        return self.path.with_suffix(self.path.suffix + ".quarantine.json")

    def _empty(self) -> Dict:
        return {"format": TUNE_DB_VERSION, "entries": {}}

    def _read(self) -> Dict:
        if self._memory is not None:
            return self._memory
        try:
            data = json.loads(self.path.read_text())
        except FileNotFoundError:
            return self._empty()
        except (OSError, ValueError) as err:
            self._quarantine_file(err)
            return self._empty()
        if not isinstance(data, dict) \
                or data.get("format") != TUNE_DB_VERSION:
            return self._empty()
        if not isinstance(data.get("entries"), dict):
            data["entries"] = {}
        return data

    def _quarantine_file(self, error: BaseException) -> None:
        """Move an unparsable DB file aside; the DB restarts empty."""
        target = self.path.with_suffix(
            self.path.suffix + f".corrupt-{os.getpid()}")
        try:
            os.replace(self.path, target)
        except OSError:
            target = None
        _log_db_diagnostic(
            f"tuning DB unreadable, quarantined to {target}", error,
            path=str(self.path),
            quarantined_to=str(target) if target else None)
        _metrics.counter("tuning_db_corrupt_total",
                         "corrupt tuning-DB records/files quarantined").inc()

    def _quarantine_record(self, key: str, record: Dict,
                           reason: str) -> None:
        """Append a corrupt record to the sidecar quarantine file."""
        if self._memory is None:
            try:
                qpath = self._quarantine_path()
                try:
                    quarantined = json.loads(qpath.read_text())
                    if not isinstance(quarantined, dict):
                        quarantined = {}
                except (OSError, ValueError):
                    quarantined = {}
                quarantined[key] = {"record": record, "reason": reason,
                                    "quarantined_at": time.time()}
                tmp = qpath.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(quarantined, indent=2))
                os.replace(tmp, qpath)
            except OSError:
                pass
        _log_db_diagnostic(
            f"quarantined corrupt tuning record {key[:12]}…: {reason}",
            key=key, reason=reason)
        _metrics.counter("tuning_db_corrupt_total",
                         "corrupt tuning-DB records/files quarantined").inc()

    def _write(self, data: Dict) -> None:
        if self._memory is not None:
            self._memory = data
            return
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(data, indent=2) + "\n")
            os.replace(tmp, self.path)
        except OSError as err:
            try:
                tmp.unlink()
            except OSError:
                pass
            self._memory = data
            _log_db_diagnostic("tuning DB path unwritable, degrading to "
                               "in-memory operation", err,
                               path=str(self.path))
            _metrics.counter(
                "cache_memory_fallbacks_total",
                "persistent tiers degraded to in-memory operation").inc()

    # -- records ------------------------------------------------------------------

    def get(self, key: str) -> Optional[Dict]:
        """The stored record for ``key``, or None.

        Records failing their checksum are quarantined (removed from
        the DB, appended to the sidecar quarantine file) and reported
        as a miss.
        """
        data = self._read()
        record = data["entries"].get(key)
        if record is None:
            return None
        if not isinstance(record, dict) \
                or record.get("checksum") != record_checksum(record):
            self._quarantine_record(
                key, record if isinstance(record, dict) else {"raw": record},
                "checksum mismatch")
            with file_lock(self._lock_path()):
                data = self._read()
                if key in data["entries"]:
                    del data["entries"][key]
                    self._write(data)
            return None
        return record

    def get_config(self, key: str) -> Optional[TuningConfig]:
        """Just the winning configuration for ``key``, or None."""
        record = self.get(key)
        if record is None:
            return None
        try:
            return TuningConfig.from_dict(record["config"])
        except (KeyError, TypeError, ValueError):
            return None                 # corrupt record: treat as miss

    def put(self, key: str, record: Dict) -> None:
        record = dict(record)
        record.setdefault("stored_at", time.time())
        record["checksum"] = record_checksum(record)
        with file_lock(self._lock_path()):
            data = self._read()
            data["entries"][key] = record
            self._write(data)

    def delete(self, key: str) -> bool:
        with file_lock(self._lock_path()):
            data = self._read()
            if key not in data["entries"]:
                return False
            del data["entries"][key]
            self._write(data)
            return True

    def clear(self) -> int:
        """Drop every record; returns how many were removed."""
        with file_lock(self._lock_path()):
            data = self._read()
            removed = len(data["entries"])
            data["entries"] = {}
            self._write(data)
        return removed

    def entries(self) -> Dict[str, Dict]:
        return dict(self._read()["entries"])

    def __len__(self) -> int:
        return len(self._read()["entries"])
