"""Run ledger: an append-only JSONL record of every compile and run.

The simulation-as-a-service north star needs what any serving stack
needs: a durable account of what executed, with what inputs, at what
cost, and how it ended.  This module appends one JSON object per
event to the file named by ``$LIMPET_LEDGER`` — nothing is recorded
when the variable is unset, so the default workflow pays a single
``os.environ.get`` per run.

Record format (``limpet-ledger-v1``, DESIGN.md §13): every row has
``format``, ``ts_unix``, ``pid``, ``event``, and — when a tracer is
active — the ``trace_id`` linking it to the Chrome trace of the same
run.  Event-specific fields ride alongside; ``None`` fields are
dropped.  Writers take the sidecar ``<path>.lock`` via the same
advisory :func:`~repro.runtime.locking.file_lock` the caches use
(lazily imported — ``obs`` stays dependency-free at import time), so
concurrent processes interleave whole lines, never partial ones.

Wired event types:

``compile``         ``compile_resilient`` tier outcome
``run``             every ``KernelRunner.run`` (model, cache outcome,
                    tier, compile_seconds, time_to_first_step,
                    steps_per_second, disposition)
``population_run``  population-batched sweeps
``artifact_load``   AOT bundle hits in ``runner_from_store``
``degradation``     supervised execution-tier downgrades
``worker_restart``  supervised worker deaths (slot, failure kind,
                    attempt, step, spawns)

``limpet-bench ledger [--tail N --model M --json --summary]`` queries
the file; corrupt lines (a crash mid-append on a filesystem without
atomic O_APPEND semantics) are skipped, never fatal.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import time
from typing import Any, Dict, Iterable, List, Optional, Union

from . import trace as _trace

__all__ = ["RunLedger", "LEDGER_ENV", "FORMAT", "default_ledger",
           "record_event", "summarize"]

#: environment variable naming the ledger file; unset = ledger off
LEDGER_ENV = "LIMPET_LEDGER"

#: schema tag stamped into every row
FORMAT = "limpet-ledger-v1"


class RunLedger:
    """Append/query interface over one JSONL ledger file."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)

    # -- append -------------------------------------------------------------------

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one row; returns the row as written."""
        row: Dict[str, Any] = {"format": FORMAT,
                               "ts_unix": round(time.time(), 3),
                               "pid": os.getpid(),
                               "event": event}
        tracer = _trace.active_tracer()
        if tracer is not None:
            row["trace_id"] = tracer.trace_id
        for key, value in fields.items():
            if value is None:
                continue
            if isinstance(value, float):
                value = round(value, 6)
            row[key] = value
        line = json.dumps(row, sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self._lock():
            with open(self.path, "a") as fh:
                fh.write(line)
                fh.flush()
        return row

    def _lock(self):
        """The caches' advisory file lock, or a null context if the
        locking layer is unavailable (never block the run)."""
        try:
            from ..runtime.locking import file_lock
            return file_lock(self.path.with_suffix(
                self.path.suffix + ".lock"))
        except Exception:
            return contextlib.nullcontext(False)

    # -- query --------------------------------------------------------------------

    def read(self, tail: Optional[int] = None,
             model: Optional[str] = None,
             event: Optional[str] = None) -> List[Dict[str, Any]]:
        """Rows oldest-first, optionally filtered; corrupt lines are
        skipped (a ledger must survive its own crashes)."""
        if not self.path.is_file():
            return []
        rows: List[Dict[str, Any]] = []
        with open(self.path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(row, dict):
                    continue
                if model is not None and row.get("model") != model:
                    continue
                if event is not None and row.get("event") != event:
                    continue
                rows.append(row)
        if tail is not None:
            rows = rows[-tail:]
        return rows

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per-model aggregates over the whole ledger."""
        return summarize(self.read())


def summarize(rows: Iterable[Dict[str, Any]]
              ) -> Dict[str, Dict[str, Any]]:
    """Fold ledger rows into per-model aggregates (best/latest
    steps_per_second and time_to_first_step, event/disposition
    counts, tiers seen)."""
    out: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        model = row.get("model") or "-"
        agg = out.setdefault(model, {
            "rows": 0, "events": {}, "dispositions": {}, "tiers": [],
            "best_steps_per_second": None, "last_steps_per_second": None,
            "best_time_to_first_step": None,
        })
        agg["rows"] += 1
        ev = row.get("event", "?")
        agg["events"][ev] = agg["events"].get(ev, 0) + 1
        disp = row.get("disposition")
        if disp:
            agg["dispositions"][disp] = \
                agg["dispositions"].get(disp, 0) + 1
        tier = row.get("tier")
        if tier and tier not in agg["tiers"]:
            agg["tiers"].append(tier)
        sps = row.get("steps_per_second")
        if isinstance(sps, (int, float)):
            agg["last_steps_per_second"] = sps
            if agg["best_steps_per_second"] is None or \
                    sps > agg["best_steps_per_second"]:
                agg["best_steps_per_second"] = sps
        ttfs = row.get("time_to_first_step")
        if isinstance(ttfs, (int, float)):
            if agg["best_time_to_first_step"] is None or \
                    ttfs < agg["best_time_to_first_step"]:
                agg["best_time_to_first_step"] = ttfs
    return out


# ---------------------------------------------------------------------------
# The env-gated process default
# ---------------------------------------------------------------------------

def default_ledger() -> Optional[RunLedger]:
    """The ledger named by ``$LIMPET_LEDGER``, or None (off)."""
    path = os.environ.get(LEDGER_ENV)
    if not path:
        return None
    return RunLedger(path)


def record_event(event: str, **fields: Any) -> None:
    """Record to the env-configured ledger; a silent no-op when the
    ledger is off, and never raises — accounting must not take the
    run down."""
    try:
        ledger = default_ledger()
        if ledger is not None:
            ledger.record(event, **fields)
    except Exception:                   # pragma: no cover - best effort
        pass
