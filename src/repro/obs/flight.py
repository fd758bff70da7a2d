"""Crash flight recorder: a bounded black-box of recent telemetry.

Post-mortems of supervised runs kept hitting the same wall: by the
time a worker dies or a tier degrades, the evidence — which spans just
finished, which counters just moved, which shard failed at which step
and why — is gone.  This module keeps that evidence in a process-wide
**ring buffer** (:class:`FlightRecorder`) and, when something fails,
dumps the last seconds to a ``flight-<ts>-<pid>.json`` file next to
the existing reproducer bundles (DESIGN.md §13).

Recording is passive and cheap: :func:`install` registers listeners on
the trace and metrics layers, so every finished span / instant (only
while a tracer is active) and every counter increment (cold paths
only) lands in the ring as a ``{"t", "kind", ...}`` event.  Subsystems
with richer context (the supervised runner's failure classifier, the
watchdog) call :func:`record` directly.

Dump triggers (all best-effort — telemetry must never break a run):

* worker death / respawn (``runtime/supervised.py``),
* execution-tier degradation (``runtime/supervised.py``),
* pass quarantine (``resilience/sandbox.py``, into the same
  reproducer directory as the IR bundle),
* unhandled CLI exception (``cli.py``).

``limpet-bench flight show`` renders the most recent dump.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import threading
import time
from typing import Any, Deque, Dict, List, Optional, Union

from . import metrics as _metrics
from . import trace as _trace

__all__ = ["FlightRecorder", "FLIGHT_DIR_ENV", "FORMAT", "recorder",
           "record", "dump", "install", "installed", "default_dir",
           "list_dumps", "latest_dump", "load_dump", "format_dump"]

#: environment variable overriding where dumps are written
FLIGHT_DIR_ENV = "LIMPET_FLIGHT_DIR"

#: schema tag stamped into every dump
FORMAT = "limpet-flight-v1"

#: events kept in the ring (each is a small dict; ~512 ≈ a few seconds
#: of the busiest cold paths, hours of a quiet steady-state run)
DEFAULT_CAPACITY = 512

#: dumps kept per directory before the oldest are pruned
MAX_DUMPS = 20


class FlightRecorder:
    """Thread-safe bounded ring of recent telemetry events."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._ring: Deque[Dict[str, Any]] = collections.deque(
            maxlen=capacity)
        self._lock = threading.Lock()
        self._dropped = 0

    def record(self, kind: str, **data: Any) -> None:
        """Append one event; oldest events fall off the ring."""
        event = {"t": time.time(), "kind": kind}
        event.update(data)
        with self._lock:
            if len(self._ring) == self.capacity:
                self._dropped += 1
            self._ring.append(event)

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()
            self._dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(self, reason: str,
             directory: Optional[Union[str, pathlib.Path]] = None,
             trace_id: Optional[str] = None,
             extra: Optional[Dict[str, Any]] = None) -> pathlib.Path:
        """Write the ring (plus a metrics snapshot) as a dump file.

        ``directory`` defaults to ``$LIMPET_FLIGHT_DIR`` or the
        user-cache flight directory.  The active tracer's id is
        recorded unless ``trace_id`` overrides it, tying the black box
        to the merged Chrome trace of the same run.
        """
        directory = pathlib.Path(directory) if directory is not None \
            else default_dir()
        directory.mkdir(parents=True, exist_ok=True)
        if trace_id is None:
            tracer = _trace.active_tracer()
            trace_id = tracer.trace_id if tracer is not None else None
        with self._lock:
            events = list(self._ring)
            dropped = self._dropped
        payload = {
            "format": FORMAT,
            "reason": reason,
            "ts_unix": time.time(),
            "pid": os.getpid(),
            "trace_id": trace_id,
            "extra": extra or {},
            "events_dropped": dropped,
            "events": events,
            "metrics": _metrics.snapshot(),
        }
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = directory / f"flight-{stamp}-{os.getpid()}.json"
        n = 1
        while path.exists():        # same second, same pid: disambiguate
            path = directory / f"flight-{stamp}-{os.getpid()}-{n}.json"
            n += 1
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, indent=1))
        os.replace(tmp, path)
        _prune(directory)
        return path


def _prune(directory: pathlib.Path) -> None:
    dumps = sorted(directory.glob("flight-*.json"))
    for old in dumps[:-MAX_DUMPS]:
        try:
            old.unlink()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The process-default recorder and module-level conveniences
# ---------------------------------------------------------------------------

_DEFAULT = FlightRecorder()


def recorder() -> FlightRecorder:
    return _DEFAULT


def record(kind: str, **data: Any) -> None:
    """Record on the process recorder; never raises."""
    try:
        _DEFAULT.record(kind, **data)
    except Exception:                   # pragma: no cover - best effort
        pass


def dump(reason: str, directory=None, trace_id: Optional[str] = None,
         extra: Optional[Dict[str, Any]] = None
         ) -> Optional[pathlib.Path]:
    """Dump the process recorder; returns None instead of raising —
    a failing black box must not take the run down with it."""
    try:
        return _DEFAULT.dump(reason, directory=directory,
                             trace_id=trace_id, extra=extra)
    except Exception:
        return None


def default_dir() -> pathlib.Path:
    env = os.environ.get(FLIGHT_DIR_ENV)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "limpet-repro" / "flight"


# ---------------------------------------------------------------------------
# Listener installation: tap the trace and metrics layers
# ---------------------------------------------------------------------------

_INSTALLED = False


def _on_trace_event(kind: str, name: str,
                    payload: Dict[str, Any]) -> None:
    record(kind, name=name, **payload)


def _on_metric_increment(name: str, amount: int,
                         labels: Optional[Dict[str, str]]) -> None:
    event: Dict[str, Any] = {"name": name, "delta": amount}
    if labels:
        event["labels"] = labels
    record("metric", **event)


def install() -> None:
    """Register the trace/metrics taps (idempotent; done eagerly when
    ``repro.obs`` is imported)."""
    global _INSTALLED
    if _INSTALLED:
        return
    _trace.add_listener(_on_trace_event)
    _metrics.add_listener(_on_metric_increment)
    _INSTALLED = True


def installed() -> bool:
    return _INSTALLED


# ---------------------------------------------------------------------------
# Dump inspection (the `limpet-bench flight` subcommand)
# ---------------------------------------------------------------------------

def list_dumps(directory=None) -> List[pathlib.Path]:
    directory = pathlib.Path(directory) if directory is not None \
        else default_dir()
    if not directory.is_dir():
        return []
    return sorted(directory.glob("flight-*.json"))


def latest_dump(directory=None) -> Optional[pathlib.Path]:
    dumps = list_dumps(directory)
    return dumps[-1] if dumps else None


def load_dump(path) -> Dict[str, Any]:
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} dump")
    return payload


def format_dump(payload: Dict[str, Any], last: int = 40) -> str:
    """Human view of a dump: header plus the last ``last`` events."""
    header = [
        f"reason     : {payload.get('reason')}",
        f"captured   : {time.strftime('%Y-%m-%d %H:%M:%S', time.localtime(payload.get('ts_unix', 0)))}",
        f"pid        : {payload.get('pid')}",
        f"trace id   : {payload.get('trace_id') or '-'}",
        f"events     : {len(payload.get('events', []))}"
        + (f" (+{payload['events_dropped']} dropped)"
           if payload.get("events_dropped") else ""),
    ]
    extra = payload.get("extra") or {}
    for key in sorted(extra):
        header.append(f"{key:<11}: {extra[key]}")
    lines = header + ["", "last events (oldest first):"]
    events = payload.get("events", [])[-last:]
    t_fail = payload.get("ts_unix", 0.0)
    for event in events:
        age = event.get("t", t_fail) - t_fail
        rest = {k: v for k, v in event.items()
                if k not in ("t", "kind")}
        detail = " ".join(f"{k}={_compact(v)}" for k, v in rest.items())
        lines.append(f"  {age:+9.3f}s  {event.get('kind', '?'):<10} "
                     f"{detail}".rstrip())
    return "\n".join(lines)


def _compact(value: Any) -> str:
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}={_compact(v)}"
                              for k, v in value.items()) + "}"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
