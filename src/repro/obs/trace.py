"""Trace spans: nested wall-clock timing exported as Chrome trace JSON.

The paper's evaluation hinges on knowing where time goes; upstream
MLIR answers that with ``-mlir-timing`` (a nested timing tree per pass
pipeline).  This module is our equivalent, generalized over the whole
stack: a :class:`Tracer` records **nested spans** — parse → frontend →
IR build → passes (one child span per pass) → lowering → cache lookup
→ run — and exports them

* as Chrome/Perfetto trace-event JSON (``{"traceEvents": [...]}`` with
  ``ph: "X"`` complete events, microsecond timestamps) loadable in
  ``chrome://tracing`` / https://ui.perfetto.dev, and
* as a plain-text summary tree for terminals and CI logs.

Activation is process-global and **cheap when off**: every
instrumentation site calls the module-level :func:`span`, which is a
single ``is None`` check returning a shared no-op context manager when
no tracer is active — the disabled overhead is one function call per
*stage* (never per step), far under the <2% budget.

Traces also cross into forked workers (DESIGN.md §13):

* a :class:`TraceContext` (trace id + parent span id + the parent's
  clock origins) is handed to each supervised worker in memory;
* a worker :class:`Tracer` built from a context adopts the parent's
  trace id *and* timebase — ``time.perf_counter`` is CLOCK_MONOTONIC
  on Linux, shared across ``fork``, so worker timestamps land on the
  parent's timeline with no alignment step;
* workers convert finished spans with :meth:`Tracer.drain_events` and
  stream them back (the supervised tier piggybacks them on its pipe
  replies); the parent stores them via
  :meth:`Tracer.add_foreign_events` and :meth:`Tracer.to_chrome`
  emits one merged trace with correct pid/tid lanes.
"""

from __future__ import annotations

import json
import os
import pathlib
import threading
import time
from typing import Any, Dict, List, Optional, Sequence

__all__ = ["Span", "TraceContext", "Tracer", "activate", "deactivate",
           "active_tracer", "span", "instant", "annotate"]


class TraceContext:
    """The identity a trace hands to a forked worker.

    Carries the trace id, the span id the worker's spans logically nest
    under, and the parent's clock origins.  A worker tracer built from
    a context shares the parent's CLOCK_MONOTONIC epoch, so its events
    need no timestamp shifting.
    """

    __slots__ = ("trace_id", "parent_span_id", "t0_monotonic", "t0_wall")

    def __init__(self, trace_id: str, parent_span_id: int = 0,
                 t0_monotonic: float = 0.0, t0_wall: float = 0.0):
        self.trace_id = trace_id
        self.parent_span_id = parent_span_id
        self.t0_monotonic = t0_monotonic
        self.t0_wall = t0_wall

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TraceContext({self.trace_id!r}, "
                f"parent={self.parent_span_id})")


class Span:
    """One timed node of the trace tree (also usable as a context
    manager when produced by :meth:`Tracer.span`)."""

    __slots__ = ("name", "category", "args", "start", "end", "tid",
                 "children", "kind", "sid", "_tracer")

    def __init__(self, name: str, category: str = "",
                 args: Optional[Dict[str, Any]] = None,
                 tracer: Optional["Tracer"] = None, kind: str = "span"):
        self.name = name
        self.category = category
        self.args: Dict[str, Any] = dict(args or {})
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.tid: int = threading.get_ident()
        self.children: List["Span"] = []
        self.kind = kind                    # "span" | "instant"
        self.sid: int = 0                   # per-tracer span id
        self._tracer = tracer

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def annotate(self, **kv: Any) -> "Span":
        """Attach args discovered mid-span (e.g. ``cache_hit=True``)."""
        self.args.update(kv)
        return self

    # -- context manager protocol -------------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._begin(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and issubclass(
                exc_type, (KeyboardInterrupt, SystemExit)):
            self.annotate(interrupted=True)
        self._tracer._end(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration * 1e3:.3f} ms)"


class _NullSpan:
    """Shared no-op span: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **kv: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects a tree of :class:`Span` records per thread.

    Spans opened on different threads grow separate trees (each thread
    keeps its own open-span stack); finished roots from every thread
    are merged into :attr:`roots` under a lock, so sharded runs trace
    safely.

    ``context`` adopts another process's :class:`TraceContext`: the
    trace id and both clock origins come from the parent, so a forked
    worker's events are directly mergeable into the parent's timeline.
    ``process_name`` labels this process's pid lane in merged traces.
    """

    def __init__(self, context: Optional[TraceContext] = None,
                 process_name: Optional[str] = None):
        if context is not None:
            self._t0 = context.t0_monotonic
            self._wall0 = context.t0_wall
            self.trace_id = context.trace_id
            self.parent_span_id = context.parent_span_id
        else:
            self._t0 = time.perf_counter()
            self._wall0 = time.time()
            self.trace_id = os.urandom(8).hex()
            self.parent_span_id = 0
        self.process_name = process_name
        self.roots: List[Span] = []
        self._stacks = threading.local()
        self._lock = threading.Lock()
        # pre-built Chrome events received from other processes
        # (worker span streams), merged verbatim into to_chrome()
        self._foreign: List[Dict[str, Any]] = []
        self._next_sid = 0
        self._meta_sent = False

    # -- span lifecycle -----------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def span(self, name: str, category: str = "", **args: Any) -> Span:
        """A new span context manager; nesting follows ``with`` scope."""
        return Span(name, category, args, tracer=self)

    def begin(self, name: str, category: str = "", **args: Any) -> Span:
        """Open a span without ``with`` (close via :meth:`end`)."""
        span_ = Span(name, category, args, tracer=self)
        self._begin(span_)
        return span_

    def end(self, span_: Span, **extra_args: Any) -> None:
        if extra_args:
            span_.args.update(extra_args)
        self._end(span_)

    def _begin(self, span_: Span) -> None:
        span_.tid = threading.get_ident()
        with self._lock:
            self._next_sid += 1
            span_.sid = self._next_sid
        span_.start = time.perf_counter()
        self._stack().append(span_)

    def _end(self, span_: Span) -> None:
        span_.end = time.perf_counter()
        stack = self._stack()
        if span_ in stack:
            # spans left open above this one (a ``begin`` an exception
            # unwound past) end with it, each a child of the one below
            while stack[-1] is not span_:
                dangling = stack.pop()
                dangling.end = dangling.end or span_.end
                stack[-1].children.append(dangling)
            stack.pop()
        if stack:
            stack[-1].children.append(span_)
        else:
            with self._lock:
                self.roots.append(span_)

    def instant(self, name: str, **args: Any) -> None:
        """A zero-duration marker attached to the current span."""
        mark = Span(name, "instant", args, tracer=self, kind="instant")
        mark.start = mark.end = time.perf_counter()
        stack = self._stack()
        if stack:
            stack[-1].children.append(mark)
        else:
            with self._lock:
                self.roots.append(mark)

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- cross-process propagation -------------------------------------------------

    def context(self) -> TraceContext:
        """The :class:`TraceContext` to hand a child process.

        The parent span id is the innermost open span on the calling
        thread (falling back to this tracer's own inherited parent), so
        worker spans logically nest under whatever was running when the
        worker was spawned.
        """
        current = self.current_span()
        parent_sid = current.sid if current is not None \
            else self.parent_span_id
        return TraceContext(trace_id=self.trace_id,
                            parent_span_id=parent_sid,
                            t0_monotonic=self._t0, t0_wall=self._wall0)

    def add_foreign_events(self,
                           events: Sequence[Dict[str, Any]]) -> None:
        """Store pre-built Chrome events from another process.

        The events must already be on this tracer's timebase (true for
        any tracer built from :meth:`context` — fork children share the
        monotonic clock).  They are emitted verbatim by
        :meth:`to_chrome`, keeping the sender's pid/tid lanes.
        """
        if not events:
            return
        with self._lock:
            self._foreign.extend(events)

    def drain_events(self) -> List[Dict[str, Any]]:
        """Pop every *finished* root span as Chrome events (streaming).

        The worker side of span streaming: finished roots are converted
        and removed, so repeated calls send each span exactly once.
        The first drain also emits this process's ``process_name``
        metadata event so merged traces label the pid lane.  Open spans
        are untouched — they drain once they finish.
        """
        with self._lock:
            roots, self.roots = self.roots, []
        events = self._meta_events()
        for root in roots:
            self._emit(root, events)
        return events

    def _meta_events(self) -> List[Dict[str, Any]]:
        if self._meta_sent:
            return []
        self._meta_sent = True
        name = self.process_name or f"limpet pid {os.getpid()}"
        return [{"ph": "M", "name": "process_name", "pid": os.getpid(),
                 "tid": 0, "args": {"name": name}}]

    # -- export -------------------------------------------------------------------

    def _walk(self):
        def visit(span_: Span):
            yield span_
            for child in span_.children:
                yield from visit(child)
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            yield from visit(root)

    def _emit(self, span_: Span, out: List[Dict[str, Any]]) -> None:
        """Append ``span_`` and its subtree as Chrome events."""
        pid = os.getpid()
        ts = round((span_.start - self._t0) * 1e6, 3)
        event: Dict[str, Any] = {
            "name": span_.name,
            "cat": span_.category or "repro",
            "pid": pid,
            "tid": span_.tid,
            "ts": ts,
        }
        if span_.kind == "instant":
            event["ph"] = "i"
            event["s"] = "t"
        else:
            event["ph"] = "X"
            event["dur"] = round(span_.duration * 1e6, 3)
        if span_.args:
            event["args"] = _jsonable(span_.args)
        out.append(event)
        for child in span_.children:
            self._emit(child, out)

    def to_chrome(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (``traceEvents`` wrapper).

        Includes this process's span tree, its ``process_name``
        metadata event, and every foreign event streamed in from other
        processes — one merged multi-pid trace.
        """
        name = self.process_name or f"limpet pid {os.getpid()}"
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": os.getpid(),
             "tid": 0, "args": {"name": name}}]
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            self._emit(root, events)
        with self._lock:
            events.extend(self._foreign)
        return {"traceEvents": events,
                "displayTimeUnit": "ms",
                "otherData": {"tool": "limpet-bench",
                              "trace_id": self.trace_id,
                              "trace_start_unix_s": round(self._wall0, 3)}}

    def write(self, path) -> pathlib.Path:
        """Serialize :meth:`to_chrome` to ``path``; returns the path."""
        path = pathlib.Path(path)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome()))
        return path

    def summary_tree(self) -> str:
        """The plain-text span tree (durations + compact args)."""
        lines: List[str] = []

        def visit(span_: Span, depth: int) -> None:
            indent = "  " * depth
            label = f"{indent}{span_.name}"
            if span_.kind == "instant":
                lines.append(f"{label:<38} {'·':>11}  "
                             f"{_format_args(span_.args)}".rstrip())
                return
            lines.append(f"{label:<38} {span_.duration * 1e3:>9.2f} ms  "
                         f"{_format_args(span_.args)}".rstrip())
            for child in span_.children:
                visit(child, depth + 1)

        with self._lock:
            roots = list(self.roots)
            foreign = list(self._foreign)
        for root in roots:
            visit(root, 0)
        if foreign:
            pids = {e.get("pid") for e in foreign if e.get("ph") != "M"}
            spans = sum(1 for e in foreign if e.get("ph") == "X")
            lines.append(f"[+{spans} foreign span(s) from "
                         f"{len(pids)} worker process(es)]")
        return "\n".join(lines)


def _jsonable(args: Dict[str, Any]) -> Dict[str, Any]:
    safe: Dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[key] = value
        elif isinstance(value, dict):
            safe[key] = _jsonable(value)
        elif isinstance(value, (list, tuple)):
            safe[key] = [v if isinstance(v, (str, int, float, bool))
                         else repr(v) for v in value]
        else:
            safe[key] = repr(value)
    return safe


def _format_args(args: Dict[str, Any]) -> str:
    parts = []
    for key, value in args.items():
        if key == "op_delta" and isinstance(value, dict):
            inner = ",".join(f"{d}{n:+d}" for d, n in sorted(value.items()))
            parts.append(f"Δ[{inner}]" if inner else "Δ[]")
        elif isinstance(value, float):
            parts.append(f"{key}={value:g}")
        elif isinstance(value, (str, int, bool)):
            parts.append(f"{key}={value}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Process-global activation
# ---------------------------------------------------------------------------

_ACTIVE: Optional[Tracer] = None


def activate(tracer: Tracer) -> Optional[Tracer]:
    """Install ``tracer`` as the process tracer; returns the previous
    one (pass it back to :func:`deactivate` to restore nesting)."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def deactivate(previous: Optional[Tracer] = None) -> None:
    global _ACTIVE
    _ACTIVE = previous


def active_tracer() -> Optional[Tracer]:
    return _ACTIVE


def span(name: str, category: str = "", **args: Any):
    """A span on the active tracer, or a shared no-op when tracing is
    off — the one-liner every instrumentation site uses."""
    tracer = _ACTIVE
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, category, **args)


def instant(name: str, **args: Any) -> None:
    tracer = _ACTIVE
    if tracer is not None:
        tracer.instant(name, **args)


def annotate(**kv: Any) -> None:
    """Attach args to the innermost open span, if tracing is active."""
    tracer = _ACTIVE
    if tracer is not None:
        current = tracer.current_span()
        if current is not None:
            current.annotate(**kv)
