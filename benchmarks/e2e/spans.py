"""In-memory spans recorded by the benchmark around calls into the program.

The traced run wraps every call into a layer's public functions in a span:
name, start, end, the span that caused it, and the operation it belongs to.
Spans stay in memory until the run ends, then go out as Chrome-trace JSON.
A layer's self time is its span minus the part its child spans cover.
"""

from __future__ import annotations

import json
import pathlib
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Recorder:
    """Nested spans of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, **args) -> Iterator[Dict]:
        """Record one span; ``args`` (input name, counts) ride along and the
        caller may add more to the yielded record's ``args`` while inside."""
        parent: Optional[int] = self._stack[-1] if self._stack else None
        record = {"name": name, "id": len(self.spans), "parent": parent,
                  "args": dict(args), "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Self time of every span, indexed like ``spans``."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def root_of(self, span: Dict) -> Dict:
        """The operation (top-level span) ``span`` belongs to."""
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
        return span

    def write_chrome_trace(self, path: pathlib.Path) -> None:
        """Complete ("X") events, microseconds from the first span."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        events = [{"name": s["name"], "ph": "X", "pid": 0, "tid": 0,
                   "ts": (s["start"] - origin) * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"id": s["id"], "parent": s["parent"],
                            "operation": self.root_of(s)["id"],
                            **s["args"]}}
                  for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
