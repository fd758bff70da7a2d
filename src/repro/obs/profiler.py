"""Measured per-op kernel profiling: hot tables by op, dialect and class.

The lowering (``repro.runtime.lowering``) can emit kernels in
**profile mode**: every op-emitting statement is bracketed by a pair
of ``perf_counter`` reads accumulating into a per-statement slot of a
preallocated counter array, with a *provenance* record mapping each
slot back to the IR operation (and, through the op's result name hint,
the EasyML source name) it was lowered from.  Crucially the compute
statements themselves are textually unchanged, so a profiled run is
**bitwise identical** to an unprofiled one — the clock reads happen
between statements, never inside an expression.

:class:`KernelProfileReport` turns those raw counters into per-op
measured seconds, a top-N hot table (``hot_table``) and per-IR-op,
per-dialect and per-cost-class aggregations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..ir.core import op_info

__all__ = ["OpCost", "KernelProfileReport", "classify_op"]

#: cost-model element classes of the memory ops (an elementwise op's
#: class is its row's ``cost`` column)
_MOVE_OPS = {"memref.load", "memref.store", "vector.load", "vector.store"}
_GATHER_OPS = {"vector.gather", "vector.scatter"}
#: a vector access's class is the addressing mode the lowering gave it
#: (its provenance ``detail``), not the op that asked for it
_ADDRESSING_CLASS = {"unit": "move", "strided": "gather",
                     "indexed": "indexed"}


def classify_op(op_name: str, detail: Optional[str] = None) -> str:
    """Map an IR op (+ call / addressing detail) onto a cost-model
    element class."""
    if op_name == "func.call":
        if detail and "LUT_" in detail:
            return "lut"
        return "other"
    if detail in _ADDRESSING_CLASS and op_name.startswith("vector."):
        return _ADDRESSING_CLASS[detail]
    info = op_info(op_name)
    if info is not None and info.cost not in ("", "none"):
        return info.cost
    if op_name in _MOVE_OPS:
        return "move"
    if op_name in _GATHER_OPS:
        return "gather"
    return "other"


@dataclass
class OpCost:
    """Measured cost of one lowered statement (one provenance slot)."""

    index: int
    op: str                        # IR operation name (e.g. math.exp)
    dialect: str
    seconds: float
    source: Optional[str] = None   # EasyML name via the result hint
    snippet: str = ""              # the lowered statement text
    #: callee for func.call statements, ``live/total callee`` columns
    #: for a LUT call; addressing mode (``unit`` / ``strided`` /
    #: ``indexed``) for vector memory accesses
    detail: Optional[str] = None

    @property
    def element_class(self) -> str:
        return classify_op(self.op, self.detail)


class KernelProfileReport:
    """Aggregated view of one profiled kernel's measured counters."""

    def __init__(self, entries: List[OpCost], model: str = "",
                 invocations: int = 0):
        self.entries = sorted(entries, key=lambda e: -e.seconds)
        self.model = model
        self.invocations = invocations
        self.total_seconds = sum(e.seconds for e in entries)

    @classmethod
    def from_kernel(cls, kernel, model: str = "",
                    invocations: int = 0) -> "KernelProfileReport":
        """Build from a :class:`~repro.runtime.lowering.CompiledKernel`
        lowered with ``profile=True`` (raises otherwise)."""
        if kernel.profile_counters is None or kernel.provenance is None:
            raise ValueError(
                "kernel was not lowered in profile mode; construct the "
                "runner with KernelRunner(..., profile=True)")
        entries = [
            OpCost(index=entry["index"], op=entry["op"],
                   dialect=entry["dialect"],
                   seconds=float(kernel.profile_counters[entry["index"]]),
                   source=entry.get("source"),
                   snippet=entry.get("text", ""),
                   detail=entry.get("detail"))
            for entry in kernel.provenance]
        return cls(entries, model=model, invocations=invocations)

    # -- aggregation --------------------------------------------------------------

    def by_op(self) -> Dict[str, float]:
        """Measured seconds aggregated by IR operation name."""
        totals: Dict[str, float] = {}
        for entry in self.entries:
            totals[entry.op] = totals.get(entry.op, 0.0) + entry.seconds
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def by_dialect(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for entry in self.entries:
            totals[entry.dialect] = (totals.get(entry.dialect, 0.0)
                                     + entry.seconds)
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def by_class(self) -> Dict[str, float]:
        """Measured seconds aggregated by cost-model element class."""
        totals: Dict[str, float] = {}
        for entry in self.entries:
            cls_ = entry.element_class
            totals[cls_] = totals.get(cls_, 0.0) + entry.seconds
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def attributed_fraction(self, measured_compute_seconds: float) -> float:
        """Share of an externally measured compute time the per-op
        counters account for (acceptance bar: >= 0.95)."""
        if measured_compute_seconds <= 0.0:
            return 0.0
        return self.total_seconds / measured_compute_seconds

    # -- presentation -------------------------------------------------------------

    def hot_table(self, top_n: int = 10) -> str:
        """The top-N hot-op table: seconds, share, op, its detail (a
        call's callee, an access's addressing mode), source name."""
        head = f"hot ops — {self.model}" if self.model else "hot ops"
        if self.invocations:
            head += f" ({self.invocations} kernel calls)"
        head += f", {self.total_seconds * 1e3:.2f} ms attributed"
        lines = [head,
                 f"{'seconds':>10} {'share':>7} {'cum':>7} "
                 f"{'op':<18} {'detail':<10} {'source':<16} statement"]
        total = max(self.total_seconds, 1e-12)

        def row(entry: OpCost, cumulative: str) -> str:
            snippet = entry.snippet
            if len(snippet) > 48:
                snippet = snippet[:45] + "..."
            return (f"{entry.seconds:>10.6f} {entry.seconds / total:>6.1%} "
                    f"{cumulative:>6} {entry.op:<18} "
                    f"{(entry.detail or '-')[:10]:<10} "
                    f"{(entry.source or '-'):<16} {snippet}")

        cumulative = 0.0
        for entry in self.entries[:top_n]:
            cumulative += entry.seconds
            lines.append(row(entry, f"{cumulative / total:.1%}"))
        remaining = len(self.entries) - top_n
        if remaining > 0:
            rest = sum(e.seconds for e in self.entries[top_n:])
            lines.append(f"{rest:>10.6f} {rest / total:>6.1%} "
                         f"{'100.0%':>7} (+{remaining} more)")
        # an access the lowering could not slice gets a line of its own
        # wherever it ranks
        lines += [row(entry, "") for entry in self.entries[top_n:]
                  if entry.detail == "indexed"]
        return "\n".join(lines)

    def as_dict(self) -> Dict:
        return {"model": self.model,
                "invocations": self.invocations,
                "total_seconds": self.total_seconds,
                "by_op": self.by_op(),
                "by_class": self.by_class(),
                "entries": [{"index": e.index, "op": e.op,
                             "dialect": e.dialect, "seconds": e.seconds,
                             "source": e.source, "snippet": e.snippet,
                             "detail": e.detail}
                            for e in self.entries]}
