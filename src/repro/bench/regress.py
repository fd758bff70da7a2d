"""Perf-regression gate: current measurements vs a committed record.

``BENCH.json`` records what the machine that produced it could do
(:mod:`repro.bench.record`).  ``limpet-bench perf --baseline BENCH.json``
re-measures every section the file holds, with the section's own
``config``, **today**, and fails (non-zero exit) when a tracked metric
regressed beyond ``--tolerance`` — the observe-then-calibrate loop the
paper applies to its generated kernels, turned on the reproduction
itself and wired into CI.

Two classes of metric fall out of the section shape, gated differently:

* every entry of a section's ``ratios`` (speedups: artifact-vs-JIT
  time-to-first-step, fused-vs-baseline run time, batched-vs-loop
  sweeps) is dimensionless and survives a machine change — always
  gated;
* ``steps_per_second`` and ``time_to_first_step`` of every variant are
  **absolute** and only mean something on the machine that recorded
  the baseline — gated when the two records' machine identities match
  (:func:`repro.bench.record.same_machine`), reported as *skipped*
  otherwise (CI runners differ from the committed-baseline machine).

A regression is ``current < baseline * (1 - tolerance)`` for
higher-is-better metrics and ``current > baseline * (1 + tolerance)``
for lower-is-better ones.  ``slowdown`` synthetically degrades every
current metric by the given factor — the self-test proving the gate
actually trips (``perf --baseline ... --inject-slowdown 4``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .perf import perf_report, sweep_report
from .record import load_record, make_record, same_machine

__all__ = ["MEASURE", "GateRow", "extract_metrics", "measure_record",
           "compare_metrics", "perf_gate", "format_gate_table"]

#: section name -> its measurer; a section's ``config`` is exactly the
#: measurer's keyword arguments
MEASURE: Dict[str, Callable[..., Dict]] = {
    "perf": perf_report, "sweep": sweep_report}

#: the absolute per-variant metrics: (key, higher is better)
ABSOLUTE = (("steps_per_second", True), ("time_to_first_step", False))


@dataclass
class GateRow:
    """One gated metric: baseline vs current and the verdict."""

    name: str
    baseline: float
    current: Optional[float]
    higher_better: bool
    absolute: bool
    status: str                 # "ok" | "regression" | "skipped" | "missing"
    ratio: Optional[float] = None   # current / baseline

    @property
    def failed(self) -> bool:
        return self.status == "regression"


def extract_metrics(record: Dict) -> List[Dict]:
    """The gated metrics of a record, each
    ``{name, value, higher_better, absolute}``."""
    out: List[Dict] = []

    def metric(name: str, value, higher_better: bool,
               absolute: bool) -> None:
        if isinstance(value, (int, float)) and value > 0:
            out.append({"name": name, "value": float(value),
                        "higher_better": higher_better,
                        "absolute": absolute})

    for section_name, section in record["sections"].items():
        for name, value in section["ratios"].items():
            metric(f"{section_name}.{name}", value, True, False)
        for variant in section["variants"]:
            for key, higher_better in ABSOLUTE:
                metric(f"{section_name}.{variant['name']}.{key}",
                       variant.get(key), higher_better, True)
    return out


def measure_record(baseline: Dict, runs: Optional[int] = None) -> Dict:
    """Re-run every section of ``baseline`` with its recorded config.

    Returns a record measured on this machine now.  ``runs`` overrides
    the timing runs of the sections whose config has that keyword.
    """
    unknown = sorted(set(baseline["sections"]) - set(MEASURE))
    if unknown:
        raise ValueError(
            f"no measurer for section(s) {', '.join(unknown)}; "
            f"known: {', '.join(MEASURE)}")
    sections = {}
    for name, section in baseline["sections"].items():
        config = dict(section["config"])
        if runs is not None and "runs" in config:
            config["runs"] = runs
        sections[name] = MEASURE[name](**config)
    return make_record(sections)


def compare_metrics(baseline: List[Dict], current: List[Dict],
                    tolerance: float,
                    gate_absolute: bool) -> List[GateRow]:
    """Pair metrics by name and apply the tolerance."""
    current_by_name = {m["name"]: m["value"] for m in current}
    rows: List[GateRow] = []
    for base in baseline:
        value = current_by_name.get(base["name"])
        if value is None:
            status = "missing"
        elif base["absolute"] and not gate_absolute:
            status = "skipped"
        elif base["higher_better"]:
            status = "regression" \
                if value < base["value"] * (1 - tolerance) else "ok"
        else:
            status = "regression" \
                if value > base["value"] * (1 + tolerance) else "ok"
        rows.append(GateRow(
            name=base["name"], baseline=base["value"], current=value,
            higher_better=base["higher_better"],
            absolute=base["absolute"], status=status,
            ratio=None if value is None else value / base["value"]))
    return rows


def _inject_slowdown(metrics: List[Dict], factor: float) -> List[Dict]:
    """Degrade every metric by ``factor`` (the gate's self-test)."""
    out = []
    for m in metrics:
        m = dict(m)
        m["value"] = m["value"] / factor if m["higher_better"] \
            else m["value"] * factor
        out.append(m)
    return out


def perf_gate(baseline_path, tolerance: float = 0.15,
              slowdown: Optional[float] = None,
              runs: Optional[int] = None,
              measure: Optional[Callable[[Dict], Dict]] = None
              ) -> Tuple[List[GateRow], List[str], Dict]:
    """The full gate: load baseline, re-measure, compare.

    Returns ``(rows, failures, current_record)`` — ``failures`` is the
    list of human-readable regression lines (empty = gate passes).
    ``measure`` overrides the re-measurement (tests inject cheap
    fakes); ``slowdown`` synthetically degrades the current metrics.
    """
    baseline = load_record(baseline_path)
    if measure is not None:
        current = measure(baseline)
    else:
        current = measure_record(baseline, runs=runs)
    cur_metrics = extract_metrics(current)
    if slowdown:
        cur_metrics = _inject_slowdown(cur_metrics, slowdown)
    rows = compare_metrics(
        extract_metrics(baseline), cur_metrics, tolerance,
        gate_absolute=same_machine(baseline["machine"],
                                   current["machine"]))
    failures = []
    for row in rows:
        if row.failed:
            direction = "↓" if row.higher_better else "↑"
            failures.append(
                f"{row.name}: {row.baseline:g} -> {row.current:g} "
                f"({direction} {abs(1 - row.ratio) * 100:.1f}% beyond "
                f"the {tolerance * 100:.0f}% tolerance)")
    return rows, failures, current


def format_gate_table(rows: List[GateRow], tolerance: float,
                      baseline_name: str = "baseline") -> str:
    lines = [
        f"perf gate vs {baseline_name} (tolerance "
        f"{tolerance * 100:.0f}%; absolute metrics "
        f"{'gated' if any(r.absolute and r.status != 'skipped' for r in rows) else 'skipped: different machine'})",
        f"{'metric':<52} {'baseline':>12} {'current':>12} "
        f"{'ratio':>7}  status",
    ]
    for row in rows:
        cur = f"{row.current:g}" if row.current is not None else "-"
        ratio = f"{row.ratio:.3f}" if row.ratio is not None else "-"
        mark = {"ok": "ok", "regression": "REGRESSION",
                "skipped": "skipped", "missing": "MISSING"}[row.status]
        lines.append(f"{row.name:<52} {row.baseline:>12g} {cur:>12} "
                     f"{ratio:>7}  {mark}")
    n_fail = sum(r.failed for r in rows)
    n_ok = sum(r.status == "ok" for r in rows)
    n_skip = sum(r.status == "skipped" for r in rows)
    lines.append(f"{n_ok} ok, {n_fail} regression(s), "
                 f"{n_skip} skipped")
    return "\n".join(lines)
