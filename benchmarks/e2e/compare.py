"""Compare two records of the benchmark, or the current tree with itself.

    python3 benchmarks/e2e/compare.py before.json after.json
    python3 benchmarks/e2e/compare.py --repeat [--runs 10] [--seed 0]

Prints one row per (end-to-end metric, workload): both medians, both
quartile ranges, the ratio with its base, and a verdict by the rule the
benchmark's bounds define:

* ``regressed``  - the second median is worse than the first by more than
  the metric's bound;
* ``unresolved`` - a side's quartile spread (Q3 - Q1 over the median of its
  runs) exceeds the bound, so a difference of that size cannot be told from
  noise; not reported when every run of the second reads better than every
  run of the first;
* ``ok``         - neither.

``--repeat`` records the current tree twice (``run.py --runs N``) and exits
non-zero unless every pair is ``ok``: two sets of runs of the same code must
agree within the benchmark's own bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

from run import HERE, OUTPUT, SPEC


def spread(values: List[float]) -> float:
    """Q3 - Q1 as a share of the median; 0 for fewer than two runs."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(first: List[float], second: List[float], better: str,
            bound: float, check_spread: bool = True) -> Tuple[float, str]:
    """(second median / first median, verdict) for one metric on one workload."""
    a, b = statistics.median(first), statistics.median(second)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / a
    if sign > 0:
        clear_win = max(second) < min(first)
    else:
        clear_win = min(second) > max(first)
    if check_spread and not clear_win \
            and max(spread(first), spread(second)) > bound:
        return b / a, "unresolved"
    return b / a, "regressed" if worse_by > bound else "ok"


def compare(first: Dict, second: Dict) -> List[Tuple]:
    """One row per (workload, end-to-end metric) both records hold."""
    rows = []
    for workload in SPEC["workloads"]:
        name = workload["name"]
        if name not in first["workloads"] or name not in second["workloads"]:
            continue
        for metric in SPEC["end_to_end"]:
            a = first["workloads"][name]["end_to_end"][metric["name"]]
            b = second["workloads"][name]["end_to_end"][metric["name"]]
            # set-up is reported as a median of repeats inside one run; its
            # run-to-run spread is not held against it, only its median
            ratio, word = verdict(a["values"], b["values"], metric["better"],
                                  metric["bound"],
                                  check_spread=metric["name"] != "setup_s")
            rows.append((name, metric, a["values"], b["values"], ratio, word))
    return rows


def print_rows(rows: List[Tuple]) -> None:
    print(f"{'workload':24s} {'metric':18s} {'first':>12s} {'spread':>7s} "
          f"{'second':>12s} {'spread':>7s}  {'second/first':>12s}  "
          f"{'bound':>5s}  verdict")
    for name, metric, a, b, ratio, word in rows:
        print(f"{name:24s} {metric['name']:18s} "
              f"{statistics.median(a):12.6g} {spread(a):7.3f} "
              f"{statistics.median(b):12.6g} {spread(b):7.3f}  "
              f"{ratio:9.3f}x of first  {metric['bound']:5.2f}  {word}"
              f"  ({metric['unit']}, {metric['better']} is better, "
              f"n={len(a)}/{len(b)})")


def record(path: pathlib.Path, runs: int, seed: int) -> Dict:
    subprocess.run([sys.executable, str(HERE / "run.py"), "--runs", str(runs),
                    "--seed", str(seed), "--out", str(path)],
                   check=True, stdout=subprocess.DEVNULL)
    return json.loads(path.read_text())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("records", nargs="*", type=pathlib.Path,
                        help="two JSON files written by run.py --out")
    parser.add_argument("--repeat", action="store_true",
                        help="record the current tree twice and compare")
    parser.add_argument("--runs", type=int, default=10,
                        help="with --repeat: runs per workload and record")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.repeat:
        first = record(OUTPUT / "repeat-first.json", args.runs, args.seed)
        second = record(OUTPUT / "repeat-second.json", args.runs, args.seed)
    elif len(args.records) == 2:
        first, second = (json.loads(p.read_text()) for p in args.records)
    else:
        parser.error("give two records, or --repeat")
    rows = compare(first, second)
    print_rows(rows)
    disagree = [row for row in rows if row[-1] != "ok"]
    return 1 if args.repeat and disagree else 0


if __name__ == "__main__":
    sys.exit(main())
