"""The repo's benchmark: EasyML text to a verified final state, end to end.

One workload, as the benchmark driver runs it (the last line of standard
output is the result, one JSON object)::

    python3 benchmarks/e2e/run.py --workload zoo_cold --seed 0 --seconds 8 --trace 0

Every workload, each in a child process of its own, one after another::

    python3 benchmarks/e2e/run.py --seed 0 --out output/benchmark.json [--trace]

``--trace`` selects the traced run, which reports the per-layer metrics and
writes a Chrome trace under ``output/e2e/``; end-to-end metrics always come
from the untraced run.  ``--regen-golden`` rewrites ``golden/*.json`` and is
never part of a timed command.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: everything the benchmark writes lands here (git-ignored)
OUTPUT = ROOT / "output" / "e2e"


def scrub_environment(scratch: pathlib.Path) -> None:
    """Make the program's stores hermetic: drop every ``LIMPET_*`` setting a
    developer may have exported and point the defaults that remain at fresh
    directories, so that a warm ``~/.cache`` kernel cache or a mounted bundle
    can never turn a cold workload into a hit."""
    for name in [n for n in os.environ if n.startswith("LIMPET_")]:
        del os.environ[name]
    os.environ["LIMPET_CACHE_DIR"] = str(scratch / "default-cache")
    os.environ["LIMPET_TUNE_DB"] = str(scratch / "tuning-db.json")
    os.environ["LIMPET_FLIGHT_DIR"] = str(scratch / "flight")


def import_program() -> float:
    """Put the benchmark's directory and the checkout's ``src`` first on the
    path and import the program; returns the seconds the import took."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to benchmark: {ROOT / 'src' / 'repro'} missing")
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    start = time.perf_counter()
    import workloads  # noqa: F401 - imports numpy and repro
    return time.perf_counter() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scratch: pathlib.Path, import_s: float = 0.0,
                 history: pathlib.Path = OUTPUT / "machine-speed.json"
                 ) -> Dict:
    """One run of one workload in this process; returns the full record.
    ``history`` is where the machine's usual speed is remembered."""
    import machine
    import workloads
    workload = workloads.WORKLOADS[name]
    calib = [machine.calib_exp_ns_per_elem()]
    stores, texts, setup_s = workloads.repeated_set_up(workload, scratch)
    setup_s += import_s
    undisturbed = None
    if trace:
        import layers
        samples, metrics = layers.traced(
            workload, stores, texts, seed, seconds,
            OUTPUT / f"trace-{name}.json")
    else:
        gauge = machine.SpeedGauge(history)
        samples = workloads.measure(workload, stores, texts, seed, seconds,
                                    gauge)
        metrics = workloads.end_to_end(samples, setup_s, gauge)
        undisturbed = sum(gauge.undisturbed(*s.speed) for s in samples)
        gauge.save()
    calib.append(machine.calib_exp_ns_per_elem())
    if trace:
        metrics["machine.calib_exp_ns_per_elem"] = sum(calib) / 2
        metrics["machine.calib_drift_share"] = calib[1] / calib[0] - 1.0
    failed = [s for s in samples if s.problems]
    units = {m["name"]: m["unit"]
             for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError("BENCHMARK.json and the run disagree on metrics: "
                           f"{sorted(set(units) ^ set(metrics))}")
    good = [s for s in samples if not s.problems]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine.identity(),
        "calib_exp_ns_per_elem": {"before": calib[0], "after": calib[1]},
        "undisturbed_operations": undisturbed,
        "timings": {} if trace else {
            attr: _timing([getattr(s, attr) for s in good])
            for attr in ("ttfs", "total")},
        "problems": [f"{s.input}: {p}" for s in failed for p in s.problems],
        "result": {
            "correct": not failed, "attempted": len(samples),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in sorted(metrics.items())}},
    }


def _timing(values: List[float]) -> Dict:
    """Median, the highest percentile with ten samples beyond it, count."""
    import workloads
    tail = workloads.tail_percentile(values)
    summary = {"n": len(values), "median_s": statistics.median(values)}
    if tail:
        summary["tail"] = {"percentile": tail[0], "seconds": tail[1]}
    return summary


def print_record(record: Dict) -> None:
    result = record["result"]
    print(f"# {record['workload']}  seed={record['seed']} "
          f"trace={int(record['trace'])}  operations="
          f"{result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name:44s} {metric['value']:>16.6g} {metric['unit']}")
    for attr, timing in record["timings"].items():
        line = f"{attr + ' per operation':44s} {timing['median_s']:>16.6g} s" \
               f"  (median of {timing['n']}"
        if "tail" in timing:
            line += (f"; p{timing['tail']['percentile']:.1f} = "
                     f"{timing['tail']['seconds']:.6g} s")
        print(line + ")")
    calib = record["calib_exp_ns_per_elem"]
    print(f"{'machine.calib_exp_ns_per_elem':44s} "
          f"{calib['before']:>16.6g} ns  (after: {calib['after']:.6g})")
    if record["undisturbed_operations"] is not None:
        print(f"{'operations at the usual machine speed':44s} "
              f"{record['undisturbed_operations']:>16d} count")
    for problem in record["problems"]:
        print("FAILED", problem)


def stop_processes() -> None:
    """Stop every process this run started and wait until each has ended:
    the supervised tier's workers (a runner lost to an exception is still in
    the program's registry), any other ``multiprocessing`` child, and the
    resource tracker that ``multiprocessing.shared_memory`` starts behind the
    program's back.  The tracker ends by itself once this process is gone,
    but only some milliseconds *after* it, which is a process left running
    as far as the caller can tell; closing its pipe and reaping it here
    makes the exit of this process the end of the run."""
    import multiprocessing
    from multiprocessing import resource_tracker
    from repro.runtime import supervised
    supervised.close_all_runners()
    for proc in multiprocessing.active_children():
        proc.kill()
        proc.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def child(args) -> int:
    """The driver's contract: one workload, the result as the last line."""
    scratch = OUTPUT / f"tmp-{os.getpid()}"
    scrub_environment(scratch)
    import_s = import_program()
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), scratch, import_s)
    finally:
        stop_processes()
        shutil.rmtree(scratch, ignore_errors=True)
    print_record(record)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]))
    return 1 if record["result"]["failed"] else 0


def spawn(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload in a child process of its own, so that peak memory,
    imports and the program's ``lru_cache``s are per workload."""
    OUTPUT.mkdir(parents=True, exist_ok=True)
    out = OUTPUT / f"record-{os.getpid()}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--out", str(out)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    try:
        if not out.exists():
            raise RuntimeError(f"{workload} gave no result (exit code "
                               f"{done.returncode}):\n{done.stdout[-2000:]}")
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def run_all(seed: int, seconds: float, trace: bool, runs: int) -> Dict:
    """Every workload ``runs`` times (seeds ``seed``, ``seed + 1``, ...), as
    the driver repeats them; each metric keeps one value per run."""
    report: Dict = {"seed": seed, "seconds": seconds, "runs": runs,
                    "workloads": {}, "failed": 0}
    for spec in SPEC["workloads"]:
        name = spec["name"]
        entry: Dict = {"end_to_end": {}, "per_layer": {}, "calib": []}
        for run in range(runs):
            for traced in ([False, True] if trace else [False]):
                record = spawn(name, seed + run, seconds, traced)
                print_record(record)
                report["machine"] = record["machine"]
                report["failed"] += record["result"]["failed"]
                entry["calib"].append(record["calib_exp_ns_per_elem"])
                section = entry["per_layer" if traced else "end_to_end"]
                for metric, value in record["result"]["metrics"].items():
                    section.setdefault(
                        metric, {"unit": value["unit"], "values": []}
                    )["values"].append(value["value"])
        report["workloads"][name] = entry
    return report


def regen_golden() -> int:
    scrub_environment(OUTPUT / "tmp-golden")
    import_program()
    import golden
    import workloads
    for name, text in workloads.read_texts(workloads.ZOO).items():
        golden.write(name, golden.reference_final_state(text, name))
        print("golden", name)
    name = golden.POPULATION_MODEL
    golden.write(golden.POPULATION_KEY, golden.reference_final_state(
        workloads.read_texts([name])[name], name, population=True))
    print("golden", golden.POPULATION_KEY)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]],
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the zoo order and the initial states")
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"],
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="the traced, per-layer run")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: runs per workload")
    parser.add_argument("--out", type=pathlib.Path,
                        help="write the full record here as JSON")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden/*.json from the reference "
                             "engine and exit")
    args = parser.parse_args(argv)
    if args.regen_golden:
        return regen_golden()
    if args.workload:
        return child(args)
    report = run_all(args.seed, args.seconds, bool(args.trace), args.runs)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 1 if report["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
