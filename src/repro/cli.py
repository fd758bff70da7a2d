"""``limpet-bench`` — the command-line front door.

Subcommands:

* ``list`` — the 43-model suite with size classes;
* ``describe MODEL`` — the frontend's analysis of one model;
* ``ir MODEL`` — print the generated IR (``--pretty`` for MLIR-like
  sugar, ``--backend`` to pick the code generator);
* ``run MODEL`` — execute a real simulation and report wall time
  (resilient by default: backend fallback chain + optional watchdog;
  ``--strict`` fails fast instead, for CI);
* ``compare MODEL`` — run baseline and limpetMLIR engines, check the
  trajectories agree and report the measured speedup;
* ``figure {fig2,fig3,fig4,fig5,fig6}`` — regenerate a paper figure's
  data from the modeled Cascade Lake bench;
* ``perf`` — measured performance-layer comparison (baseline / fused /
  fused+cached / fused+artifact) with the steady-state harness;
* ``sweep MODEL --param NAME=lo:hi:N`` — population-batched parameter
  sweep: one kernel advances all N parameter-perturbed instances,
  timed against the loop-of-N shape it replaces, with a bitwise
  differential gate between the two;
* ``build-all`` — AOT-compile the whole model zoo into a versioned
  artifact bundle; any process pointed at it via
  ``$LIMPET_ARTIFACT_DIR`` cold-starts with zero compile work (see
  :mod:`repro.aot` and DESIGN.md §12);
* ``artifacts {audit,list}`` — staleness audit of a bundle (re-derives
  keys, flags pipeline/lowering/source drift, quarantines
  corrupt entries; nonzero exit when anything drifted) / manifest
  listing;
* ``coldstart`` — JIT vs artifact-bundle time-to-first-step in fresh
  child processes, with bitwise and zero-compile-span proof;
* ``cache-stats`` — kernel-cache and LUT-cache statistics;
* ``trace MODEL`` — compile + run one model under the tracer and emit
  the span tree (parse -> frontend -> irgen -> passes -> lowering ->
  run, with per-pass op-count deltas) plus Chrome trace-event JSON
  loadable in ``chrome://tracing`` / https://ui.perfetto.dev;
  ``--profile`` adds the measured per-op hot table;
* ``metrics`` — run a small representative workload and dump the
  process metrics registry (``--json`` snapshot or ``--prom``
  Prometheus text exposition);
* ``faults`` — the fault-injection drill: deterministically break a
  pass, corrupt IR, poison a run with NaNs, fail backends, kill and
  stall supervised workers, corrupt on-disk cache entries — then
  check the resilience layer recovers from every one;
* ``ledger`` — inspect the append-only run ledger ($LIMPET_LEDGER):
  every run/compile/degradation row, ``--summary`` per-model rollup;
* ``flight`` — show/list crash flight-recorder dumps (the bounded ring
  of recent spans/metrics written on worker death, degradation,
  quarantine or unhandled exception).

``perf``, ``sweep`` and ``coldstart`` each measure one section of the
perf record (:mod:`repro.bench.record`); ``--json`` writes it as a
one-section record.  ``perf --baseline BENCH.json``
switches ``perf`` into the regression gate: re-measure every section
the record holds with its recorded configuration and exit non-zero
when a tracked metric regressed beyond ``--tolerance``
(``--inject-slowdown`` self-tests the trip wire); ``--json BENCH.json``
on top re-records the baseline as the median of five measurements.
``trace MODEL
--workers N`` runs on the supervised tier and merges worker spans into
one multi-pid trace; ``trace --merge DIR`` stitches per-process
``trace-*.json`` files offline.

``run --workers N`` executes on the supervised multiprocess tier
(crash-isolated worker processes over shared memory; see
:mod:`repro.runtime.supervised`).

Setting ``$LIMPET_TRACE=<dir>`` captures a Chrome trace from *any*
subcommand into ``<dir>/trace-<command>-<pid>.json``; SIGINT/SIGTERM
reap workers, unlink shared memory and still flush the trace.

Exit codes are structured for CI: 0 success, 1 result failure
(mismatch / not vectorizable), 2 usage (argparse), 3 compiled only via
a fallback tier, 4 compile failed outright, 5 numerical divergence
unrecovered, 6 fault-injection drill failed, 130 interrupted.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import List, Optional

from .bench import (figure_isa_sweep, figure_roofline, figure_scaling,
                    figure_speedups, format_isa_sweep, format_scaling_table,
                    format_speedup_table, format_sweep_table,
                    generate_variant, resilient_sweep)
from .bench.record import make_record, write_record
from .codegen import check_simd_legality
from .ir import print_module, verify_module
from .ir.passes import default_pipeline
from .machine import format_roofline_table
from .models import (ALL_MODELS, UNSUPPORTED_MODELS,
                     all_model_files, list_models, load_model)
from .resilience import (FaultInjector, FaultPlan, NumericalDivergenceError,
                         ResilientCompileError, WatchdogConfig,
                         compile_resilient, format_trail, load_reproducer,
                         sandboxed_pipeline)
from .runtime import Stimulus, compare_trajectories

#: structured exit codes (documented above; mapped from Diagnostics)
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_FELL_BACK = 3
EXIT_COMPILE_FAILED = 4
EXIT_NUMERICAL = 5
EXIT_FAULTS = 6

#: measurements whose median ``perf --baseline X --json X`` records as X
RECORD_MEASUREMENTS = 5

#: chain starting points: requesting a tier tries it, then weaker tiers
_CHAINS = {
    "limpet_mlir": ("limpet_mlir", "icc_simd", "baseline"),
    "icc_simd": ("icc_simd", "baseline"),
    "baseline": ("baseline",),
}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_model_argument(parser: argparse.ArgumentParser,
                        include_unsupported: bool = False) -> None:
    choices = all_model_files() if include_unsupported else ALL_MODELS
    parser.add_argument("model", choices=choices, metavar="MODEL",
                        help="ionic model name (see 'limpet-bench list')")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limpet-bench",
        description="limpetMLIR reproduction bench (CGO'23)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list the 43-model suite")
    list_cmd.set_defaults(func=lambda args: cmd_list())

    describe = sub.add_parser("describe", help="frontend analysis summary")
    _add_model_argument(describe, include_unsupported=True)
    describe.set_defaults(func=lambda args: cmd_describe(args.model))

    legality = sub.add_parser(
        "legality", help="check the paper's SIMD criteria (paper section 5)")
    _add_model_argument(legality, include_unsupported=True)
    legality.set_defaults(func=lambda args: cmd_legality(args.model))

    ir_cmd = sub.add_parser("ir", help="print generated IR")
    _add_model_argument(ir_cmd)
    ir_cmd.add_argument("--backend", default="limpet_mlir",
                        choices=("baseline", "limpet_mlir", "icc_simd"))
    ir_cmd.add_argument("--width", type=int, default=8,
                        choices=(2, 4, 8))
    ir_cmd.add_argument("--pretty", action="store_true",
                        help="MLIR-like sugared syntax")
    ir_cmd.add_argument("--no-opt", action="store_true",
                        help="skip the pass pipeline")
    ir_cmd.set_defaults(func=lambda args: cmd_ir(
        args.model, args.backend, args.width, args.pretty, args.no_opt))

    run_cmd = sub.add_parser("run", help="run a real simulation")
    _add_model_argument(run_cmd, include_unsupported=True)
    run_cmd.add_argument("--backend", default="limpet_mlir",
                         choices=("baseline", "limpet_mlir", "icc_simd"))
    run_cmd.add_argument("--width", type=int, default=8, choices=(2, 4, 8))
    run_cmd.add_argument("--cells", type=_positive_int, default=1024)
    run_cmd.add_argument("--steps", type=_positive_int, default=200)
    run_cmd.add_argument("--dt", type=_positive_float, default=0.01)
    run_cmd.add_argument("--strict", action="store_true",
                         help="disable the backend fallback chain "
                              "(fail fast, for CI)")
    run_cmd.add_argument("--watchdog", default="off",
                         choices=("off", "raise", "halve_dt",
                                  "abort_cell_report"),
                         help="numerical watchdog policy (default: off)")
    run_cmd.add_argument("--workers", type=_positive_int, default=None,
                         help="run on the supervised multiprocess tier "
                              "with this many crash-isolated worker "
                              "processes (default: in-process)")
    run_cmd.set_defaults(func=lambda args: cmd_run(
        args.model, args.backend, args.width, args.cells, args.steps,
        args.dt, args.strict, args.watchdog, args.workers))

    compare = sub.add_parser(
        "compare", help="baseline vs limpetMLIR: equivalence + speedup")
    _add_model_argument(compare)
    compare.add_argument("--cells", type=_positive_int, default=512)
    compare.add_argument("--steps", type=_positive_int, default=100)
    compare.add_argument("--strict", action="store_true",
                         help="disable the backend fallback chain")
    compare.set_defaults(func=lambda args: cmd_compare(
        args.model, args.cells, args.steps, args.strict))

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("which",
                        choices=("fig2", "fig3", "fig4", "fig5", "fig6"))
    figure.set_defaults(func=lambda args: cmd_figure(args.which))

    perf = sub.add_parser(
        "perf", help="measured performance-layer comparison "
                     "(baseline / fused / fused+cached / "
                     "fused+artifact)")
    perf.add_argument("--model", default=None, metavar="MODEL",
                      choices=ALL_MODELS,
                      help="model to benchmark (default: the canonical "
                           "config's model)")
    perf.add_argument("--cells", type=_positive_int, default=None)
    perf.add_argument("--steps", type=_positive_int, default=None)
    perf.add_argument("--dt", type=_positive_float, default=None)
    perf.add_argument("--width", type=int, default=None,
                      choices=(2, 4, 8),
                      help="vector width for the limpetMLIR variants "
                           "(default: the canonical width, 8)")
    perf.add_argument("--runs", type=_positive_int, default=None,
                      help="timing runs per variant (default: the paper "
                           "protocol's 5; --baseline mode: the record's)")
    perf.add_argument("--json", default=None, metavar="PATH",
                      help="also write the measurement as a perf record "
                           "(--baseline mode writing over its own "
                           "baseline: the median of 5 measurements)")
    perf.add_argument("--check", action="store_true",
                      help="fail (exit 1) unless fused >= unfused and "
                           "the cache hit sped up construction")
    perf.add_argument("--baseline", default=None, metavar="PATH",
                      help="regression-gate mode: re-measure every "
                           "section of the given perf record "
                           "(BENCH.json) and fail (exit 1) on any "
                           "metric regressed beyond --tolerance")
    perf.add_argument("--tolerance", type=_positive_float, default=0.15,
                      help="allowed fractional regression per metric "
                           "in --baseline mode (default: 0.15)")
    perf.add_argument("--inject-slowdown", type=_positive_float,
                      default=None, metavar="FACTOR", dest="slowdown",
                      help="--baseline mode self-test: synthetically "
                           "degrade every current metric by FACTOR so "
                           "the gate demonstrably trips")
    perf.set_defaults(func=lambda args: cmd_perf(
        args.model, args.cells, args.steps, args.dt, args.runs, args.json,
        args.check, args.width, args.baseline, args.tolerance,
        args.slowdown))

    sweep_cmd = sub.add_parser(
        "sweep", help="population-batched parameter sweep: one kernel "
                      "advancing N parameter-perturbed instances, timed "
                      "against the loop-of-N shape")
    _add_model_argument(sweep_cmd)
    sweep_cmd.add_argument("--param", action="append", default=None,
                           metavar="NAME=lo:hi:N", dest="params",
                           help="parameter range to sweep; repeatable. "
                                "lo/hi scale the model default unless "
                                "--absolute; N defaults to 16")
    sweep_cmd.add_argument("--absolute", action="store_true",
                           help="range bounds are absolute values, not "
                                "multiples of the model default")
    sweep_cmd.add_argument("--cells", type=_positive_int, default=256,
                           help="cells per instance (default 256)")
    sweep_cmd.add_argument("--steps", type=_positive_int, default=50)
    sweep_cmd.add_argument("--dt", type=_positive_float, default=0.01)
    sweep_cmd.add_argument("--runs", type=_positive_int, default=5,
                           help="timing runs per variant")
    sweep_cmd.add_argument("--width", type=int, default=8,
                           choices=(2, 4, 8))
    sweep_cmd.add_argument("--json", default=None, metavar="PATH",
                           help="also write the measurement as a perf "
                                "record")
    sweep_cmd.add_argument("--check", action="store_true",
                           help="fail (exit 1) unless batched beats the "
                                "loop by >= 1.5x with warm-cache reuse")
    sweep_cmd.set_defaults(func=lambda args: cmd_sweep(
        args.model, args.params, args.absolute, args.cells, args.steps,
        args.dt, args.runs, args.width, args.json, args.check))

    build_all = sub.add_parser(
        "build-all", help="AOT-compile the model zoo into a versioned "
                          "artifact bundle (zero-compile cold start)")
    build_all.add_argument("--dest", default=None, metavar="DIR",
                           help="bundle directory (default: "
                                "$LIMPET_ARTIFACT_DIR)")
    build_all.add_argument("--models", nargs="+", default=None,
                           metavar="MODEL", choices=all_model_files(),
                           help="subset to build (default: all models)")
    build_all.add_argument("--width", type=int, default=8,
                           choices=(2, 4, 8))
    build_all.set_defaults(func=lambda args: cmd_build_all(
        args.dest, args.models, args.width))

    artifacts = sub.add_parser(
        "artifacts", help="inspect / audit an AOT artifact bundle")
    artifacts.add_argument("action", choices=("audit", "list"))
    artifacts.add_argument("--dir", default=None, metavar="DIR",
                           help="bundle directory (default: "
                                "$LIMPET_ARTIFACT_DIR)")
    artifacts.add_argument("--no-deep", action="store_true",
                           help="audit: skip key re-derivation "
                                "(metadata checks only)")
    artifacts.add_argument("--json", default=None, metavar="PATH",
                           help="also write the report as JSON")
    artifacts.set_defaults(func=lambda args: cmd_artifacts(
        args.action, args.dir, args.no_deep, args.json))

    coldstart = sub.add_parser(
        "coldstart", help="JIT vs AOT-bundle cold start in fresh child "
                          "processes")
    coldstart.add_argument("--models", nargs="+", default=None,
                           metavar="MODEL", choices=ALL_MODELS,
                           help="models to measure (default: the "
                                "representative set)")
    coldstart.add_argument("--bundle", default=None, metavar="DIR",
                           help="existing bundle to mount (default: "
                                "build a fresh one into a temp dir)")
    coldstart.add_argument("--cells", type=_positive_int, default=64)
    coldstart.add_argument("--steps", type=_positive_int, default=50)
    coldstart.add_argument("--width", type=int, default=8,
                           choices=(2, 4, 8))
    coldstart.add_argument("--json", default=None, metavar="PATH",
                           help="also write the measurement as a perf "
                                "record")
    coldstart.add_argument("--check", action="store_true",
                           help="fail (exit 1) unless bitwise identity, "
                                "zero compile spans, and >= 5x on >= 3 "
                                "models hold")
    coldstart.set_defaults(func=lambda args: cmd_coldstart(
        args.models, args.bundle, args.cells, args.steps, args.width,
        args.json, args.check))

    cache_stats = sub.add_parser(
        "cache-stats", help="kernel-cache and LUT-cache statistics")
    cache_stats.add_argument("--cache-dir", default=None,
                             help="kernel cache directory (default: "
                                  "$LIMPET_CACHE_DIR or "
                                  "~/.cache/limpet-repro/kernels)")
    cache_stats.add_argument("--clear", action="store_true",
                             help="delete all cached kernel entries")
    cache_stats.set_defaults(func=lambda args: cmd_cache_stats(
        args.cache_dir, args.clear))

    trace_cmd = sub.add_parser(
        "trace", help="compile + run one model under the tracer; "
                      "emit the span tree and Chrome trace JSON")
    trace_cmd.add_argument("model", nargs="?", default=None,
                           choices=ALL_MODELS, metavar="MODEL",
                           help="ionic model name (see 'limpet-bench "
                                "list'); optional with --merge")
    trace_cmd.add_argument("--backend", default="limpet_mlir",
                           choices=("baseline", "limpet_mlir", "icc_simd"))
    trace_cmd.add_argument("--width", type=int, default=8,
                           choices=(2, 4, 8))
    trace_cmd.add_argument("--cells", type=_positive_int, default=256)
    trace_cmd.add_argument("--steps", type=_positive_int, default=50)
    trace_cmd.add_argument("--dt", type=_positive_float, default=0.01)
    trace_cmd.add_argument("--workers", type=_positive_int, default=0,
                           metavar="N",
                           help="run on the supervised tier with N "
                                "forked workers; their spans stream "
                                "back into one multi-pid trace")
    trace_cmd.add_argument("--merge", default=None, metavar="DIR",
                           help="instead of running: stitch every "
                                "trace-*.json under DIR into one "
                                "wall-clock-aligned trace (--out)")
    trace_cmd.add_argument("--out", default=None, metavar="PATH",
                           help="trace-event JSON output path "
                                "(default: trace_MODEL.json)")
    trace_cmd.add_argument("--profile", action="store_true",
                           help="lower in profile mode and print the "
                                "measured per-op hot table")
    trace_cmd.set_defaults(func=lambda args: cmd_trace(
        args.model, args.backend, args.width, args.cells, args.steps,
        args.dt, args.out, args.profile, args.workers, args.merge))

    metrics_cmd = sub.add_parser(
        "metrics", help="run a representative workload and dump the "
                        "process metrics registry")
    metrics_fmt = metrics_cmd.add_mutually_exclusive_group()
    metrics_fmt.add_argument("--json", action="store_true",
                             help="JSON snapshot (the default)")
    metrics_fmt.add_argument("--prom", action="store_true",
                             help="Prometheus text exposition format")
    metrics_cmd.set_defaults(func=lambda args: cmd_metrics(args.prom))

    faults = sub.add_parser(
        "faults", help="fault-injection drill for the resilience layer")
    faults.add_argument("--smoke", action="store_true",
                        help="fast subset (CI smoke job)")
    faults.add_argument("--reproducer-dir", default=None,
                        help="where quarantined passes write reproducer "
                             "bundles (default: a temporary directory)")
    faults.set_defaults(func=lambda args: cmd_faults(
        args.smoke, args.reproducer_dir))

    ledger_cmd = sub.add_parser(
        "ledger", help="inspect the append-only run ledger "
                       "($LIMPET_LEDGER)")
    ledger_cmd.add_argument("--path", default=None, metavar="PATH",
                            help="ledger file (default: $LIMPET_LEDGER)")
    ledger_cmd.add_argument("--tail", type=_positive_int, default=None,
                            metavar="N", help="only the last N rows")
    ledger_cmd.add_argument("--model", default=None, metavar="MODEL",
                            help="only rows for this model")
    ledger_cmd.add_argument("--event", default=None, metavar="EVENT",
                            help="only rows of this event kind "
                                 "(run / compile / degradation / ...)")
    ledger_fmt = ledger_cmd.add_mutually_exclusive_group()
    ledger_fmt.add_argument("--json", action="store_true",
                            help="raw rows as JSON lines")
    ledger_fmt.add_argument("--summary", action="store_true",
                            help="per-model rollup (events, "
                                 "dispositions, tiers, best rates)")
    ledger_cmd.set_defaults(func=lambda args: cmd_ledger(
        args.path, args.tail, args.model, args.event, args.json,
        args.summary))

    flight_cmd = sub.add_parser(
        "flight", help="inspect crash flight-recorder dumps")
    flight_cmd.add_argument("action", nargs="?", default="show",
                            choices=("show", "list"),
                            help="'show' the latest dump (default) or "
                                 "'list' all dumps")
    flight_cmd.add_argument("--dir", default=None, metavar="DIR",
                            help="dump directory (default: "
                                 "$LIMPET_FLIGHT_DIR or "
                                 "~/.cache/limpet-repro/flight)")
    flight_cmd.add_argument("--last", type=_positive_int, default=40,
                            metavar="N",
                            help="events shown from the end of the "
                                 "ring (default 40)")
    flight_cmd.add_argument("--json", action="store_true",
                            help="raw dump payload as JSON")
    flight_cmd.set_defaults(func=lambda args: cmd_flight(
        args.action, args.dir, args.last, args.json))
    return parser


def cmd_list() -> int:
    print(f"{'model':<24} {'class':<8} {'limpetMLIR':<11} {'source'}")
    for entry in list_models():
        source = "literature" if entry.hand_written else "synthesized"
        print(f"{entry.name:<24} {entry.size_class:<8} {'yes':<11} "
              f"{source}")
    for name in UNSUPPORTED_MODELS:
        print(f"{name:<24} {'small':<8} {'no (foreign)':<11} literature")
    print(f"\n{len(all_model_files())} models shipped, "
          f"{len(ALL_MODELS)} limpetMLIR-supported "
          f"(8 small / 22 medium / 13 large), 4 baseline-only — "
          f"matching the paper (section 3.3.2, section 4.1)")
    return EXIT_OK


def cmd_legality(model_name: str) -> int:
    report = check_simd_legality(load_model(model_name))
    print(report.describe())
    return EXIT_OK if report.vectorizable else EXIT_FAILURE


def cmd_describe(model_name: str) -> int:
    model = load_model(model_name)
    print(model.describe())
    for warning in model.warnings:
        print(f"warning: {warning}")
    return EXIT_OK


def cmd_ir(model_name: str, backend: str, width: int, pretty: bool,
           no_opt: bool) -> int:
    model = load_model(model_name)
    kernel = generate_variant(model, backend, width)
    if not no_opt:
        default_pipeline(verify_each=False).run(kernel.module,
                                                fixed_point=True)
    sys.stdout.write(print_module(kernel.module, pretty=pretty))
    return EXIT_OK


def cmd_run(model_name: str, backend: str, width: int, cells: int,
            steps: int, dt: float, strict: bool = False,
            watchdog: str = "off", workers: Optional[int] = None) -> int:
    chain = _CHAINS[backend]
    try:
        compiled = compile_resilient(model_name, chain=chain, width=width,
                                     strict=strict, workers=workers or 0)
    except ResilientCompileError as err:
        print(format_trail(err.diagnostics))
        print(f"{model_name}: all backend tiers failed", file=sys.stderr)
        return EXIT_COMPILE_FAILED
    except Exception as err:  # noqa: BLE001 - strict mode fails fast
        print(f"{model_name}: compile failed ({type(err).__name__}): {err}",
              file=sys.stderr)
        return EXIT_COMPILE_FAILED
    runner = compiled.runner
    guard = None if watchdog == "off" else WatchdogConfig(policy=watchdog)
    try:
        result = None
        seconds = float("inf")
        for _ in range(3):              # the paper's best-of-N protocol
            result = runner.simulate(cells, steps, dt, watchdog=guard)
            seconds = min(seconds, result.elapsed_seconds)
    except NumericalDivergenceError as err:
        print(err.report.summary())
        print(f"{model_name}: numerical divergence unrecovered: {err}",
              file=sys.stderr)
        return EXIT_NUMERICAL
    finally:
        runner.close()
    per_cell_step = seconds / (cells * steps) * 1e9
    tier = f", {runner.active_tier} x{workers}" if workers else ""
    print(f"{model_name} [{compiled.backend}, width "
          f"{compiled.kernel.spec.width}{tier}]: "
          f"{cells} cells x {steps} steps in {seconds * 1e3:.1f} ms "
          f"({per_cell_step:.1f} ns/cell-step)")
    if runner.diagnostics:
        print(format_trail(runner.diagnostics))
    if result.health is not None:
        print(result.health.summary())
    if compiled.fell_back:
        print(f"note: requested {backend!r} unavailable, "
              f"fell back to {compiled.backend!r}:")
        print(format_trail([d for d in compiled.diagnostics
                            if d.error_type]))
        return EXIT_FELL_BACK
    if result.health is not None and not result.health.ok:
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_compare(model_name: str, cells: int, steps: int,
                strict: bool = False) -> int:
    model = load_model(model_name)
    try:
        base = compile_resilient(model, chain=("baseline",), strict=strict)
        vec = compile_resilient(model, width=8, strict=strict)
    except Exception as err:  # noqa: BLE001 - strict mode fails fast
        print(f"{model_name}: compile failed ({type(err).__name__}): {err}",
              file=sys.stderr)
        return EXIT_COMPILE_FAILED
    stim = Stimulus(amplitude=-20.0 if
                    abs(model.external_init.get("Vm", 0.0)) > 5 else -0.3,
                    duration=1.0, period=400.0)
    res_base = base.runner.simulate(cells, steps, stimulus=stim,
                                    perturbation=0.005)
    res_vec = vec.runner.simulate(cells, steps, stimulus=stim,
                                  perturbation=0.005)
    comparison = compare_trajectories(res_base.state, res_vec.state)
    speedup = res_base.elapsed_seconds / res_vec.elapsed_seconds
    print(f"{model_name}: baseline {res_base.elapsed_seconds * 1e3:.1f} ms, "
          f"limpetMLIR {res_vec.elapsed_seconds * 1e3:.1f} ms "
          f"-> measured speedup {speedup:.1f}x")
    print(f"trajectories equivalent: {bool(comparison)}")
    if not comparison:
        print(comparison.describe())
    if vec.fell_back:
        print(f"note: limpetMLIR tier unavailable, compared against "
              f"{vec.backend!r}")
        return EXIT_FELL_BACK
    return EXIT_OK if comparison else EXIT_FAILURE


def cmd_figure(which: str) -> int:
    if which == "fig2":
        bars = figure_speedups(threads=1)
        print(format_speedup_table(
            bars, "Fig. 2 — speedup vs baseline, 1 thread, AVX-512 "
            "(modeled testbed)"))
    elif which == "fig3":
        bars = figure_speedups(threads=32)
        print(format_speedup_table(
            bars, "Fig. 3 — speedup vs baseline, 32 threads, AVX-512 "
            "(modeled testbed)"))
    elif which == "fig4":
        print(format_scaling_table(figure_scaling()))
    elif which == "fig5":
        print(format_isa_sweep(figure_isa_sweep()))
    elif which == "fig6":
        points, ceilings = figure_roofline()
        print("Fig. 6 — roofline, 32 cores AVX-512 (modeled testbed)")
        print(format_roofline_table(points, ceilings))
    return EXIT_OK


def _emit_record(record, table: str, json_path: Optional[str],
                 failures: Optional[List[str]], passed: str,
                 label: str = "CHECK FAILED") -> int:
    """The tail every measuring command shares: table -> ``--json`` ->
    verdict (``failures`` is None when no check was asked for)."""
    print(table)
    if json_path:
        write_record(record, json_path)
        print(f"record written to {json_path}")
    if failures is None:
        return EXIT_OK
    for failure in failures:
        print(f"{label}: {failure}", file=sys.stderr)
    if failures:
        return EXIT_FAILURE
    print(passed)
    return EXIT_OK


def cmd_perf(model: Optional[str], cells: Optional[int],
             steps: Optional[int], dt: Optional[float],
             runs: Optional[int], json_path: Optional[str], check: bool,
             width: Optional[int] = None,
             baseline: Optional[str] = None, tolerance: float = 0.15,
             slowdown: Optional[float] = None) -> int:
    if baseline is not None:
        return _perf_gate(baseline, tolerance, slowdown, runs, json_path)
    from .bench.perf import check_report, perf_report
    from .bench.report import format_perf_table
    given = {"model_name": model, "n_cells": cells, "n_steps": steps,
             "dt": dt, "runs": runs, "width": width}
    # what the command line left out is the canonical config's
    section = perf_report(**{
        key: value for key, value in given.items() if value is not None})
    return _emit_record(
        make_record({"perf": section}), format_perf_table(section),
        json_path, check_report(section) if check else None,
        "checks passed: fused >= unfused, cache and artifact hits sped "
        "up construction")


def _perf_gate(baseline_path: str, tolerance: float,
               slowdown: Optional[float], runs: Optional[int],
               json_path: Optional[str]) -> int:
    """``perf --baseline``: the regression gate (exit 1 on regression)."""
    from .bench.regress import format_gate_table, perf_gate
    if not os.path.isfile(baseline_path):
        print(f"perf: baseline {baseline_path!r} not found",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        rows, failures, current = perf_gate(
            baseline_path, tolerance=tolerance, slowdown=slowdown,
            runs=runs)
    except ValueError as exc:        # not a record / unknown section
        print(f"perf: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failures += [f"{r.name}: missing from the current run"
                 for r in rows if r.status == "missing"]
    if json_path is not None and os.path.exists(json_path) and \
            os.path.samefile(json_path, baseline_path):
        # re-recording the baseline: the median of RECORD_MEASUREMENTS
        # measurements, not the phase the gate's one happened to catch
        from .bench.record import load_record, median_record
        from .bench.regress import measure_record
        recorded = load_record(baseline_path)
        current = median_record([current] + [
            measure_record(recorded, runs=runs)
            for _ in range(RECORD_MEASUREMENTS - 1)])
    return _emit_record(
        current, format_gate_table(rows, tolerance,
                                   os.path.basename(baseline_path)),
        json_path, failures, "perf gate passed", label="PERF REGRESSION")


def cmd_sweep(model: str, param_specs: Optional[List[str]],
              absolute: bool, cells: int, steps: int, dt: float,
              runs: int, width: int, json_path: Optional[str],
              check: bool) -> int:
    from .bench.perf import check_sweep_report, sweep_report
    from .bench.report import format_sweep_report

    if not param_specs:
        print("sweep: at least one --param NAME=lo:hi:N is required",
              file=sys.stderr)
        return EXIT_USAGE
    params = {}
    for spec in param_specs:
        name, sep, rng = spec.partition("=")
        if not sep or not name or not rng:
            print(f"sweep: malformed --param {spec!r} "
                  f"(expected NAME=lo:hi:N)", file=sys.stderr)
            return EXIT_USAGE
        params[name] = rng
    from .easyml.errors import EasyMLError
    try:
        section = sweep_report(model_name=model, params=params,
                               cells_per_instance=cells, n_steps=steps,
                               dt=dt, runs=runs, width=width,
                               absolute=absolute)
    except (ValueError, EasyMLError) as exc:  # unknown param, bad range
        print(f"sweep: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _emit_record(
        make_record({"sweep": section}), format_sweep_report(section),
        json_path, check_sweep_report(section) if check else None,
        "checks passed: batched >= 1.5x loop, compile reused across "
        "same-shape sweeps")


def cmd_build_all(dest: Optional[str], models: Optional[List[str]],
                  width: int) -> int:
    from .aot import build_bundle, default_artifact_dir
    target = dest or default_artifact_dir()
    if target is None:
        print("build-all: no destination — pass --dest or set "
              "$LIMPET_ARTIFACT_DIR", file=sys.stderr)
        return EXIT_USAGE
    report = build_bundle(target, models=models, width=width)
    print(report.describe())
    for entry in report.failed:
        print(f"FAILED {entry.model}: {entry.error}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_COMPILE_FAILED


def cmd_artifacts(action: str, bundle_dir: Optional[str], no_deep: bool,
                  json_path: Optional[str]) -> int:
    import json as _json

    from .aot import ArtifactStore, audit_bundle, default_artifact_dir
    root = bundle_dir or default_artifact_dir()
    if root is None:
        print("artifacts: no bundle — pass --dir or set "
              "$LIMPET_ARTIFACT_DIR", file=sys.stderr)
        return EXIT_USAGE
    if action == "list":
        manifest = ArtifactStore(root).manifest()
        if manifest is None:
            print(f"artifacts: no readable bundle at {root}",
                  file=sys.stderr)
            return EXIT_FAILURE
        entries = manifest.get("entries", {})
        built = manifest.get("created_at")
        if isinstance(built, (int, float)):
            import datetime
            built = datetime.datetime.fromtimestamp(built) \
                .strftime("%Y-%m-%d %H:%M:%S")
        print(f"bundle {root}: {len(entries)} kernel(s), pipeline "
              f"{manifest.get('pipeline_fingerprint', '?')[:12]}, "
              f"built {built or '?'}")
        print(f"{'model':<24} {'backend':<12} {'width':>5} {'key':<12}")
        for key, meta in sorted(entries.items(),
                                key=lambda kv: kv[1]['model']):
            print(f"{meta['model']:<24} {meta['backend']:<12} "
                  f"{meta['width']:>5} {key[:12]}")
        return EXIT_OK
    report = audit_bundle(root, deep=not no_deep)
    print(report.describe())
    if json_path:
        with open(json_path, "w") as fh:
            _json.dump(report.as_dict(), fh, indent=2)
        print(f"report written to {json_path}")
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_coldstart(models: Optional[List[str]], bundle: Optional[str],
                  cells: int, steps: int, width: int,
                  json_path: Optional[str], check: bool) -> int:
    from .bench.coldstart import (REPRESENTATIVE, check_coldstart_report,
                                  coldstart_report, format_coldstart_table)
    section = coldstart_report(models=models or REPRESENTATIVE,
                               bundle=bundle, n_cells=cells,
                               n_steps=steps, width=width)
    return _emit_record(
        make_record({"coldstart": section}),
        format_coldstart_table(section), json_path,
        check_coldstart_report(section) if check else None,
        "checks passed: bitwise identity, zero compile spans, "
        "cold-start speedup bar met")


def cmd_cache_stats(cache_dir: Optional[str], clear: bool) -> int:
    from .runtime.kernel_cache import KernelCache, default_cache_dir
    root = cache_dir or default_cache_dir()
    cache = KernelCache(root)
    if clear:
        removed = cache.clear()
        print(f"cleared {removed} cached kernel(s) from {root}")
    stats = cache.persistent_stats()
    print(f"kernel cache [{root}]")
    print(f"  entries:   {stats.entries}")
    print(f"  bytes:     {stats.bytes}")
    print(f"  hits:      {stats.hits}")
    print(f"  misses:    {stats.misses}")
    print(f"  evictions: {stats.evictions}")
    return EXIT_OK


def cmd_trace(model_name: Optional[str], backend: str, width: int,
              cells: int, steps: int, dt: float, out: Optional[str],
              profile: bool, workers: int = 0,
              merge: Optional[str] = None) -> int:
    import glob as _glob

    from .obs import trace as _trace
    if merge is not None:
        paths = sorted(_glob.glob(os.path.join(merge, "trace-*.json")))
        if not paths:
            print(f"trace: no trace-*.json files under {merge!r}",
                  file=sys.stderr)
            return EXIT_FAILURE
        path = out or os.path.join(merge, "trace-merged.json")
        _trace.merge_files(paths, out=path)
        print(f"merged {len(paths)} trace file(s) into {path}")
        return EXIT_OK
    if model_name is None:
        print("trace: a MODEL is required unless --merge is given",
              file=sys.stderr)
        return EXIT_USAGE
    from .runtime import make_runner
    # the model registry caches parsed models; re-parse so the trace
    # captures the parse/frontend spans too
    load_model.cache_clear()
    tracer = _trace.Tracer()
    previous = _trace.activate(tracer)
    try:
        model = load_model(model_name)
        generated = generate_variant(model, backend, width)
        # on the supervised tier forked workers join the trace via the
        # injected TraceContext and stream their spans back over the
        # reply pipes; the merged file has one lane per pid
        # the sandboxed pipeline, as `run` compiles: its `sandbox` span
        # (minus the pass:* children) is what the sandbox itself costs
        with make_runner(generated, workers=workers, profile=profile,
                         pipeline=sandboxed_pipeline()) as runner:
            state = runner.make_state(cells)
            runner.run(state, steps, dt)
    finally:
        _trace.deactivate(previous)
    print(tracer.summary_tree())
    if profile and runner.active_tier == "single":   # clocks are in-process
        print()
        print(runner.profile_report(invocations=steps).hot_table())
    path = tracer.write(out or f"trace_{model_name}.json")
    print(f"\ntrace written to {path} "
          f"(load in chrome://tracing or ui.perfetto.dev)")
    return EXIT_OK


def cmd_metrics(prom: bool) -> int:
    """Exercise cache / artifact / supervised run paths, then dump the
    registry."""
    import json as _json

    from .codegen import generate_limpet_mlir
    from .obs import metrics as _metrics
    from .runtime import (KernelRunner, SupervisedRunner,
                          multiprocess_supported)
    from .runtime.kernel_cache import KernelCache
    _metrics.reset()
    model = load_model("Plonsey")
    with tempfile.TemporaryDirectory() as tmp:
        cache = KernelCache(tmp)
        # same model text, same request: the second build is a pure hit
        KernelRunner(generate_limpet_mlir(model), cache=cache)
        runner = KernelRunner(generate_limpet_mlir(model), cache=cache)
        runner.run(runner.make_state(64), 20, 0.01)
    with tempfile.TemporaryDirectory() as tmp:
        # artifact tier: one build, one hit, one miss
        from .aot import ArtifactStore, build_bundle
        build_bundle(tmp, models=["Plonsey"])
        store = ArtifactStore(tmp)
        KernelRunner(generate_limpet_mlir(model), cache=None,
                     artifacts=store)
        KernelRunner(generate_limpet_mlir(load_model("FitzHughNagumo")),
                     cache=None, artifacts=store)
    if multiprocess_supported():
        with SupervisedRunner(generate_limpet_mlir(model),
                              n_workers=2) as supervised:
            supervised.run(supervised.make_state(64), 10, 0.01)
    if prom:
        sys.stdout.write(_metrics.to_prometheus())
    else:
        print(_json.dumps(_metrics.snapshot(), indent=2))
    return EXIT_OK


def cmd_ledger(path: Optional[str], tail: Optional[int],
               model: Optional[str], event: Optional[str],
               as_json: bool, summary: bool) -> int:
    import json as _json

    from .obs import ledger as _ledger
    path = path or os.environ.get(_ledger.LEDGER_ENV)
    if not path:
        print("ledger: no ledger file (--path or $LIMPET_LEDGER)",
              file=sys.stderr)
        return EXIT_USAGE
    book = _ledger.RunLedger(path)
    rows = book.read(tail=tail, model=model, event=event)
    if not rows:
        print(f"ledger: no rows in {path}"
              + (f" matching model={model!r}" if model else "")
              + (f" event={event!r}" if event else ""),
              file=sys.stderr)
        return EXIT_FAILURE
    if summary:
        per_model = _ledger.summarize(rows)
        print(f"{'model':<24} {'rows':>5}  {'dispositions':<28} "
              f"{'tiers':<22} {'best steps/s':>12}")
        for name in sorted(per_model):
            info = per_model[name]
            disp = ", ".join(f"{k}:{v}" for k, v in
                             sorted(info["dispositions"].items()))
            tiers = ",".join(info["tiers"]) or "-"
            best = info.get("best_steps_per_second")
            best_s = f"{best:,.0f}" if best else "-"
            print(f"{name:<24} {info['rows']:>5}  {disp:<28} "
                  f"{tiers:<22} {best_s:>12}")
        return EXIT_OK
    if as_json:
        for row in rows:
            print(_json.dumps(row, sort_keys=True))
        return EXIT_OK
    print(f"{'when':<20} {'event':<12} {'model':<22} {'tier':<10} "
          f"{'cache':<9} {'disposition':<16} {'steps/s':>10}")
    import time as _time
    for row in rows:
        when = _time.strftime("%Y-%m-%d %H:%M:%S",
                              _time.localtime(row.get("ts_unix", 0)))
        sps = row.get("steps_per_second")
        print(f"{when:<20} {row.get('event', '?'):<12} "
              f"{row.get('model', '-'):<22} {row.get('tier', '-'):<10} "
              f"{row.get('cache', '-'):<9} "
              f"{row.get('disposition', '-'):<16} "
              f"{sps and f'{sps:,.0f}' or '-':>10}")
    print(f"{len(rows)} row(s) from {path}")
    return EXIT_OK


def cmd_flight(action: str, directory: Optional[str], last: int,
               as_json: bool) -> int:
    import json as _json

    from .obs import flight as _flight
    if action == "list":
        dumps = _flight.list_dumps(directory)
        if not dumps:
            print("flight: no dumps recorded", file=sys.stderr)
            return EXIT_FAILURE
        for path in dumps:
            payload = _flight.load_dump(path)
            reason = payload.get("reason", "?") if payload else "corrupt"
            n = len(payload.get("events", [])) if payload else 0
            print(f"{path}  reason={reason} events={n}")
        return EXIT_OK
    latest = _flight.latest_dump(directory)
    if latest is None:
        print("flight: no dumps recorded", file=sys.stderr)
        return EXIT_FAILURE
    payload = _flight.load_dump(latest)
    if payload is None:
        print(f"flight: {latest} is corrupt or not a flight dump",
              file=sys.stderr)
        return EXIT_FAILURE
    if as_json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"flight dump: {latest}")
    print(_flight.format_dump(payload, last=last))
    return EXIT_OK


# ---------------------------------------------------------------------------
# The fault-injection drill (``limpet-bench faults``)
# ---------------------------------------------------------------------------


def _drill_pass_exception(reproducer_dir) -> str:
    """A pass that raises must be quarantined with a loadable bundle."""
    inject = FaultInjector(FaultPlan(fail_pass="cse"))
    compiled = compile_resilient("Plonsey", inject=inject,
                                 reproducer_dir=reproducer_dir)
    assert "cse" in compiled.sandbox.quarantined, "cse not quarantined"
    assert compiled.sandbox.reproducers, "no reproducer bundle written"
    module, meta = load_reproducer(compiled.sandbox.reproducers[0])
    assert meta["pass"] == "cse" and module.funcs(), "bundle did not load"
    quarantine = next(d for d in compiled.diagnostics if d.stage == "pass")
    assert quarantine.data["replayed_passes"] == ["canonicalize"], \
        "rollback did not replay the journal"
    clean = compile_resilient("Plonsey")
    r_faulty = compiled.runner.simulate(16, 30, perturbation=0.01)
    r_clean = clean.runner.simulate(16, 30, perturbation=0.01)
    comparison = compare_trajectories(r_faulty.state, r_clean.state)
    assert comparison, f"rolled-back module diverged: {comparison.describe()}"
    return (f"pass exception: quarantined 'cse', bundle "
            f"{compiled.sandbox.reproducers[0].name}, trajectories intact")


def _drill_ir_corruption(reproducer_dir) -> str:
    """A pass that corrupts IR must be rolled back by the verifier."""
    inject = FaultInjector(FaultPlan(corrupt_after_pass="canonicalize"))
    compiled = compile_resilient("Plonsey", inject=inject,
                                 reproducer_dir=reproducer_dir)
    assert "canonicalize" in compiled.sandbox.quarantined
    verify_module(compiled.kernel.module)   # rolled-back module verifies
    diag = [d for d in compiled.diagnostics if d.stage == "verify"]
    assert diag, "no verify diagnostic recorded"
    return "ir corruption: verifier caught it, module rolled back + verifies"


def _drill_runtime_nan() -> str:
    """An injected NaN must be recovered by dt-halving within budget."""
    compiled = compile_resilient("Plonsey")
    inject = FaultInjector(FaultPlan(nan_at_step=30, nan_cells=(0, 1)))
    state = compiled.runner.make_state(16)
    result = compiled.runner.run(
        state, 100, 0.01, watchdog=WatchdogConfig(check_interval=10),
        step_hook=inject.step_hook)
    health = result.health
    assert health.ok and health.retries >= 1, health.summary()
    return f"runtime nan: {health.summary()}"


def _drill_fallback_foreign(smoke: bool) -> str:
    """Foreign-function models must land on baseline with diagnostics."""
    names = UNSUPPORTED_MODELS[:1] if smoke else UNSUPPORTED_MODELS
    for name in names:
        compiled = compile_resilient(name)
        assert compiled.backend == "baseline", (name, compiled.backend)
        skipped = [d for d in compiled.diagnostics
                   if d.error_type == "UnsupportedModelError"]
        assert skipped, f"{name}: no explanatory diagnostic"
    return (f"foreign fallback: {', '.join(names)} -> baseline with "
            f"explanatory diagnostics")


def _drill_sweep(smoke: bool, reproducer_dir) -> str:
    """A sweep under injected faults must finish with per-model records."""
    names = (["Plonsey", "FitzHughNagumo", "AlievPanfilov", "ARPF"]
             if smoke else all_model_files())

    def factory(name: str):
        # deterministic per-model faults: every 3rd model loses its
        # strongest backend, every 4th gets a NaN poke mid-run,
        # every 5th (and the second) has a worker crash mid-shard
        idx = names.index(name)
        plan = FaultPlan(
            fail_backends=("limpet_mlir",) if idx % 3 == 0 else (),
            nan_at_step=20 if idx % 4 == 0 else None,
            kill_worker=0 if idx % 5 == 1 else None,
            kill_worker_at_task=2)
        return FaultInjector(plan)

    records = resilient_sweep(names, n_cells=16, n_steps=30,
                              watchdog=WatchdogConfig(check_interval=10),
                              reproducer_dir=reproducer_dir,
                              inject_factory=factory, workers=2)
    assert len(records) == len(names)
    failed = [r.model for r in records if not r.ok]
    assert not failed, "sweep records not ok:\n" + \
        format_sweep_table(records)
    n_fb = sum(1 for r in records if r.fell_back)
    n_rec = sum(1 for r in records if r.health and r.health.retries)
    n_sup = sum(1 for r in records if r.tier == "supervised")
    return (f"sweep: {len(records)}/{len(names)} models completed "
            f"({n_fb} via fallback, {n_rec} recovered by dt-halving, "
            f"{n_sup} on the supervised tier under worker kills)")


def _drill_worker_crash() -> str:
    """A killed worker must be respawned; the trajectory stays bitwise
    identical to a single-process run."""
    from .codegen import generate_limpet_mlir
    from .runtime import (KernelRunner, SupervisedRunner,
                          SupervisionConfig, multiprocess_supported)
    if not multiprocess_supported():    # pragma: no cover - POSIX CI
        return "worker crash: skipped (no fork/shared_memory)"
    model = load_model("Plonsey")
    plan = FaultPlan(kill_worker=0, kill_worker_at_task=2)
    with SupervisedRunner(generate_limpet_mlir(model), n_workers=2,
                          fault_plan=plan,
                          config=SupervisionConfig(
                              task_timeout=10.0)) as sup:
        state = sup.make_state(24, perturbation=0.01)
        sup.run(state, 60, 0.01)
        assert sup.tier == "supervised", f"degraded to {sup.tier}"
        restarts = [d for d in sup.diagnostics
                    if "restarted worker" in d.message]
        assert restarts, "worker kill did not trigger a restart"
    base = KernelRunner(generate_limpet_mlir(model))
    ref = base.make_state(24, perturbation=0.01)
    base.run(ref, 60, 0.01)
    comparison = compare_trajectories(ref, state, rtol=0, atol=0)
    assert comparison, f"not bitwise: {comparison.describe()}"
    return ("worker crash: killed worker respawned, shard retried, "
            "trajectory bitwise identical")


def _drill_worker_stall() -> str:
    """A stalled heartbeat must be detected and the worker replaced."""
    from .codegen import generate_limpet_mlir
    from .runtime import (SupervisedRunner, SupervisionConfig,
                          multiprocess_supported)
    if not multiprocess_supported():    # pragma: no cover - POSIX CI
        return "worker stall: skipped (no fork/shared_memory)"
    plan = FaultPlan(stall_worker=1, stall_worker_at_task=2,
                     stall_worker_seconds=20.0)
    config = SupervisionConfig(heartbeat_interval=0.02,
                               heartbeat_timeout=0.3, task_timeout=1.0)
    with SupervisedRunner(generate_limpet_mlir(load_model("Plonsey")),
                          n_workers=2, fault_plan=plan,
                          config=config) as sup:
        state = sup.make_state(24)
        sup.run(state, 40, 0.01)
        assert sup.tier == "supervised", f"degraded to {sup.tier}"
        restarts = [d for d in sup.diagnostics
                    if "restarted worker" in d.message]
        assert restarts, "stalled heartbeat not detected"
    return "worker stall: stale heartbeat detected, worker replaced"


def _drill_degradation() -> str:
    """Exhausted supervision retries must degrade to the single tier,
    once, and finish with the bits of an inline run."""
    import numpy as np

    from .codegen import generate_limpet_mlir
    from .runtime import (KernelRunner, SupervisedRunner,
                          SupervisionConfig, multiprocess_supported)
    if not multiprocess_supported():    # pragma: no cover - POSIX CI
        return "degradation: skipped (no fork/shared_memory)"
    plan = FaultPlan(kill_worker=0, kill_worker_at_task=1)
    config = SupervisionConfig(max_retries=0, task_timeout=5.0)
    with SupervisedRunner(generate_limpet_mlir(load_model("Plonsey")),
                          n_workers=2, fault_plan=plan,
                          config=config) as sup:
        state = sup.make_state(24)
        result = sup.run(state, 40, 0.01)
        assert result.n_steps == 40
        assert sup.tier == "single", f"expected single, got {sup.tier}"
        downgrades = [d for d in sup.diagnostics
                      if "degrading" in d.message]
        assert len(downgrades) == 1, \
            f"{len(downgrades)} degradation diagnostics, expected 1"
    inline = KernelRunner(generate_limpet_mlir(load_model("Plonsey")))
    reference = inline.make_state(24)
    inline.run(reference, 40, 0.01)
    assert np.array_equal(state.sv, reference.sv), \
        "degraded run differs from the inline run"
    return ("degradation: retry budget exhausted -> single tier, run "
            "completed bitwise equal to inline, one diagnostic")


def _drill_cache_corruption() -> str:
    """A corrupt on-disk cache entry must be quarantined and rebuilt."""
    from .codegen import generate_limpet_mlir
    from .resilience import corrupt_cache_entry
    from .runtime import KernelRunner
    from .runtime.kernel_cache import KernelCache
    model = load_model("Plonsey")
    with tempfile.TemporaryDirectory() as tmp:
        cache = KernelCache(tmp)
        KernelRunner(generate_limpet_mlir(model), cache=cache)
        corrupted = corrupt_cache_entry(cache, mode="truncate")
        assert corrupted is not None, "no cache entry to corrupt"
        runner = KernelRunner(generate_limpet_mlir(model), cache=cache)
        assert not runner.cache_hit, "served a truncated entry"
        stats = cache.persistent_stats()
        assert stats.corrupt >= 1, "corrupt entry not quarantined"
        rebuilt = KernelRunner(generate_limpet_mlir(model), cache=cache)
        assert rebuilt.cache_hit, "rebuilt entry not re-cached"
    return ("cache corruption: truncated entry quarantined, kernel "
            "rebuilt and re-cached")


def cmd_faults(smoke: bool = False,
               reproducer_dir: Optional[str] = None) -> int:
    """Run the fault-injection drill; nonzero exit if anything leaks."""
    with tempfile.TemporaryDirectory() as tmp:
        target = reproducer_dir or tmp
        drills = [
            ("pass-exception", lambda: _drill_pass_exception(target)),
            ("ir-corruption", lambda: _drill_ir_corruption(target)),
            ("runtime-nan", _drill_runtime_nan),
            ("fallback-foreign", lambda: _drill_fallback_foreign(smoke)),
            ("worker-crash", _drill_worker_crash),
            ("worker-stall", _drill_worker_stall),
            ("degradation", _drill_degradation),
            ("cache-corruption", _drill_cache_corruption),
            ("sweep", lambda: _drill_sweep(smoke, target)),
        ]
        failures = 0
        for name, drill in drills:
            try:
                detail = drill()
            except Exception as err:  # noqa: BLE001 - drill must report
                failures += 1
                print(f"FAIL {name:<18} {type(err).__name__}: {err}")
            else:
                print(f"PASS {name:<18} {detail}")
        mode = "smoke" if smoke else "full"
        print(f"\nfault drill ({mode}): "
              f"{len(drills) - failures}/{len(drills)} scenarios passed")
    return EXIT_OK if failures == 0 else EXIT_FAULTS


#: conventional exit code for a SIGINT-terminated process (128 + 2)
EXIT_INTERRUPTED = 130


def main(argv: Optional[List[str]] = None) -> int:
    from .runtime import shutdown as _shutdown
    args = build_parser().parse_args(argv)
    _shutdown.install_signal_handlers()
    trace_dir = os.environ.get("LIMPET_TRACE")
    tracer = previous = None
    trace_path = None
    if trace_dir:
        from .obs import trace as _trace
        tracer = _trace.Tracer()
        previous = _trace.activate(tracer)
        trace_path = os.path.join(
            trace_dir, f"trace-{args.command}-{os.getpid()}.json")
        # the signal handler flushes open spans and writes here, so an
        # interrupted run still lands its trace on disk
        _shutdown.set_trace_flush_path(trace_path)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # workers reaped, shm unlinked and trace flushed by the signal
        # handler before KeyboardInterrupt was raised
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception as err:
        # land the last seconds of telemetry next to the crash
        # ('limpet-bench flight show' replays them), then re-raise for
        # the normal traceback
        from .obs import flight as _flight
        _flight.dump("unhandled_exception",
                     extra={"command": args.command,
                            "error": f"{type(err).__name__}: {err}"})
        raise
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    finally:
        if tracer is not None:
            from .obs import trace as _trace
            _shutdown.set_trace_flush_path(None)
            _trace.deactivate(previous)
            path = tracer.write(trace_path)
            print(f"trace written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
