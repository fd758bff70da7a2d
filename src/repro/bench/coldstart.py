"""Cold-start benchmark: JIT vs AOT artifact bundle (the ``coldstart``
section of the perf record, :mod:`repro.bench.record`).

The whole point of ``limpet-bench build-all`` is the fleet cold start:
a fresh process — empty kernel cache, nothing warm — should reach its
first simulated step far faster reading the prebuilt bundle than
running codegen + passes + verify + lowering.  This module measures
exactly that, honestly: each measurement is a **separate child
process** (``sys.executable``) with a scratch ``$LIMPET_CACHE_DIR``,
so no in-process state can leak between the JIT and artifact runs.

* the ``jit`` child compiles from scratch (``LIMPET_ARTIFACTS=off``);
* the ``artifact`` child mounts the bundle via ``$LIMPET_ARTIFACT_DIR``
  and takes :func:`repro.aot.runner_from_store`'s spec-index path —
  no IR generation, no pipeline, no lowering.

Each child reports its time-to-first-step, a span census from the
tracer (proof the artifact path really skipped ``passes``/``verify``/
``lowering``), and a sha256 over the final state matrix (proof the
served kernel is bitwise-identical to the JIT one).

``check_coldstart_report`` encodes the acceptance bar: bitwise
identity on every model, zero compile-stage spans in every artifact
child, and >= ``min_speedup`` time-to-first-step on at least
``min_models`` of the representative set.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

from .record import make_section

#: models whose pipeline cost dominates cold start (the large Markov
#: models plus the canonical mid-size ones) — the set BENCH.json records
REPRESENTATIVE = ("TomekORd", "IyerMazhariWinslow", "HeijmanRudy",
                  "OHara", "Courtemanche")

#: the measurement program run in each child process.  It reads its
#: config from $LIMPET_COLDSTART_CONFIG (a JSON object) and writes its
#: result JSON to the configured path — stdout stays free for stray
#: diagnostics.
_CHILD_SCRIPT = r"""
import hashlib, json, os, time

import numpy as np

from repro.aot import runner_from_store
from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.obs import trace as _trace
from repro.runtime import KernelRunner

cfg = json.loads(os.environ["LIMPET_COLDSTART_CONFIG"])
# join the parent's trace when it exported one ($LIMPET_TRACE_CONTEXT):
# same trace id, wall-clock-alignable via merge_files
ctx = _trace.TraceContext.from_env()
tracer = _trace.Tracer(
    context=ctx,
    process_name="limpet-coldstart-%s-%s" % (cfg["model"], cfg["mode"]))
_trace.activate(tracer)

t0 = time.perf_counter()
runner = None
if cfg["mode"] == "artifact":
    runner = runner_from_store(cfg["model"], backend="limpet_mlir",
                               width=cfg["width"])
artifact_hit = runner is not None
if runner is None:
    runner = KernelRunner(generate_limpet_mlir(
        load_model(cfg["model"]), width=cfg["width"]))
construct = time.perf_counter() - t0

state = runner.make_state(cfg["n_cells"])
result = runner.run(state, cfg["n_steps"], cfg["dt"])

first_step = None
if result.time_to_first_step is not None and \
        result.compile_seconds is not None:
    first_step = result.time_to_first_step - result.compile_seconds
ttfs = construct + (first_step or 0.0)

spans = {}
for event in tracer.to_chrome()["traceEvents"]:
    spans[event["name"]] = spans.get(event["name"], 0) + 1
digest = hashlib.sha256(
    np.ascontiguousarray(state.state_matrix()).tobytes()).hexdigest()

with open(cfg["result_path"], "w") as fh:
    json.dump({"model": cfg["model"], "mode": cfg["mode"],
               "construct_seconds": construct,
               "first_step_seconds": first_step,
               "time_to_first_step": ttfs,
               "compile_seconds": result.compile_seconds,
               "artifact_hit": artifact_hit,
               "spans": spans, "state_sha256": digest}, fh)

trace_dir = os.environ.get("LIMPET_TRACE")
if trace_dir:
    # one trace file per child; Tracer.merge_files stitches them with
    # the parent's (wall-clock aligned via trace_start_unix_s)
    tracer.write(os.path.join(
        trace_dir, "trace-coldstart-%s-%s-%d.json"
        % (cfg["model"], cfg["mode"], os.getpid())))
"""

#: compile-stage span names that must NOT appear in an artifact child
COMPILE_SPANS = ("passes", "verify", "lowering")


def _src_root() -> str:
    """The directory to put on the child's PYTHONPATH (repro's parent)."""
    import repro
    return str(pathlib.Path(repro.__file__).resolve().parents[1])


def _run_child(model: str, mode: str, bundle: Optional[str],
               n_cells: int, n_steps: int, dt: float, width: int,
               workdir: pathlib.Path) -> Dict:
    """One measurement process; returns its parsed result JSON."""
    # a directory of its own per child: repeats must not share a cache
    child_dir = pathlib.Path(tempfile.mkdtemp(prefix=f"{model}-{mode}-",
                                              dir=workdir))
    cache_dir = child_dir / "cache"
    cache_dir.mkdir()
    result_path = child_dir / "result.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = _src_root()
    env["LIMPET_CACHE_DIR"] = str(cache_dir)     # always a cold cache
    # propagate the parent's trace identity so the child's $LIMPET_TRACE
    # dump (if any) merges under the same trace id
    from ..obs import trace as _trace
    tracer = _trace.active_tracer()
    if tracer is not None:
        tracer.context().to_env(env)
    env["LIMPET_COLDSTART_CONFIG"] = json.dumps({
        "model": model, "mode": mode, "n_cells": n_cells,
        "n_steps": n_steps, "dt": dt, "width": width,
        "result_path": str(result_path)})
    if mode == "artifact":
        if bundle is None:
            raise ValueError("artifact child needs a bundle directory")
        env["LIMPET_ARTIFACT_DIR"] = str(bundle)
        env.pop("LIMPET_ARTIFACTS", None)
    else:
        env.pop("LIMPET_ARTIFACT_DIR", None)
        env["LIMPET_ARTIFACTS"] = "off"
    proc = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0 or not result_path.is_file():
        raise RuntimeError(
            f"cold-start child ({model}, {mode}) failed rc="
            f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(result_path) as fh:
        return json.load(fh)


def coldstart_report(models: Sequence[str] = REPRESENTATIVE,
                     bundle: Optional[str] = None,
                     n_cells: int = 64, n_steps: int = 50,
                     dt: float = 0.01, width: int = 8,
                     repeats: int = 1) -> Dict:
    """Build the ``coldstart`` section: per-model JIT vs artifact.

    Variants are named ``<model>.jit`` / ``<model>.artifact`` and carry
    the child's whole result.  ``bundle`` is an existing bundle
    directory; when None one is built into a temporary directory first
    (its build time is reported).  Each variant is the fastest of
    ``repeats`` children, taken round-robin over all models and modes:
    fresh processes are noisy and the record should hold capability,
    not scheduler luck.
    """
    from ..aot import build_bundle

    with tempfile.TemporaryDirectory(prefix="limpet-coldstart-") as tmp:
        workdir = pathlib.Path(tmp)
        build_seconds = None
        if bundle is None:
            bundle = str(workdir / "bundle")
            t0 = time.perf_counter()
            report = build_bundle(bundle, models=list(models),
                                  width=width)
            build_seconds = time.perf_counter() - t0
            failed = report.failed
            if failed:
                raise RuntimeError(
                    "bundle build failed for: " +
                    ", ".join(e.model for e in failed))
        variants: List[Dict] = []
        ratios: Dict[str, float] = {}
        bitwise: Dict[str, bool] = {}

        # round-robin: every repeat runs each (model, mode) child once,
        # so a slow host phase lands on all cells instead of one
        fastest: Dict[tuple, Dict] = {}
        for _ in range(max(1, repeats)):
            for model in models:
                for mode, store in (("jit", None), ("artifact", bundle)):
                    child = _run_child(model, mode, store, n_cells,
                                       n_steps, dt, width, workdir)
                    best = fastest.get((model, mode))
                    if best is None or (child["time_to_first_step"]
                                        < best["time_to_first_step"]):
                        fastest[model, mode] = child

        for model in models:
            jit, art = fastest[model, "jit"], fastest[model, "artifact"]
            variants += [{"name": f"{model}.jit", **jit},
                         {"name": f"{model}.artifact", **art}]
            ratios[f"{model}.artifact_vs_jit"] = (
                jit["time_to_first_step"]
                / max(art["time_to_first_step"], 1e-12))
            bitwise[model] = jit["state_sha256"] == art["state_sha256"]
    return make_section(
        config={"models": list(models), "n_cells": n_cells,
                "n_steps": n_steps, "dt": dt, "width": width,
                "repeats": repeats},
        variants=variants, ratios=ratios,
        evidence={"isolation": "one child process per measurement, "
                               "scratch LIMPET_CACHE_DIR",
                  "bundle_build_seconds": build_seconds,
                  "bitwise_identical": bitwise})


def _by_model(section: Dict):
    """``(model, jit, artifact, speedup, bitwise)`` per recorded model."""
    variants = {v["name"]: v for v in section["variants"]}
    for model in section["config"]["models"]:
        yield (model, variants[f"{model}.jit"],
               variants[f"{model}.artifact"],
               section["ratios"][f"{model}.artifact_vs_jit"],
               section["evidence"]["bitwise_identical"][model])


def format_coldstart_table(section: Dict) -> str:
    """Render a :func:`coldstart_report` section as a text table."""
    cfg = section["config"]
    lines = [
        f"cold start, JIT vs AOT bundle "
        f"({cfg['n_cells']} cells x {cfg['n_steps']} steps, "
        f"width {cfg['width']}, fresh process + cold cache each)",
        f"{'model':<22} {'jit ttfs':>11} {'artifact ttfs':>14} "
        f"{'speedup':>8} {'bitwise':>8} {'0-compile':>10}",
    ]
    for model, jit, art, speedup, bitwise in _by_model(section):
        no_compile = not any(art["spans"].get(s) for s in COMPILE_SPANS)
        lines.append(
            f"{model:<22} "
            f"{jit['time_to_first_step'] * 1e3:>9.1f}ms "
            f"{art['time_to_first_step'] * 1e3:>12.1f}ms "
            f"{speedup:>7.2f}x "
            f"{'yes' if bitwise else 'NO':>8} "
            f"{'yes' if no_compile and art['artifact_hit'] else 'NO':>10}")
    build_seconds = section["evidence"].get("bundle_build_seconds")
    if build_seconds is not None:
        lines.append(f"bundle build: {build_seconds:.2f}s "
                     f"({len(cfg['models'])} models)")
    return "\n".join(lines)


def check_coldstart_report(section: Dict, min_speedup: float = 5.0,
                           min_models: int = 3) -> List[str]:
    """The cold-start acceptance assertions; returns failures
    (empty = ok)."""
    failures: List[str] = []
    fast = 0
    for model, _, art, speedup, bitwise in _by_model(section):
        if not bitwise:
            failures.append(f"{model}: artifact trajectory is not "
                            f"bitwise-identical to the JIT one")
        if not art.get("artifact_hit"):
            failures.append(f"{model}: artifact child fell back to JIT "
                            f"(no bundle hit)")
        for name in COMPILE_SPANS:
            if art.get("spans", {}).get(name):
                failures.append(
                    f"{model}: artifact child ran {art['spans'][name]} "
                    f"{name!r} span(s) — cold start was not zero-compile")
        if speedup >= min_speedup:
            fast += 1
    covered = len(section["config"]["models"])
    if covered < min_models:
        failures.append(f"report covers {covered} "
                        f"models; need >= {min_models}")
    elif fast < min_models:
        failures.append(
            f"only {fast} model(s) reached {min_speedup:.0f}x "
            f"time-to-first-step vs JIT; need >= {min_models}")
    return failures
