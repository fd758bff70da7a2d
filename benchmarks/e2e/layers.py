"""The traced run: every layer timed from outside, one span per public call.

The traced variant of an operation performs the resolve *by hand* (passes ->
verify -> lower -> exec; key -> load -> exec; lookup -> blob -> exec) so that
each layer gets its own span.  It is a hand-written copy of what
``KernelRunner``, ``compile_resilient`` and ``runner_from_store`` do inside;
if the program's own resolve drifts away from the copy, the layer times stop
adding up to the untraced operation and ``bench.unattributed_share`` shows it.

What cannot be reached from outside is measured by difference against a probe
(an untraced operation through a neighbouring path) and says so below.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.aot import ArtifactKernel, kernel_from_entry, spec_fingerprint
from repro.codegen import (UnsupportedModelError, generate_baseline,
                           generate_icc_simd, generate_limpet_mlir)
from repro.easyml import parse_model
from repro.frontend import analyze
from repro.ir.passes import default_pipeline
from repro.ir.printer import print_module
from repro.ir.verifier import verify_module
from repro.obs import metrics as program_metrics
from repro.obs import trace as program_trace
from repro.population import PopulationRunner, PopulationSpec
from repro.runtime import KernelRunner
from repro.runtime.kernel_cache import KernelCache, kernel_cache_key
from repro.runtime.lowering import lower_function
from repro.runtime.supervised import SupervisedRunner
from repro.tuning.database import model_source_hash

from golden import DT, PERTURBATION
from spans import Recorder
from workloads import (MAX_WORKERS, POPULATION_RANGES, RESOLVE, WIDTH, Input,
                       Sample, Stores, Timed, Workload, bundle_coordinates,
                       by_input, frontend, generate, must_pass, operate,
                       passes, population_runner, robust_sum)

# -- the resolves by hand ------------------------------------------------------------


def _frontend(inp: Input, rec: Recorder, promote=()):
    with rec.span("easyml.parse", source_bytes=len(inp.text)):
        ast = parse_model(inp.text, inp.name)
    with rec.span("frontend.analyze"):
        return analyze(ast, promote_params=promote)


def _mlir(model):
    return generate_limpet_mlir(model, WIDTH)


#: the backends a path tries in order, like the program's fallback chain
_CHAINS = {"jit": (_mlir,), "supervised": (_mlir,), "cache": (generate,),
           "resilient": (_mlir, lambda m: generate_icc_simd(m, WIDTH),
                         generate_baseline)}


def _irgen(model, rec: Recorder, chain: Sequence[Callable]):
    with rec.span("codegen.irgen") as span:
        for backend in chain:
            try:
                generated = backend(model)
                break
            except UnsupportedModelError:
                continue
    span["args"]["ir_ops"] = sum(1 for _ in generated.module.walk())
    return generated


def _exec(spec, layout, payload: Dict, rec: Recorder,
          runner_cls=KernelRunner, **kwargs):
    """Exec a finished kernel payload, as every store hit does."""
    kernel = ArtifactKernel(module=None, spec=spec, layout=layout,
                            payload=payload)
    source = payload["source"]
    with rec.span("runtime.lowering.exec", source_bytes=len(source),
                  statements=len(source.strip().splitlines()) - 1):
        return runner_cls(kernel, artifacts=False, **kwargs)


def _jit(generated, rec: Recorder, **runner_kwargs):
    """passes -> verify -> lower -> exec.  ``lower_function`` execs its own
    source, so its span holds one exec; ``layer_metrics`` takes it out."""
    module = generated.module
    with rec.span("ir.passes") as span:
        default_pipeline(verify_each=False).run(module, fixed_point=True)
    span["args"]["ops_after_passes"] = sum(1 for _ in module.walk())
    with rec.span("ir.verify"):
        verify_module(module)
    with rec.span("runtime.lowering.lower"):
        kernel = lower_function(module, generated.spec.function_name,
                                fuse=True, arena=False)
    payload = {"function_name": kernel.name, "source": kernel.source,
               "mode": kernel.mode, "width": kernel.width,
               "arg_names": kernel.arg_names, "fused": kernel.fused,
               "arena": False}
    return _exec(generated.spec, generated.layout, payload, rec,
                 **runner_kwargs)


def _cache_hit(generated, inp: Input, stores: Stores, rec: Recorder):
    with rec.span("runtime.kernel_cache.key"):
        key = kernel_cache_key(
            generated, default_pipeline(verify_each=False).fingerprint(),
            True, False, True)
    with rec.span("runtime.kernel_cache.load"):
        payload = stores.cache.load(key)
    if payload is None:
        raise LookupError(f"kernel cache miss for {inp.name}")
    with rec.span("probe.ir.print"):    # a second print: the key holds one
        print_module(generated.module)
    return _exec(generated.spec, generated.layout, payload, rec)


def _bundle_hit(inp: Input, stores: Stores, rec: Recorder):
    """``runner_from_store`` by hand: manifest + entry + checksum, then the
    pickled model blob, then the exec."""
    store = stores.bundle
    with rec.span("aot.lookup"):
        manifest = store.manifest()
        key = manifest["spec_index"].get(
            spec_fingerprint(inp.name, **bundle_coordinates(inp.name)))
        source_hash = model_source_hash(inp.name)
        entry = store.load_key(key) if key else None
        if entry is not None and \
                manifest["entries"][key]["source_hash"] != source_hash:
            entry = None
    if entry is None:
        raise LookupError(f"bundle miss for {inp.name}")
    with rec.span("aot.model_blob"):
        model = store.load_model_blob(inp.name, source_hash=source_hash)
    with rec.span("runtime.lowering.exec"):
        return KernelRunner(kernel_from_entry(entry, model=model),
                            artifacts=False)


def _resolve(workload: Workload, path: str, inp: Input, stores: Stores,
             rec: Recorder):
    if path == "bundle":
        return _bundle_hit(inp, stores, rec)
    if path == "population":
        promoted = _frontend(inp, rec, promote=tuple(POPULATION_RANGES))
        with rec.span("population.construct"):
            pop = population_runner(promoted)
        with rec.span("population.resolve"):
            pop.runner_for(workload.cells)
        return pop
    generated = _irgen(_frontend(inp, rec), rec, _CHAINS[path])
    if path == "cache":
        return _cache_hit(generated, inp, stores, rec)
    if path == "supervised":
        return _jit(generated, rec, runner_cls=SupervisedRunner,
                    n_workers=MAX_WORKERS)
    return _jit(generated, rec)


# -- the traced operation ------------------------------------------------------------


def _steady(workload: Workload, runner, inner: KernelRunner, state,
            rec: Recorder) -> None:
    """Steps 2..N with the kernel and the solver stage clocked apart.  The
    supervised tier only dispatches to its workers inside ``run``, so there
    the program's own ``time_breakdown`` supplies the kernel time."""
    clock = time.perf_counter
    kernel = solver = 0.0
    with rec.span("runtime.executor.steady") as span:
        if isinstance(runner, SupervisedRunner):
            kernel = runner.run(state, workload.steps - 1, DT,
                                time_breakdown=True).compute_seconds
        else:
            compute, solve = inner.compute_step, inner.solver_step
            for _ in range(workload.steps - 1):
                t0 = clock()
                compute(state, DT)
                t1 = clock()
                solve(state, DT)
                solver += clock() - t1
                kernel += t1 - t0
                state.time += DT
                state.steps_done += 1
    span["args"].update(kernel_s=kernel, solver_s=solver)


def timed_by_hand(rec: Recorder) -> Callable[..., Timed]:
    """The ``timed`` of ``workloads.operate`` that records into ``rec``."""

    def timed(workload: Workload, path: str, inp: Input,
              stores: Stores) -> Timed:
        with rec.span("operation", input=inp.name) as op:
            runner = _resolve(workload, path, inp, stores, rec)
            # the runner that owns the kernel: a population runner wraps it
            inner = runner.runner_for(workload.cells) \
                if isinstance(runner, PopulationRunner) else runner
            with rec.span("runtime.state.allocate") as span:
                state = runner.make_state(
                    workload.cells, perturbation=PERTURBATION,
                    rng=np.random.default_rng(inp.state_seed))
            span["args"].update(
                bytes=state.sv.nbytes + sum(
                    a.nbytes for a in state.externals.values()),
                param_bytes=sum(a.nbytes for a in state.params.values()))
            with rec.span("runtime.lut_runtime.build") as span:
                tables = inner.luts_for(DT)
            span["args"]["table_bytes"] = sum(
                t.memory_bytes() for t in tables)
            with rec.span("runtime.executor.first_step"):
                runner.run(state, 1, DT)
            first = time.perf_counter()
            _steady(workload, runner, inner, state, rec)
        return runner, state, op["start"], first, op["end"]

    return timed


# -- probes ----------------------------------------------------------------------------


def _loop_of_instances(workload: Workload, inp: Input) -> float:
    """The population as a loop: one promoted kernel, one run per instance;
    returns the summed steady seconds."""
    promoted = frontend(inp, promote=tuple(POPULATION_RANGES))
    spec = PopulationSpec.from_ranges(promoted, POPULATION_RANGES)
    runner = KernelRunner(generate_limpet_mlir(promoted, WIDTH))
    steady = 0.0
    for i in range(spec.n_instances):
        state = runner.make_state(
            workload.cells, perturbation=PERTURBATION,
            rng=np.random.default_rng(inp.state_seed),
            param_values={n: v[i] for n, v in spec.values.items()})
        runner.run(state, 1, DT)
        steady += runner.run(state, workload.steps - 1, DT).elapsed_seconds
    return steady


def _spawn_seconds(workload: Workload, inp: Input) -> float:
    """Shared-memory attach + worker fork + join of the supervised tier: a
    zero-step ``run`` does exactly that and nothing else."""
    runner = RESOLVE["supervised"](inp, None)
    try:
        state = runner.make_state(workload.cells)
        start = time.perf_counter()
        runner.run(state, 0, DT)
        return time.perf_counter() - start
    finally:
        runner.close()


def _with_program_tracer(workload: Workload, inp: Input,
                         stores: Stores) -> Sample:
    """An untraced operation with the program's own ``repro.obs`` tracer on."""
    previous = program_trace.activate(program_trace.Tracer())
    try:
        return operate(workload, inp, stores, check_golden=False)
    finally:
        program_trace.deactivate(previous)


def _store_seconds(stores: Stores, keys: Sequence[str]) -> float:
    """The cache *write*, timed directly: every entry the reference pass hit
    is stored again into a scratch cache."""
    scratch = KernelCache(stores.root / "store_probe")
    seconds = 0.0
    for key in keys:
        p = stores.cache.load(key)
        start = time.perf_counter()
        scratch.store(key, p["source"], p["mode"], p["width"],
                      p["arg_names"], p["function_name"],
                      fused=p["fused"], arena=p["arena"])
        seconds += time.perf_counter() - start
    return seconds


def _dir_bytes(root: pathlib.Path, pattern: str) -> float:
    return float(sum(p.stat().st_size for p in root.glob(pattern)
                     if p.is_file()))


# -- the run and its metrics ------------------------------------------------------------

#: spans whose self time is a layer's time; ``<name>_s`` is the metric
_LAYER_SPANS = (
    "easyml.parse", "frontend.analyze", "codegen.irgen", "ir.passes",
    "ir.verify", "runtime.lowering.lower", "runtime.lowering.exec",
    "runtime.kernel_cache.key", "runtime.kernel_cache.load", "aot.lookup",
    "aot.model_blob", "population.construct", "population.resolve",
    "runtime.state.allocate", "runtime.lut_runtime.build",
    "runtime.executor.first_step", "runtime.executor.steady")
#: exact counts carried by a span: metric -> (span, argument)
_COUNTS = {
    "easyml.source_bytes": ("easyml.parse", "source_bytes"),
    "codegen.ir_ops": ("codegen.irgen", "ir_ops"),
    "ir.ops_after_passes": ("ir.passes", "ops_after_passes"),
    "runtime.lowering.source_bytes": ("runtime.lowering.exec",
                                      "source_bytes"),
    "runtime.lowering.statements": ("runtime.lowering.exec", "statements"),
    "runtime.lut_runtime.table_bytes": ("runtime.lut_runtime.build",
                                        "table_bytes"),
    "runtime.state.bytes": ("runtime.state.allocate", "bytes"),
    "population.param_bytes": ("runtime.state.allocate", "param_bytes"),
}
#: untraced operations through a neighbouring path, per workload
_PROBE_PATHS = {"zoo_cold": ("unsandboxed",),
                "ohara_parallel": ("jit", "threads")}


def traced(workload: Workload, stores: Stores, texts: Dict[str, str],
           seed: int, seconds: float, trace_path: pathlib.Path
           ) -> Tuple[List[Sample], Dict[str, float]]:
    """Rounds of (untraced pass, traced pass, the workload's probes) over the
    same inputs until ``seconds`` have gone by.  Returns every sample and
    the per-layer metrics; a layer the workload never calls reports 0."""
    rec = Recorder()
    by_hand = timed_by_hand(rec)
    ref: List[Sample] = []
    hand: List[Sample] = []
    probes: Dict[str, List[Sample]] = defaultdict(list)
    loop_steady: List[float] = []
    spawn: List[float] = []
    deadline = time.perf_counter() + seconds
    for number, inputs in enumerate(passes(workload, texts, seed)):
        check = number == 0
        # pass after pass, not input by input: right after an operation the
        # same model's files and tables are still warm for the next one
        ref += [operate(workload, inp, stores, check_golden=check)
                for inp in inputs]
        hand += [operate(workload, inp, stores, check_golden=check,
                         timed=by_hand) for inp in inputs]
        for path in _PROBE_PATHS.get(workload.name, ()):
            probes[path] += [operate(workload, inp, stores, path=path,
                                     check_golden=check) for inp in inputs]
        if workload.name == "ohara_dispatch":
            probes["obs"] += [_with_program_tracer(workload, inp, stores)
                              for inp in inputs]
        if workload.path == "population":
            loop_steady += [_loop_of_instances(workload, i) for i in inputs]
        if workload.path == "supervised":
            spawn += [_spawn_seconds(workload, inp) for inp in inputs]
        if time.perf_counter() >= deadline:
            break
    rec.write_chrome_trace(trace_path)
    samples = ref + hand + [s for group in probes.values() for s in group]
    for sample in samples:
        must_pass(sample, "traced run")
    m = layer_metrics(workload, rec, ref, hand, probes)
    if stores.cache:
        m["runtime.kernel_cache.hit_share"] = \
            sum(s.hits[0] for s in ref) / len(ref)
        m["runtime.kernel_cache.entry_bytes"] = _dir_bytes(
            stores.cache.root, "*.json")
        m["runtime.kernel_cache.store_s"] = _store_seconds(
            stores, sorted({s.cache_key for s in ref}))
    if stores.bundle:
        m["aot.hit_share"] = sum(s.hits[1] for s in ref) / len(ref)
        m["aot.build_s"] = stores.build_s
        m["aot.bundle_bytes"] = _dir_bytes(stores.bundle.root, "**/*")
    if loop_steady:
        m["population.batched_vs_loop"] = statistics.median(loop_steady) \
            / robust_sum(by_input(ref, "steady"))
    if spawn:
        m["runtime.supervised.spawn_s"] = statistics.median(spawn)
    return samples, m


def layer_metrics(workload: Workload, rec: Recorder, ref: Sequence[Sample],
                  hand: Sequence[Sample],
                  probes: Dict[str, List[Sample]]) -> Dict[str, float]:
    """Per-layer metrics from the spans and the untraced reference samples.
    Every time is per pass over the workload's inputs, with the statistic of
    the end-to-end metrics: median over repeats, summed over inputs."""
    own = rec.self_times()
    span_values: Dict[Tuple[str, str], Dict[str, List[float]]] = \
        defaultdict(lambda: defaultdict(list))
    for span in rec.spans:
        model = rec.root_of(span)["args"]["input"]
        span_values[span["name"], ""][model].append(own[span["id"]])
        for arg, value in span["args"].items():
            if isinstance(value, (int, float)):
                span_values[span["name"], arg][model].append(value)

    def of_span(name: str, arg: str = "") -> float:
        grouped = span_values.get((name, arg))
        return robust_sum(grouped) if grouped else 0.0

    def total(group: Sequence[Sample], attr: str = "total") -> float:
        return robust_sum(by_input(group, attr))

    n_inputs = len(workload.models)
    ref_total, ref_steady = total(ref), total(ref, "steady")
    m = {name + "_s": of_span(name) for name in _LAYER_SPANS}
    m.update({metric: of_span(*where) for metric, where in _COUNTS.items()})
    m["ir.print_s"] = of_span("probe.ir.print")
    unsandboxed = probes.get("unsandboxed")
    # from outside the sandbox is only visible as a difference of two paths
    m["resilience.sandbox_overhead_s"] = \
        ref_total - total(unsandboxed) if unsandboxed else 0.0
    m["resilience.fallback_count"] = float(
        len({s.input for s in ref if s.fell_back}))
    # the three executor metrics below add up to the untraced steady time by
    # definition, so the steady span itself stays out of the sum
    attributed = ref_steady + m["resilience.sandbox_overhead_s"] + sum(
        m[name + "_s"] for name in _LAYER_SPANS[:-1])
    if m["runtime.lowering.lower_s"]:
        # lower_function's span holds an exec of its own; the exec span that
        # follows it is that same work done again for the runner
        m["runtime.lowering.lower_s"] -= m["runtime.lowering.exec_s"]
        attributed -= m["runtime.lowering.exec_s"]

    # the steady steps: kernel, solver stage, and what run() adds on top
    kernel = of_span("runtime.executor.steady", "kernel_s")
    solver = of_span("runtime.executor.steady", "solver_s")
    cell_steps = total(ref, "cell_steps")
    del m["runtime.executor.steady_s"]      # reported as its three parts
    m["runtime.executor.kernel_s"] = kernel
    m["runtime.executor.solver_s"] = solver
    m["runtime.executor.loop_overhead_s"] = ref_steady - kernel - solver
    m["runtime.executor.kernel_share"] = kernel / ref_steady
    m["runtime.executor.ns_per_cell_step"] = ref_steady / cell_steps * 1e9
    m["runtime.executor.us_per_step"] = \
        ref_steady / (n_inputs * (workload.steps - 1)) * 1e6
    # computed from array sizes, not measured: state and externals read and
    # written once a step, parameters read once; mean over the inputs
    m["runtime.executor.state_bytes_per_step"] = (
        2 * m["runtime.state.bytes"] + m["population.param_bytes"]) / n_inputs

    # tiers: the same operation on one thread, on threads, on processes
    single, threads = probes.get("jit"), probes.get("threads")
    for tier, group in (("sharded", threads), ("supervised", ref)):
        m[f"runtime.{tier}.speedup_vs_single"] = \
            total(single, "steady") / total(group, "steady") if single else 0.0
    m["runtime.sharded.cell_steps_per_s"] = \
        cell_steps / total(threads, "steady") if threads else 0.0
    m["runtime.supervised.restarts"] = float(
        program_metrics.counter("worker_restarts_total").value)
    m["runtime.supervised.degradations"] = float(
        program_metrics.counter("degradations_total").value)
    obs = probes.get("obs")
    m["obs.tracer_overhead_share"] = \
        total(obs) / ref_total - 1.0 if obs else 0.0

    # what the benchmark's own tracing costs, and what it cannot place
    m["bench.trace_overhead_share"] = total(hand) / ref_total - 1.0
    m["bench.unattributed_share"] = 1.0 - attributed / ref_total
    for name in ("runtime.kernel_cache.hit_share",
                 "runtime.kernel_cache.entry_bytes",
                 "runtime.kernel_cache.store_s", "aot.hit_share",
                 "aot.build_s", "aot.bundle_bytes",
                 "population.batched_vs_loop", "runtime.supervised.spawn_s"):
        m[name] = 0.0
    return m
