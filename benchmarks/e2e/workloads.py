"""Workloads, operations and metrics of the end-to-end benchmark.

One *operation* is: model text -> ``easyml.parse_model`` ->
``frontend.analyze`` -> resolve a runner by the workload's path ->
``make_state`` -> ``run(state, 1, dt)`` (first step, builds the LUTs) ->
``run(state, steps - 1, dt)`` -> check.  The benchmark only ever calls the
program's public functions and times them from outside.

``layers.py`` holds the traced variant of an operation and the per-layer
metrics; this file holds what the end-to-end metrics need.
"""

from __future__ import annotations

import gc
import os
import pathlib
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.aot import ArtifactStore, build_bundle, runner_from_store
from repro.codegen import (BackendMode, generate_baseline,
                           generate_limpet_mlir)
from repro.easyml import parse_model
from repro.frontend import analyze
from repro.models import UNSUPPORTED_MODELS, all_model_files, model_entry
from repro.population import PopulationRunner, PopulationSpec
from repro.resilience import compile_resilient
from repro.runtime import KernelRunner
from repro.runtime.kernel_cache import KernelCache
from repro.runtime.sharded import ShardedRunner
from repro.runtime.supervised import SupervisedRunner

import golden
from golden import DT, PERTURBATION
from machine import SpeedGauge

WIDTH = 8
#: threads and worker processes never exceed this
MAX_WORKERS = min(2, os.cpu_count() or 1)
POPULATION_RANGES = {golden.POPULATION_PARAM: "%g:%g:%d"
                     % golden.POPULATION_RANGE}
#: set-up is repeated and its median reported, so that a change that moves
#: work into set-up shows against run-to-run noise
SETUP_REPEATS = 3
#: a run goes on past its length (at most doubling it) until this many
#: operations, or one and a half passes of the zoo, ran undisturbed
MIN_UNDISTURBED = 6
ZOO = tuple(all_model_files())


@dataclass(frozen=True)
class Workload:
    name: str
    #: how a runner is resolved: the key into RESOLVE
    path: str
    models: Tuple[str, ...]
    #: cells per run (per instance on the population path)
    cells: int
    steps: int


# Sizes are chosen so that every workload gets >= 15 samples (>= 3 passes of
# the 47-model zoo) inside the run length BENCHMARK.json fixes; see README.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("ohara_steady", "jit", ("OHara",), 4096, 50),
    Workload("ohara_dispatch", "jit", ("OHara",), 64, 500),
    Workload("zoo_cold", "resilient", ZOO, 64, 32),
    Workload("zoo_cache", "cache", ZOO, 64, 32),
    Workload("zoo_bundle", "bundle", ZOO, 64, 32),
    Workload("courtemanche_population", "population",
             (golden.POPULATION_MODEL,), 256, 100),
    Workload("ohara_parallel", "supervised", ("OHara",), 4096, 50),
)}

#: (cache_hit, artifact_hit) every timed operation of a path must show;
#: a path not named here must miss both
EXPECTED_HITS = {"cache": (True, False), "bundle": (False, True)}
#: tiers that split cells need the golden input repeated, one block a shard
GOLDEN_TILES = {"supervised": 2, "threads": 2}


@dataclass(frozen=True)
class Input:
    """What the program receives for one operation."""

    name: str
    text: str
    state_seed: Tuple[int, int]


@dataclass
class Stores:
    """The persistent stores of one set-up, all under a fresh directory."""

    root: pathlib.Path
    cache: Optional[KernelCache] = None
    bundle: Optional[ArtifactStore] = None
    #: seconds ``build_bundle`` took (bundle path only)
    build_s: float = 0.0


@dataclass
class Sample:
    """The outcome of one operation."""

    input: str
    ttfs: float = 0.0
    steady: float = 0.0
    cell_steps: int = 0
    hits: Tuple[bool, bool] = (False, False)
    fell_back: bool = False
    cache_key: Optional[str] = None
    #: the calibration probe right before and right after the operation
    speed: Tuple[float, ...] = ()
    #: why the operation counts as failed; empty when it passed
    problems: List[str] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.ttfs + self.steady


def read_texts(models: Sequence[str]) -> Dict[str, str]:
    return {name: model_entry(name).path.read_text() for name in models}


def passes(workload: Workload, texts: Dict[str, str],
           seed: int) -> Iterator[List[Input]]:
    """Endless passes over the workload's models, each in seeded-shuffled
    order; the initial-state perturbation of every operation is seeded too."""
    rng = np.random.default_rng(seed)
    models = workload.models
    done = 0
    while True:
        order = rng.permutation(len(models))
        yield [Input(models[i], texts[models[i]], (seed, done + k))
               for k, i in enumerate(order)]
        done += len(models)


# -- resolving a runner, as a user of the program does ---------------------------


def frontend(inp: Input, promote=()):
    return analyze(parse_model(inp.text, inp.name), promote_params=promote)


def generate(model):
    """limpetMLIR where legal, the baseline generator for foreign models."""
    if model.foreign_functions:
        return generate_baseline(model)
    return generate_limpet_mlir(model, WIDTH)


def bundle_coordinates(name: str) -> Dict:
    if name in UNSUPPORTED_MODELS:
        return {"backend": "baseline", "width": 1}
    return {"backend": "limpet_mlir", "width": WIDTH}


def population_runner(promoted) -> PopulationRunner:
    spec = PopulationSpec.from_ranges(promoted, POPULATION_RANGES)
    return PopulationRunner(promoted, spec, width=WIDTH)


RESOLVE: Dict[str, Callable] = {
    "jit": lambda inp, stores: KernelRunner(
        generate_limpet_mlir(frontend(inp), WIDTH)),
    "resilient": lambda inp, stores: compile_resilient(
        frontend(inp), artifacts=False).runner,
    "cache": lambda inp, stores: KernelRunner(
        generate(frontend(inp)), cache=stores.cache),
    "bundle": lambda inp, stores: runner_from_store(
        inp.name, store=stores.bundle, **bundle_coordinates(inp.name)),
    "population": lambda inp, stores: population_runner(
        frontend(inp, promote=tuple(POPULATION_RANGES))),
    "supervised": lambda inp, stores: SupervisedRunner(
        generate_limpet_mlir(frontend(inp), WIDTH), n_workers=MAX_WORKERS),
    # probes of the traced run, never an end-to-end path
    "unsandboxed": lambda inp, stores: compile_resilient(
        frontend(inp), artifacts=False, sandbox=False).runner,
    "threads": lambda inp, stores: ShardedRunner(
        generate_limpet_mlir(frontend(inp), WIDTH), n_threads=MAX_WORKERS),
}


# -- one operation ----------------------------------------------------------------

#: what a timed sequence returns: the runner, the final state, and the clock
#: at the start, after the first step, and at the end
Timed = Tuple[object, object, float, float, float]


def timed_plain(workload: Workload, path: str, inp: Input,
                stores: Stores) -> Timed:
    """The operation as a user of the program runs it, three clock reads."""
    start = time.perf_counter()
    runner = RESOLVE[path](inp, stores)
    state = runner.make_state(workload.cells, perturbation=PERTURBATION,
                              rng=np.random.default_rng(inp.state_seed))
    runner.run(state, 1, DT)
    first = time.perf_counter()
    runner.run(state, workload.steps - 1, DT)
    return runner, state, start, first, time.perf_counter()


def _verify(workload: Workload, path: str, inp: Input, runner, state,
            expected_hits: Optional[Tuple[bool, bool]], check_golden: bool,
            sample: Sample) -> None:
    """Fill ``sample.problems`` with every way the operation went wrong."""
    problems = sample.problems
    arrays = [state.sv, *state.externals.values()]
    if not all(np.isfinite(a).all() for a in arrays):
        problems.append("non-finite final state")
    if abs(state.time - workload.steps * DT) > 1e-9:
        problems.append(f"state.time {state.time!r}, expected "
                        f"{workload.steps * DT!r}")
    sample.hits = (bool(runner.cache_hit),
                   bool(getattr(runner, "artifact_hit", False)))
    if expected_hits is not None and sample.hits != expected_hits:
        problems.append(f"(cache_hit, artifact_hit) = {sample.hits}, the "
                        f"workload defines {expected_hits}")
    if getattr(runner, "tier", "supervised") != "supervised":
        problems.append(f"supervised tier degraded to {runner.tier}")
    if check_golden:
        key = golden.POPULATION_KEY if path == "population" else inp.name
        bad = golden.replay(runner, key, GOLDEN_TILES.get(path, 1))
        if bad:
            problems.append("golden mismatch: " + ", ".join(bad))


def operate(workload: Workload, inp: Input, stores: Stores,
            path: Optional[str] = None, check_golden: bool = True,
            expected_hits: Optional[Tuple[bool, bool]] = None,
            timed: Optional[Callable[..., Timed]] = None) -> Sample:
    """Run one operation and check it; whatever goes wrong lands in the
    sample's ``problems``.  ``timed`` replaces the plain sequence with the
    traced run's by-hand one, which checks its store hits itself."""
    path = path or workload.path
    if timed is None:
        timed = timed_plain
        expected_hits = expected_hits or EXPECTED_HITS.get(
            path, (False, False))
    sample = Sample(inp.name)
    runner = None
    # every operation starts from a collected heap, so that none pays for
    # the cyclic garbage (IR modules) of the ones before it
    gc.collect()
    try:
        runner, state, start, first, end = timed(workload, path, inp, stores)
        sample.ttfs, sample.steady = first - start, end - first
        sample.cell_steps = state.n_cells * (workload.steps - 1)
        sample.cache_key = runner.cache_key
        spec = getattr(runner, "spec", None)
        sample.fell_back = getattr(spec, "mode", None) is BackendMode.BASELINE
        _verify(workload, path, inp, runner, state, expected_hits,
                check_golden, sample)
    except Exception as err:  # noqa: BLE001 - an operation that raises fails
        traceback.print_exc()
        sample.problems.append(f"raised {type(err).__name__}: {err}")
    finally:
        # a runner lost to an exception inside ``timed`` is closed by the
        # program's own exit hook (supervised.close_all_runners)
        if hasattr(runner, "close"):
            runner.close()
    return sample


# -- set-up -------------------------------------------------------------------------


def _warm_input(workload: Workload, texts: Dict[str, str]) -> Input:
    name = "OHara" if "OHara" in workload.models else workload.models[0]
    return Input(name, texts[name], (0, 0))


def must_pass(sample: Sample, what: str) -> None:
    if sample.problems:
        raise RuntimeError(f"{what} failed on {sample.input}: "
                           + "; ".join(sample.problems))


def set_up(workload: Workload, root: pathlib.Path) -> Tuple[Stores, Dict]:
    """Everything between import and the first timed sample: read the model
    texts, fill the workload's store, run one warm-up operation."""
    root.mkdir(parents=True)
    texts = read_texts(workload.models)
    stores = Stores(root)
    if workload.path == "cache":
        # the cache *write*: every model compiled once and stored
        stores.cache = KernelCache(root / "kernel_cache")
        for name in workload.models:
            must_pass(operate(workload, Input(name, texts[name], (0, 0)),
                               stores, check_golden=False,
                               expected_hits=(False, False)), "cache fill")
    elif workload.path == "bundle":
        start = time.perf_counter()
        report = build_bundle(root / "bundle", include_tuned=False)
        stores.build_s = time.perf_counter() - start
        if not report.ok:
            raise RuntimeError("bundle build failed:\n" + report.describe())
        stores.bundle = ArtifactStore(root / "bundle")
    must_pass(operate(workload, _warm_input(workload, texts), stores,
                       check_golden=False), "warm-up")
    return stores, texts


def repeated_set_up(workload: Workload,
                    root: pathlib.Path) -> Tuple[Stores, Dict, float]:
    """Set up ``SETUP_REPEATS`` times, each in a fresh directory; keep the
    last stores and report the median seconds."""
    seconds = []
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        stores, texts = set_up(workload, root / f"setup-{i}")
        seconds.append(time.perf_counter() - start)
    return stores, texts, statistics.median(seconds)


# -- statistics ---------------------------------------------------------------------


def robust_sum(values_by_input: Dict[str, List[float]]) -> float:
    """Median over the repeats of each input, summed over the inputs: the
    typical time of one pass, immune to a stall in any single repeat."""
    return sum(statistics.median(v) for v in values_by_input.values())


def by_input(samples: Sequence[Sample], attr: str) -> Dict[str, List[float]]:
    grouped: Dict[str, List[float]] = defaultdict(list)
    for sample in samples:
        grouped[sample.input].append(getattr(sample, attr))
    return grouped


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    ordered = sorted(values)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (the forked workers of the supervised tier), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(samples: Sequence[Sample], setup_s: float,
               gauge: SpeedGauge) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run: from the passed operations
    that ran at the machine's usual speed, or, for an input that never met
    it, from all its passed operations."""
    passed = [s for s in samples if not s.problems]
    quiet = [s for s in passed if gauge.undisturbed(*s.speed)]
    met_it = {s.input for s in quiet}
    chosen = quiet + [s for s in passed if s.input not in met_it]
    if not chosen:
        raise RuntimeError("every operation failed; nothing to report")
    n_inputs = len({s.input for s in chosen})
    cell_steps = robust_sum(by_input(chosen, "cell_steps"))
    return {
        "setup_s": setup_s,
        "ttfs_s": robust_sum(by_input(chosen, "ttfs")) / n_inputs,
        "cell_steps_per_s": cell_steps / robust_sum(by_input(chosen,
                                                             "steady")),
        "ops_per_s": n_inputs / robust_sum(by_input(chosen, "total")),
        "peak_rss_mb": peak_rss_mb(),
    }


def measure(workload: Workload, stores: Stores, texts: Dict[str, str],
            seed: int, seconds: float, gauge: SpeedGauge) -> List[Sample]:
    """Whole passes of operations until ``seconds`` have gone by, and then
    on, for at most as long again, until enough of them ran undisturbed."""
    samples: List[Sample] = []
    # what set-up left alive is not garbage: keep the collection before each
    # operation from walking it again and again
    gc.freeze()
    start = time.perf_counter()
    enough = max(MIN_UNDISTURBED, 1.5 * len(workload.models))
    before = gauge.probe()
    for number, inputs in enumerate(passes(workload, texts, seed)):
        # the golden replay runs on the first pass over the zoo and on every
        # operation of a one-model workload: each (path, model) at least once
        check_golden = number == 0 or len(workload.models) == 1
        for inp in inputs:
            sample = operate(workload, inp, stores, check_golden=check_golden)
            after = gauge.probe()
            sample.speed, before = (before, after), after
            samples.append(sample)
        elapsed = time.perf_counter() - start
        undisturbed = sum(gauge.undisturbed(*s.speed) for s in samples)
        if elapsed >= 2 * seconds or \
                (elapsed >= seconds and undisturbed >= enough):
            return samples
