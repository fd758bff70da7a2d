"""Measured before/after comparison of the performance layer, and the
population sweep-vs-loop benchmark (the ``perf`` and ``sweep`` sections
of the perf record, :mod:`repro.bench.record`).

``perf_report`` times four variants of the same simulation on the same
machine:

* ``baseline``       — unfused lowering, no cache (the pre-PR hot path);
* ``fused``          — fused expression lowering;
* ``fused_cached``   — fused lowering built from a warm persistent
  kernel cache (construction skips passes/verify/lowering);
* ``fused_artifact`` — fused lowering served by the read-only AOT
  artifact tier (:mod:`repro.aot`): construction skips passes, verify
  and lowering, reading the prebuilt bundle entry instead.

Each variant reports construction time (pipeline + verify + lowering,
or a cache hit) and run time (the paper's 5-run drop-extrema protocol)
separately, because the cache helps the former and fusion the
latter.  Speedups compare **total** time — a sweep over many models
pays both — plus a run-only column for the compute-stage story.  One
more ratio, ``fused_artifact.first_step``, is the cold-start bar: the
``fused`` variant's time to first step over ``fused_artifact``'s, the
same kernel built by the pipeline or served by the bundle, timed in
this one process.

``perf_report`` additionally differential-checks every variant's
trajectory against the baseline before timing anything: a performance
number for a kernel that diverges is worthless.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

from ..codegen import generate_limpet_mlir
from ..models import load_model
from ..runtime import (KernelCache, KernelRunner, available_cpus,
                       compare_trajectories)
from .record import make_section
from .timing import TimingStats

#: the canonical benchmark config (CI and README numbers use these).
#: OHara is the paper's flagship Markov/backward-Euler model and the
#: one where per-op vector temporaries hurt the most.
CANONICAL_MODEL = "OHara"
CANONICAL_CELLS = 4096
CANONICAL_STEPS = 100
CANONICAL_DT = 0.01
CANONICAL_WIDTH = 8

#: the differential gates run this many steps over this many cells
#: before anything is timed
CHECK_STEPS = 40
CHECK_CELLS = 16


@dataclass
class PerfVariant:
    """One timed variant of the benchmark config."""

    name: str
    construct_seconds: float
    run_seconds: float
    steps_per_second: float
    cell_steps_per_second: float
    cache_hit: bool = False
    run_seconds_iqr: float = 0.0
    compute_seconds: Optional[float] = None
    overhead_seconds: Optional[float] = None
    #: population batch instances advanced per kernel call (1 for
    #: ordinary variants; ``cell_steps_per_second`` includes it)
    instances: int = 1
    #: did construction hit the AOT artifact tier?
    artifact_hit: bool = False
    #: compile + first-step latency of this variant's *first* run —
    #: the cold-vs-warm-vs-artifact column of the standard report
    time_to_first_step: Optional[float] = None
    #: one-time kernel construction cost inside the runner (a subset
    #: of ``construct_seconds``, which also covers codegen)
    compile_seconds: Optional[float] = None

    @property
    def total_seconds(self) -> float:
        return self.construct_seconds + self.run_seconds

    def as_dict(self) -> Dict:
        data = asdict(self)
        data["total_seconds"] = self.total_seconds
        return data


def _timed_construct(factory):
    """(runner, seconds) for one runner construction."""
    import time
    start = time.perf_counter()
    runner = factory()
    return runner, time.perf_counter() - start


def _round_robin(factories: Dict[str, Callable[[], KernelRunner]],
                 n_cells: int, n_steps: int, dt: float,
                 runs: int = 5) -> List[PerfVariant]:
    """Time every variant once per repeat, interleaved.

    Each repeat visits the variants in turn: construct a fresh runner
    (timed), take its cold first run (``time_to_first_step``, which
    doubles as the warmup), then one timed run on a fresh state (the
    runner's own ``elapsed_seconds``, which covers only the stepped
    loop).  Interleaving spreads a slow host phase over all variants
    instead of landing it on whichever one it coincides with, and the
    one-shot quantities — construction and first-step time — report
    the best of ``runs`` fresh runners; run time is the median + IQR of
    the ``runs`` samples.  After timing, one extra ``time_breakdown``
    run per variant attributes the median to kernel vs overhead (the
    breakdown's clock reads perturb timing, so it never feeds the
    headline number).
    """
    rows: Dict[str, List[tuple]] = {name: [] for name in factories}
    runners: Dict[str, KernelRunner] = {}
    for _ in range(max(1, runs)):
        for name, factory in factories.items():
            runner, construct = _timed_construct(factory)
            first = runner.run(runner.make_state(n_cells), n_steps, dt)
            timed = runner.run(runner.make_state(n_cells), n_steps, dt)
            rows[name].append((construct, first, timed.elapsed_seconds,
                               runner.cache_hit, runner.artifact_hit))
            runners[name] = runner
    variants = []
    for name, taken in rows.items():
        constructs, firsts, elapsed, cache_hits, artifact_hits = zip(*taken)
        stats = TimingStats(samples=list(elapsed))
        seconds = stats.median
        runner = runners[name]
        breakdown = runner.run(runner.make_state(n_cells), n_steps, dt,
                               time_breakdown=True)
        variants.append(PerfVariant(
            name=name, construct_seconds=min(constructs),
            run_seconds=seconds,
            steps_per_second=n_steps / max(seconds, 1e-12),
            cell_steps_per_second=n_steps * n_cells / max(seconds, 1e-12),
            run_seconds_iqr=stats.iqr,
            compute_seconds=breakdown.compute_seconds,
            overhead_seconds=breakdown.overhead_seconds,
            cache_hit=all(cache_hits), artifact_hit=all(artifact_hits),
            time_to_first_step=min(f.time_to_first_step for f in firsts),
            compile_seconds=min(f.compile_seconds for f in firsts)))
    return variants


def perf_report(model_name: str = CANONICAL_MODEL,
                n_cells: int = CANONICAL_CELLS,
                n_steps: int = CANONICAL_STEPS,
                dt: float = CANONICAL_DT,
                cache: Optional[KernelCache] = None,
                runs: int = 5,
                width: int = CANONICAL_WIDTH) -> Dict:
    """Build the ``perf`` section for one model/config.

    ``cache`` defaults to the process default cache; pass a dedicated
    :class:`KernelCache` to keep benchmark entries out of it.
    ``width`` is the SIMD width of the generated kernels (the CLI's
    ``--width`` override; the canonical config uses 8).
    """
    model = load_model(model_name)

    def gen():
        return generate_limpet_mlir(load_model(model_name), width=width)

    # -- differential gate: all variants must agree before we time anything
    ref = KernelRunner(gen(), fuse=False).simulate(CHECK_CELLS, CHECK_STEPS,
                                                   dt).state
    fused_state = KernelRunner(gen()).simulate(CHECK_CELLS, CHECK_STEPS,
                                               dt).state
    verdict = compare_trajectories(ref, fused_state)
    if not verdict:
        raise AssertionError(
            f"fused lowering diverged from unfused baseline on "
            f"{model_name}: {verdict.describe()}")

    the_cache = cache if cache is not None else True
    KernelRunner(gen(), cache=the_cache)          # warm the entry

    # -- fused + AOT artifact bundle (zero-compile construction)
    import tempfile

    from ..aot import ArtifactStore, build_bundle
    with tempfile.TemporaryDirectory() as tmp:
        build_bundle(tmp, models=[model_name], width=width)
        store = ArtifactStore(tmp)
        art_check = KernelRunner(gen(), cache=None, artifacts=store)
        art_state = art_check.simulate(CHECK_CELLS, CHECK_STEPS, dt).state
        verdict = compare_trajectories(ref, art_state)
        if not verdict:
            raise AssertionError(
                f"fused_artifact lowering diverged from unfused baseline "
                f"on {model_name}: {verdict.describe()}")
        variants = _round_robin({
            "baseline": lambda: KernelRunner(gen(), fuse=False),
            "fused": lambda: KernelRunner(gen()),
            "fused_cached": lambda: KernelRunner(gen(), cache=the_cache),
            "fused_artifact": lambda: KernelRunner(gen(), cache=None,
                                                   artifacts=store),
        }, n_cells, n_steps, dt, runs)

    baseline = variants[0]
    ratios = {}
    for v in variants[1:]:
        ratios[f"{v.name}.total"] = (baseline.total_seconds
                                     / max(v.total_seconds, 1e-12))
        ratios[f"{v.name}.run"] = (baseline.run_seconds
                                   / max(v.run_seconds, 1e-12))
    by_name = {v.name: v for v in variants}
    ratios["fused_artifact.first_step"] = (
        by_name["fused"].time_to_first_step
        / max(by_name["fused_artifact"].time_to_first_step, 1e-12))
    return make_section(
        config={"model_name": model_name, "n_cells": n_cells,
                "n_steps": n_steps, "dt": dt, "runs": runs,
                "width": width},
        variants=[v.as_dict() for v in variants],
        ratios=ratios,
        evidence={"differential": "all variants match unfused baseline "
                                  "(NaN-strict compare_trajectories)",
                  "n_states": len(model.states),
                  "available_cpus": available_cpus()})


def sweep_report(model_name: str, params: Dict[str, str],
                 cells_per_instance: int = 256,
                 n_steps: int = 50, dt: float = CANONICAL_DT,
                 runs: int = 5, width: int = CANONICAL_WIDTH,
                 absolute: bool = False) -> Dict:
    """Batched-sweep vs loop-of-N benchmark (the ``sweep`` section).

    Times the same N-instance parameter sweep two ways with the *same*
    promoted kernel, warm and single-threaded:

    * ``loop``    — N sequential single-instance runs (the pre-PR
      shape: one ``KernelRunner`` run per parameter point);
    * ``batched`` — one :class:`~repro.population.PopulationRunner`
      run over the flattened (instance × cell) axis.

    A bitwise differential gate precedes the timing — every instance
    of the batched run must equal its single-instance twin exactly —
    and the report carries a compile-reuse proof (the second runner of
    the same population shape hits the kernel cache).
    """
    import numpy as np

    from ..population import PopulationRunner, PopulationSpec, \
        load_promoted_model

    names = tuple(dict.fromkeys(params))
    promoted = load_promoted_model(model_name, names)
    spec = PopulationSpec.from_ranges(promoted, params, absolute=absolute)
    n = spec.n_instances
    pop = PopulationRunner(promoted, spec, width=width)
    runner = pop.runner_for(cells_per_instance)

    def loop_states():
        return [runner.make_state(
            cells_per_instance,
            param_values={name: float(vals[i])
                          for name, vals in spec.values.items()})
            for i in range(n)]

    # -- bitwise differential gate ------------------------------------------------
    check = pop.simulate(cells_per_instance, CHECK_STEPS, dt)
    for i, state in enumerate(loop_states()):
        runner.run(state, CHECK_STEPS, dt)
        if not np.array_equal(check.instance_state_matrix(i),
                              state.state_matrix()):
            raise AssertionError(
                f"batched instance {i} of {model_name} diverged bitwise "
                f"from its single-instance run")

    # -- timed, interleaved: a loop of N single-instance runs (warm kernel)
    # vs one batched run over all instances, alternating per repeat so a
    # slow host phase lands on both sides of the ratio -------------------------
    loop_samples: list = []
    batched_samples: list = []

    def loop_sample():
        elapsed = 0.0
        for state in loop_states():
            elapsed += runner.run(state, n_steps, dt).elapsed_seconds
        loop_samples.append(elapsed)

    def batched_sample():
        state = pop.make_state(cells_per_instance)
        batched_samples.append(
            pop.run(state, n_steps, dt).elapsed_seconds)

    for _ in range(1 + max(1, runs)):        # the first pair is warmup
        loop_sample()
        batched_sample()

    def variant(name: str, samples: list, instances: int) -> PerfVariant:
        stats = TimingStats(samples=samples[1:])
        return PerfVariant(
            name=name, construct_seconds=0.0, run_seconds=stats.median,
            steps_per_second=n_steps / max(stats.median, 1e-12),
            cell_steps_per_second=(n_steps * n * cells_per_instance
                                   / max(stats.median, 1e-12)),
            run_seconds_iqr=stats.iqr, instances=instances)

    loop = variant("loop", loop_samples, 1)
    batched = variant("batched", batched_samples, n)

    # -- compile reuse: same shape -> kernel-cache hit ----------------------------
    from ..runtime import KernelCache
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        reuse_cache = KernelCache(tmp)
        first = PopulationRunner(promoted, spec, width=width,
                                 cache=reuse_cache)
        first.runner_for(cells_per_instance)
        cold_hit = first.cache_hit
        second = PopulationRunner(promoted, spec, width=width,
                                  cache=reuse_cache)
        second.runner_for(cells_per_instance)
        warm_hit = second.cache_hit
        first.close()
        second.close()
    pop.close()

    return make_section(
        config={"model_name": model_name, "params": dict(params),
                "cells_per_instance": cells_per_instance,
                "n_steps": n_steps, "dt": dt, "runs": runs,
                "width": width, "absolute": absolute},
        variants=[loop.as_dict(), batched.as_dict()],
        ratios={"batched_vs_loop": (loop.run_seconds
                                    / max(batched.run_seconds, 1e-12))},
        evidence={"differential": "every batched instance bitwise-equals "
                                  "its single-instance run "
                                  "(np.array_equal)",
                  "instances": n, "threads": 1,
                  "compile_reuse": {"first_build_cache_hit": cold_hit,
                                    "second_build_cache_hit": warm_hit}})


def check_sweep_report(section: Dict,
                       min_speedup: float = 1.5) -> List[str]:
    """CI assertions for one ``sweep`` section: returns a list of
    failures (empty = ok)."""
    failures = []
    model = section["config"]["model_name"]
    evidence = section["evidence"]
    speedup = section["ratios"].get("batched_vs_loop", 0.0)
    if speedup < min_speedup:
        failures.append(
            f"{model}: batched sweep only {speedup:.3f}x vs loop "
            f"(need >= {min_speedup}x)")
    reuse = evidence.get("compile_reuse", {})
    if reuse.get("first_build_cache_hit"):
        failures.append(f"{model}: first build of the shape claimed a "
                        f"cache hit (cache was supposed to be cold)")
    if not reuse.get("second_build_cache_hit"):
        failures.append(f"{model}: second build of the same population "
                        f"shape missed the kernel cache")
    variants = {v["name"]: v for v in section["variants"]}
    batched = variants.get("batched")
    if batched is not None and \
            batched["instances"] != evidence["instances"]:
        failures.append(f"{model}: batched variant reports "
                        f"{batched['instances']} instances, the sweep "
                        f"has {evidence['instances']}")
    return failures


def check_report(section: Dict) -> List[str]:
    """Sanity assertions for CI: returns a list of failures (empty=ok).

    These are invariants, not speed bars: a fused kernel slower than
    the unfused one, a store that did not serve the kernel, or a
    store-served build slower than the full pipeline is a bug on any
    machine.
    """
    failures = []
    ratios = section["ratios"]
    variants = {v["name"]: v for v in section["variants"]}
    if ratios["fused.run"] < 1.0:
        failures.append(
            f"fused run slower than unfused baseline: "
            f"{ratios['fused.run']:.3f}x")
    if not variants["fused_cached"]["cache_hit"]:
        failures.append("fused_cached variant did not hit the cache")
    if variants["fused_cached"]["construct_seconds"] >= \
            variants["baseline"]["construct_seconds"]:
        failures.append(
            "cache-hit construction not faster than full pipeline "
            f"({variants['fused_cached']['construct_seconds']:.4f}s vs "
            f"{variants['baseline']['construct_seconds']:.4f}s)")
    artifact = variants["fused_artifact"]
    if not artifact["artifact_hit"]:
        failures.append("fused_artifact variant did not hit the "
                        "AOT artifact tier")
    if artifact["construct_seconds"] >= \
            variants["baseline"]["construct_seconds"]:
        failures.append(
            "artifact-tier construction not faster than full "
            f"pipeline ({artifact['construct_seconds']:.4f}s vs "
            f"{variants['baseline']['construct_seconds']:.4f}s)")
    return failures
