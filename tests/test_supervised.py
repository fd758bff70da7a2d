"""Supervised multiprocess tier: bitwise differential, crash/stall
recovery, the degradation ladder, lifecycle hygiene, signal shutdown."""

import dataclasses
import glob
import json
import multiprocessing as mp
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.resilience import FaultPlan, NumericalDivergenceError
from repro.runtime import (KernelRunner, SupervisedRunner,
                           SupervisionConfig, close_all_runners,
                           compare_trajectories, multiprocess_supported,
                           shard_bounds)

needs_mp = pytest.mark.skipif(not multiprocess_supported(),
                              reason="platform lacks fork/shared_memory")

#: the differential matrix: a trivial model, a LUT model, a stiff LUT
#: model — with ragged cell counts that exercise the width remainder
DIFF_CASES = [("Plonsey", 13), ("FitzHughNagumo", 37), ("LuoRudy91", 29)]

#: fast supervision settings for tests that provoke failures
FAST = dict(task_timeout=2.0)


def make_generated(name):
    return generate_limpet_mlir(load_model(name))


def run_single(name, n_cells, n_steps, dt=0.01):
    runner = KernelRunner(make_generated(name))
    state = runner.make_state(n_cells)
    runner.run(state, n_steps, dt)
    return state


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestSupervisionConfig:
    def test_defaults_valid(self):
        config = SupervisionConfig()
        assert config.max_retries >= 1
        assert [f.name for f in dataclasses.fields(config)] == \
            ["task_timeout", "max_retries"]

    # the heartbeat and the retry backoff are gone: the progress
    # deadline is the one stall detector, and a retry goes to a freshly
    # forked worker at once
    @pytest.mark.parametrize("kwargs,error", [
        ({"task_timeout": 0.0}, ValueError),
        ({"max_retries": -1}, ValueError),
        ({"heartbeat_interval": 0.02}, TypeError),
        ({"heartbeat_timeout": 0.3}, TypeError),
        ({"retry_backoff": 0.01}, TypeError),
    ], ids=[f"kwargs{i}" for i in range(5)])
    def test_rejects_bad_values(self, kwargs, error):
        with pytest.raises(error):
            SupervisionConfig(**kwargs)


# ---------------------------------------------------------------------------
# Bitwise differential vs the single-process runner
# ---------------------------------------------------------------------------


@needs_mp
class TestBitwiseDifferential:
    @pytest.mark.parametrize("name,n_cells", DIFF_CASES)
    def test_supervised_matches_single_bitwise(self, name, n_cells):
        expected = run_single(name, n_cells, 120)
        with SupervisedRunner(make_generated(name),
                              n_workers=3) as supervised:
            state = supervised.make_state(n_cells)
            supervised.run(state, 120, 0.01)
            assert supervised.tier == "supervised"
        comparison = compare_trajectories(expected, state, rtol=0, atol=0)
        assert comparison, comparison.mismatches
        # belt and braces: exact array equality on every snapshot key
        left, right = expected.snapshot(), state.snapshot()
        for key in left:
            assert np.array_equal(left[key], right[key]), key

    def test_bitwise_after_worker_kill(self):
        expected = run_single("FitzHughNagumo", 37, 80)
        plan = FaultPlan(kill_worker=0, kill_worker_at_task=3)
        with SupervisedRunner(make_generated("FitzHughNagumo"),
                              n_workers=3, fault_plan=plan,
                              config=SupervisionConfig(**FAST)) as sup:
            state = sup.make_state(37)
            sup.run(state, 80, 0.01)
            assert sup.tier == "supervised"
            assert any("restarted worker" in d.message
                       for d in sup.diagnostics)
        assert compare_trajectories(expected, state, rtol=0, atol=0)

    def test_single_shard_runs_inline(self):
        # one worker -> one shard: supervised path degenerates to the
        # plain compute step, still bitwise identical
        expected = run_single("Plonsey", 5, 40)
        with SupervisedRunner(make_generated("Plonsey"),
                              n_workers=1) as sup:
            state = sup.make_state(5)
            sup.run(state, 40, 0.01)
        assert compare_trajectories(expected, state, rtol=0, atol=0)

    def test_population_instance_axis_matches_inline_bitwise(self):
        from repro.population import (PopulationRunner, PopulationSpec,
                                      load_promoted_model)
        model = load_promoted_model("LuoRudy91", ("GK",))
        spec = PopulationSpec.from_ranges(model, {"GK": "0.5:1.5:3"})

        def run(n_workers):
            with PopulationRunner(model, spec, width=4,
                                  n_workers=n_workers) as pop:
                result = pop.simulate(cells_per_instance=8, n_steps=30)
                runner = pop.runner_for(8)
            return result.flat.state, runner

        expected, inline = run(1)
        assert inline.active_tier == "single"
        got, sup = run(2)
        assert sup.active_tier == "supervised"
        # the flattened (instance x cell) axis is cut like any other
        # cell range: 24 cells over 2 workers, 4-wide blocks, so the
        # cut at 12 lands inside instance 1
        assert sup.shards_for(got) == shard_bounds(24, 2, 4) \
            == [(0, 12), (12, 24)]
        assert compare_trajectories(expected, got, rtol=0, atol=0)

    def test_state_arrays_restored_after_run(self):
        # the workers step a shadow of the state in shared memory; the
        # caller's arrays are never rebound and hold the result, and
        # the segment lives until close()
        expected = run_single("Plonsey", 16, 10)
        with SupervisedRunner(make_generated("Plonsey"),
                              n_workers=2) as sup:
            state = sup.make_state(16)
            sv_before = state.sv
            sup.run(state, 10, 0.01)
            shm = sup._state_shm
            path = f"/dev/shm/{shm.name}"
            assert os.path.exists(path)
            assert state.sv is sv_before
        assert sup._state_shm is None and not os.path.exists(path)
        assert compare_trajectories(expected, state, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Run segments: one task per shard per segment, bitwise equal to inline
# ---------------------------------------------------------------------------


def _split(runner, state):
    runner.run(state, 1, 0.01)
    return runner.run(state, 59, 0.01).n_steps


def _record_vm(runner, state):
    return list(runner.run(state, 60, 0.01, record_vm=True).vm_trace)


def _step_hook(runner, state):
    seen = []
    runner.run(state, 60, 0.01,
               step_hook=lambda s: seen.append((s.steps_done, s.time)))
    return seen


def _pulse(runner, state):
    # the pulse switches on and off inside the 59-step segment
    from repro.runtime import Stimulus
    stimulus = Stimulus(amplitude=-30.0, duration=0.25, period=0.4,
                        start=0.13)
    return runner.run(state, 60, 0.01, stimulus=stimulus).n_steps


def _halve_dt(runner, state):
    # FitzHughNagumo diverges at dt 5 on its own: no hook, so the
    # watchdog's check_interval stretches are the segments
    from repro.resilience import WatchdogConfig
    with np.errstate(over="ignore", invalid="ignore"):
        health = runner.run(state, 100, 5.0,
                            watchdog=WatchdogConfig(check_interval=10)).health
    assert health.ok and health.retries >= 1
    return health.retries, health.final_dt, state.time


#: scenario -> (model, ragged cell count, segment sizes it must dispatch)
SEGMENT_CASES = {
    "split_run": (_split, "LuoRudy91", 29, [1, 1, 58]),
    "record_vm": (_record_vm, "LuoRudy91", 29, [1] * 60),
    "step_hook": (_step_hook, "LuoRudy91", 29, [1] * 60),
    "pulse_edge_in_segment": (_pulse, "LuoRudy91", 29, [1, 59]),
    "watchdog_halve_dt": (_halve_dt, "FitzHughNagumo", 21, None),
}


@needs_mp
class TestSegments:
    @pytest.mark.parametrize("case", sorted(SEGMENT_CASES))
    def test_segments_match_inline_bitwise(self, case):
        scenario, name, n_cells, sizes = SEGMENT_CASES[case]
        inline = KernelRunner(make_generated(name))
        expected = inline.make_state(n_cells)
        expected_out = scenario(inline, expected)
        with SupervisedRunner(make_generated(name), n_workers=3) as sup:
            dispatched = []
            segment = sup._segment

            def spy(state, n_steps, *args):
                dispatched.append(n_steps)
                return segment(state, n_steps, *args)

            sup._segment = spy
            state = sup.make_state(n_cells)
            assert scenario(sup, state) == expected_out
            assert sup.tier == "supervised"
        if sizes is not None:
            assert dispatched == sizes
        else:                           # one segment per check_interval
            assert max(dispatched) == 10
        assert (state.time, state.steps_done) == \
            (expected.time, expected.steps_done)
        assert compare_trajectories(expected, state, rtol=0, atol=0)

    def test_time_breakdown_sums_segment_wall_time(self):
        with SupervisedRunner(make_generated("LuoRudy91"),
                              n_workers=2) as sup:
            state = sup.make_state(29)
            result = sup.run(state, 30, 0.01, time_breakdown=True)
        assert isinstance(result.compute_seconds, float)
        assert 0.0 < result.compute_seconds <= result.elapsed_seconds

    def test_kill_mid_segment_restores_and_reports_step(self):
        # run(41) is segments [1, 40]; the worker's 6th step is the 5th
        # of the 40-step segment, i.e. step 5 of the run (0-based)
        expected = run_single("FitzHughNagumo", 37, 41)
        plan = FaultPlan(kill_worker=1, kill_worker_at_task=6)
        with SupervisedRunner(make_generated("FitzHughNagumo"),
                              n_workers=3, fault_plan=plan,
                              config=SupervisionConfig(**FAST)) as sup:
            state = sup.make_state(37)
            sup.run(state, 41, 0.01)
            assert sup.tier == "supervised"
            restart, = [d for d in sup.diagnostics
                        if "restarted worker 1" in d.message]
        assert restart.data["step"] == 5
        assert compare_trajectories(expected, state, rtol=0, atol=0)

    def test_hung_step_caught_by_per_step_deadline(self, tmp_path):
        # until the hang every step takes >= 4 ms, so the 149 steps
        # before it outlast task_timeout=0.5 and must not trip it; then
        # one step of shard 0 hangs 5 s, and the per-step deadline
        # (restarted by progress) must catch it
        expected = run_single("LuoRudy91", 29, 201)
        config = SupervisionConfig(task_timeout=0.5)
        with SupervisedRunner(make_generated("LuoRudy91"), n_workers=2,
                              config=config) as sup:
            kernel, calls, hung = sup.kernel.fn, [0], tmp_path / "hung"

            def slow_then_hang_once(*args):
                if not hung.exists():
                    time.sleep(0.004)
                    if args[0] == 0:
                        calls[0] += 1   # counted per process (fork)
                        if calls[0] == 150:
                            hung.write_text(repr(time.monotonic()))
                            time.sleep(5.0)
                return kernel(*args)

            restarts, restart = [], sup._restart_worker

            def spy(slot, kind, reason, step, attempt):
                restarts.append((time.monotonic(), slot, reason, step))
                restart(slot, kind, reason, step, attempt)

            sup.kernel = dataclasses.replace(sup.kernel,
                                             fn=slow_then_hang_once)
            sup._restart_worker = spy
            state = sup.make_state(29)
            sup.run(state, 201, 0.01)
            assert sup.tier == "supervised"
        (detected, slot, reason, step), = restarts
        assert (slot, step) == (0, 149) and "task deadline" in reason
        assert detected - float(hung.read_text()) < 3.0
        assert compare_trajectories(expected, state, rtol=0, atol=0)


# ---------------------------------------------------------------------------
# Workers outlive run(): one fork per worker per state
# ---------------------------------------------------------------------------


def _pids(runner):
    return [proc.pid for proc in getattr(runner, "_procs", [])]


def _restarts(runner):
    return [d for d in runner.diagnostics if "restarted worker" in d.message]


def _twin(scenario, n_cells=29, **kwargs):
    """Run ``scenario(runner, state)`` inline and on two supervised
    workers, from equal fresh states; assert the final states are
    bitwise equal and return ``(inline out, supervised out, runner)``."""
    inline = KernelRunner(make_generated("LuoRudy91"))
    expected = inline.make_state(n_cells)
    inline_out = scenario(inline, expected)
    with SupervisedRunner(make_generated("LuoRudy91"), n_workers=2,
                          **kwargs) as sup:
        state = sup.make_state(n_cells)
        out = scenario(sup, state)
        assert sup.tier == "supervised"
    assert compare_trajectories(expected, state, rtol=0, atol=0)
    return inline_out, out, sup


@needs_mp
class TestPersistentWorkers:
    def test_runs_on_one_state_keep_the_workers(self):
        def scenario(runner, state):
            runner.run(state, 1, 0.01)
            forked = (_pids(runner), list(getattr(runner, "_spawns", [])))
            runner.run(state, 59, 0.01)
            return forked, (_pids(runner), list(getattr(runner, "_spawns",
                                                        [])))

        _, (forked, after), _ = _twin(scenario)
        assert len(forked[0]) == 2 and forked[1] == [1, 1]
        assert after == forked

    def test_another_state_forks_again(self):
        def scenario(runner, state):
            other = runner.make_state(29, perturbation=0.01)
            runner.run(state, 20, 0.01)
            first = _pids(runner)
            runner.run(other, 20, 0.01)
            second = _pids(runner)
            runner.run(state, 20, 0.01)
            return other, first, second, _pids(runner)

        (expected, *_), (other, first, second, third), _ = _twin(scenario)
        assert compare_trajectories(expected, other, rtol=0, atol=0)
        assert len(first) == len(second) == len(third) == 2
        assert not set(first) & set(second)
        assert not set(second) & set(third)

    def test_caller_writes_between_runs_are_seen(self):
        def scenario(runner, state):
            runner.run(state, 10, 0.01)
            checkpoint = state.checkpoint()
            runner.run(state, 10, 0.01)
            state.restore(checkpoint)
            runner.run(state, 10, 0.01)
            state.set_state(state.state_matrix() * 1.001)
            runner.run(state, 10, 0.01)
            state.externals["Vm"][:state.n_cells] += 1.5
            runner.run(state, 10, 0.01)
            return state.steps_done

        assert _twin(scenario)[:2] == (40, 40)

    def test_worker_killed_between_runs_is_restarted(self):
        def scenario(runner, state):
            runner.run(state, 10, 0.01)
            if isinstance(runner, SupervisedRunner):
                victim = runner._procs[0]
                os.kill(victim.pid, signal.SIGKILL)
                victim.join(timeout=5.0)
            runner.run(state, 10, 0.01)

        *_, sup = _twin(scenario, config=SupervisionConfig(**FAST))
        restart, = _restarts(sup)
        assert "restarted worker 0" in restart.message

    def test_fault_counts_steps_across_runs(self):
        # the first life spans both runs: its 12th step is the second
        # step of the second run
        def scenario(runner, state):
            runner.run(state, 10, 0.01)
            before = len(_restarts(runner))
            runner.run(state, 10, 0.01)
            return before

        plan = FaultPlan(kill_worker=0, kill_worker_at_task=12)
        _, before, sup = _twin(scenario, fault_plan=plan,
                               config=SupervisionConfig(**FAST))
        restart, = _restarts(sup)
        assert before == 0 and restart.data["step"] == 11

    def test_one_shard_state_gets_no_segment_and_no_process(self):
        def scenario(runner, state):
            seen = set()
            runner.run(state, 10, 0.01, step_hook=lambda s: seen.add((
                getattr(runner, "_state_shm", None), len(_pids(runner)),
                len(mp.active_children()))))
            return seen

        _, seen, _ = _twin(scenario, n_cells=8)
        assert seen == {(None, 0, 0)}


# ---------------------------------------------------------------------------
# Crash and stall recovery
# ---------------------------------------------------------------------------


@needs_mp
class TestCrashRecovery:
    def test_worker_kill_restarts_and_retries(self):
        plan = FaultPlan(kill_worker=1, kill_worker_at_task=2)
        with SupervisedRunner(make_generated("Plonsey"), n_workers=3,
                              fault_plan=plan,
                              config=SupervisionConfig(**FAST)) as sup:
            state = sup.make_state(24)
            result = sup.run(state, 30, 0.01)
            assert result.n_steps == 30
            assert sup.tier == "supervised"
            restarts = [d for d in sup.diagnostics
                        if "restarted worker 1" in d.message]
            assert len(restarts) == 1
            assert np.isfinite(state.sv).all()

    def test_worker_stall_detected_by_deadline(self):
        plan = FaultPlan(stall_worker=0, stall_worker_at_task=2,
                         stall_worker_seconds=30.0)
        with SupervisedRunner(make_generated("Plonsey"), n_workers=2,
                              fault_plan=plan,
                              config=SupervisionConfig(
                                  task_timeout=0.5)) as sup:
            state = sup.make_state(16)
            start = time.monotonic()
            sup.run(state, 20, 0.01)
            elapsed = time.monotonic() - start
            assert sup.tier == "supervised"
            assert any("restarted worker 0" in d.message
                       for d in sup.diagnostics)
            # detection is bounded by the per-step deadline, not the
            # 30 s the worker would have slept
            assert elapsed < 15.0

    @pytest.mark.parametrize("max_retries, restarts, degradations",
                             [(0, 0, 1), (1, 1, 0)])
    def test_one_kill_is_counted_once(self, max_retries, restarts,
                                      degradations):
        # a retry that max_retries forbids is no restart; the failure
        # itself is the Diagnostics' and the ledger's, not a counter's
        from repro.obs import metrics
        plan = FaultPlan(kill_worker=0, kill_worker_at_task=1)
        config = SupervisionConfig(max_retries=max_retries, **FAST)
        with SupervisedRunner(make_generated("LuoRudy91"), n_workers=2,
                              fault_plan=plan, config=config) as sup:
            sup.run(sup.make_state(24), 10, 0.01)
        snap = metrics.snapshot()
        expected = {"worker_restarts_total": restarts,
                    "degradations_total": degradations}
        for name, value in expected.items():
            assert snap[name]["value"] == value
        counted = {name: metric["value"] for name, metric in snap.items()
                   if metric["type"] == "counter" and metric["value"]}
        assert counted == {name: n for name, n in expected.items() if n}


# ---------------------------------------------------------------------------
# The degradation ladder
# ---------------------------------------------------------------------------


@needs_mp
class TestDegradationLadder:
    def _always_dying(self, **kwargs):
        plan = FaultPlan(kill_worker=0, kill_worker_at_task=1)
        config = SupervisionConfig(max_retries=0, **FAST)

        class KillEveryLife(SupervisedRunner):
            def _fault_for_slot(self, slot):
                spawns = self._spawns[slot]
                self._spawns[slot] = 0
                try:
                    return super()._fault_for_slot(slot)
                finally:
                    self._spawns[slot] = spawns

        return KillEveryLife(make_generated("FitzHughNagumo"),
                             n_workers=2, fault_plan=plan, config=config,
                             **kwargs)

    def test_degrades_to_single_and_completes(self):
        from repro.obs import metrics
        expected = run_single("FitzHughNagumo", 19, 60)
        with self._always_dying() as sup:
            state = sup.make_state(19)
            before = metrics.counter("degradations_total").value
            result = sup.run(state, 60, 0.01)
            assert sup.tier == "single"
            assert result.n_steps == 60
            assert [d.message.split(":")[0] for d in sup.diagnostics
                    if "degrading" in d.message] \
                == ["degrading supervised -> single"]
            assert metrics.counter("degradations_total").value \
                == before + 1
        # the single tier restarted from the initial checkpoint, so the
        # result is still bitwise identical to single-process
        assert compare_trajectories(expected, state, rtol=0, atol=0)

    def test_subsequent_runs_stay_on_degraded_tier(self):
        with self._always_dying() as sup:
            state = sup.make_state(19)
            sup.run(state, 10, 0.01)
            assert sup.tier == "single"
            sup.run(sup.make_state(19), 10, 0.01)
            assert sup.tier == "single"
            # no new degradation diagnostics from the second run
            degradations = [d for d in sup.diagnostics
                            if "degrading" in d.message]
            assert len(degradations) == 1

    def test_divergence_is_not_degraded(self):
        # a watchdog verdict is numerics, not infrastructure: it must
        # escape unchanged instead of burning a degradation
        from repro.resilience import WatchdogConfig
        with SupervisedRunner(make_generated("FitzHughNagumo"),
                              n_workers=2) as sup:
            state = sup.make_state(19)

            def always_poison(s):
                s.externals["Vm"][0] = np.nan

            with pytest.raises(NumericalDivergenceError):
                sup.run(state, 50, 0.01,
                        watchdog=WatchdogConfig(check_interval=5,
                                                max_retries=1),
                        step_hook=always_poison)
            assert sup.tier == "supervised"

    def test_watchdog_dt_halving_stays_bitwise(self):
        # adaptive dt under supervision: workers rebuild LUTs per
        # quantized dt, so recovery trajectories match single-process
        from repro.resilience import FaultInjector, WatchdogConfig
        def run(runner):
            inject = FaultInjector(FaultPlan(nan_at_step=30,
                                             nan_cells=(0, 2)))
            state = runner.make_state(21)
            result = runner.run(state, 100, 0.01,
                                watchdog=WatchdogConfig(check_interval=10),
                                step_hook=inject.step_hook)
            assert result.health.retries == 1
            return state

        expected = run(KernelRunner(make_generated("LuoRudy91")))
        with SupervisedRunner(make_generated("LuoRudy91"),
                              n_workers=3) as sup:
            got = run(sup)
            assert sup.tier == "supervised"
        assert compare_trajectories(expected, got, rtol=0, atol=0)

    def test_unsupported_platform_constructs_on_single_tier(self,
                                                            monkeypatch):
        import repro.runtime.supervised as supervised_mod
        monkeypatch.setattr(supervised_mod, "_shm_mod", None)
        sup = SupervisedRunner(make_generated("Plonsey"), n_workers=2)
        try:
            assert sup.tier == "single"
            state = sup.make_state(8)
            assert sup.run(state, 5, 0.01).n_steps == 5
        finally:
            sup.close()


# ---------------------------------------------------------------------------
# Lifecycle hygiene
# ---------------------------------------------------------------------------


@needs_mp
class TestLifecycle:
    def test_close_reaps_workers_and_segments(self):
        sup = SupervisedRunner(make_generated("Plonsey"), n_workers=2)
        state = sup.make_state(16)
        sup.run(state, 5, 0.01)
        sup.close()
        assert sup._procs == [] and sup._state_shm is None
        assert sup._progress_shm is None
        sup.close()                     # idempotent

    def test_close_all_runners_sweeps_registry(self):
        sup = SupervisedRunner(make_generated("Plonsey"), n_workers=2)
        close_all_runners()
        assert sup._procs == []

    def test_worker_runs_on_one_thread(self, tmp_path):
        # no heartbeat thread: the progress count the worker writes as
        # it steps is the only liveness signal
        with SupervisedRunner(make_generated("Plonsey"),
                              n_workers=2) as sup:
            kernel, seen = sup.kernel.fn, tmp_path / "threads"

            def count_threads(*args):
                if args[0] == 0:
                    seen.write_text(str(threading.active_count()))
                return kernel(*args)

            sup.kernel = dataclasses.replace(sup.kernel, fn=count_threads)
            state = sup.make_state(16)
            sup.run(state, 3, 0.01)
            assert sup.live_workers == 2
        assert seen.read_text() == "1"

    def test_metrics_registered_up_front(self):
        from repro.obs import metrics
        SupervisedRunner(make_generated("Plonsey"), n_workers=2).close()
        snap = metrics.snapshot()
        for name in ("worker_restarts_total", "degradations_total",
                     "supervised_workers"):
            assert name in snap


# ---------------------------------------------------------------------------
# Signal shutdown (subprocess: real SIGTERM against a live run)
# ---------------------------------------------------------------------------


_SIGNAL_SCRIPT = """
import os, sys, time
from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.runtime import SupervisedRunner, install_signal_handlers

install_signal_handlers()
sup = SupervisedRunner(generate_limpet_mlir(load_model("LuoRudy91")),
                       n_workers=2)
state = sup.make_state(64)


def tattle(s):
    # long enough for the parent to interrupt mid-run
    print("RUNNING", flush=True)
    time.sleep(0.002)


try:
    sup.run(state, 100000, 0.01, step_hook=tattle)
except SystemExit as err:
    print("EXIT", err.code, flush=True)
    raise
"""

#: a run whose workers are mid-segment (no step hook: after the first
#: step the rest is one segment) when the parent is told to stop
_MID_SEGMENT_SCRIPT = """
from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.runtime import SupervisedRunner, install_signal_handlers

install_signal_handlers()
sup = SupervisedRunner(generate_limpet_mlir(load_model("LuoRudy91")),
                       n_workers=2)
state = sup.make_state(64)
sup.run(state, 2, 0.01)                 # fork the workers
print("READY", flush=True)
sup.run(state, 10_000_000, 0.01)
"""

#: a worker forked under the CLI's signal policy, then terminated: the
#: parent's segment must outlive it (the worker resets SIGTERM)
_WORKER_TERM_SCRIPT = """
from multiprocessing.shared_memory import SharedMemory
from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.runtime import SupervisedRunner, install_signal_handlers

install_signal_handlers()
sup = SupervisedRunner(generate_limpet_mlir(load_model("Plonsey")),
                       n_workers=2)
state = sup.make_state(64)
sup.run(state, 2, 0.01)
worker = sup._procs[0]
worker.terminate()
worker.join(5)
print("WORKER EXIT", worker.exitcode, flush=True)
SharedMemory(name=sup._state_shm.name).close()
print("SEGMENT ATTACHED", flush=True)
sup.close()
"""


def _segments():
    return set(glob.glob("/dev/shm/psm_*"))


def _parent_of(pid):
    """The parent pid of a running (not zombie) process, else None."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None                     # gone
    return None if state == "Z" else int(ppid)


def _workers_of(pid):
    """The running children of ``pid`` but multiprocessing's resource
    tracker (an exec'd helper that exits once its clients are gone)."""
    kids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _parent_of(entry) == pid:
            try:
                with open(f"/proc/{entry}/cmdline", "rb") as fh:
                    if b"resource_tracker" not in fh.read():
                        kids.append(int(entry))
            except OSError:
                continue
    return kids


@needs_mp
class TestSignalShutdown:
    def test_terminated_worker_leaves_parent_segment(self, tmp_path):
        script = tmp_path / "worker_term.py"
        script.write_text(_WORKER_TERM_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p])
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert f"WORKER EXIT {-signal.SIGTERM}" in proc.stdout
        assert "SEGMENT ATTACHED" in proc.stdout

    def test_sigterm_terminates_cleanly(self, tmp_path):
        script = tmp_path / "victim.py"
        script.write_text(_SIGNAL_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p])
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                env=env)
        try:
            assert "RUNNING" in proc.stdout.readline()
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM
        assert "EXIT 143" in out
        # no orphaned worker output, no shared-memory leak warnings
        assert "leaked shared_memory" not in out

    def test_sigterm_mid_segment_exits_at_once(self, tmp_path):
        """A worker mid-segment reads no message until its segment
        ends, so shutdown terminates it instead of waiting on it."""
        script = tmp_path / "mid_segment.py"
        script.write_text(_MID_SEGMENT_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p])
        proc = subprocess.Popen([sys.executable, str(script)],
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                env=env)
        try:
            assert "READY" in proc.stdout.readline()
            time.sleep(0.3)             # well into the long segment
            sent = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            elapsed = time.monotonic() - sent
            out = proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM, out
        assert elapsed < 0.5, f"{elapsed:.3f}s from SIGTERM to exit"

    @pytest.mark.skipif(not (os.path.isdir("/dev/shm")
                             and os.path.isdir("/proc")),
                        reason="needs /dev/shm and /proc")
    def test_traced_cli_sigterm_writes_one_interrupted_run(self, tmp_path):
        """SIGTERM a traced ``limpet-bench run --workers 2`` mid-run:
        exit 143, one trace file holding one ``run`` span marked
        ``interrupted``, and no segment or worker outlives it."""
        env = dict(os.environ, LIMPET_TRACE=str(tmp_path / "trace"))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(p) for p in sys.path if p])
        (tmp_path / "trace").mkdir()
        before = _segments()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "run", "LuoRudy91",
             "--workers", "2", "--cells", "64", "--steps", "10000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60
            while proc.poll() is None and time.monotonic() < deadline:
                workers = _workers_of(proc.pid)
                if len(workers) == 2 and _segments() - before:
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 128 + signal.SIGTERM, err
        assert len(workers) == 2
        traces = list((tmp_path / "trace").iterdir())
        assert len(traces) == 1
        events = json.loads(traces[0].read_text())["traceEvents"]
        runs = [e for e in events if e.get("name") == "run"]
        assert len(runs) == 1
        assert runs[0]["args"]["interrupted"] is True
        assert not _segments() - before
        assert [pid for pid in workers if _parent_of(pid)] == []
