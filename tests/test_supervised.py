"""Supervised multiprocess tier: bitwise differential, crash/stall
recovery, the degradation ladder, lifecycle hygiene, signal shutdown."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.codegen import generate_limpet_mlir
from repro.models import load_model
from repro.resilience import FaultPlan, NumericalDivergenceError
from repro.runtime import (KernelRunner, SupervisedExecutionError,
                           SupervisedRunner, SupervisionConfig,
                           close_all_runners, compare_trajectories,
                           multiprocess_supported)
from repro.runtime.shutdown import (register_cleanup, run_cleanups,
                                    unregister_cleanup)

needs_mp = pytest.mark.skipif(not multiprocess_supported(),
                              reason="platform lacks fork/shared_memory")

#: the differential matrix: a trivial model, a LUT model, a stiff LUT
#: model — with ragged cell counts that exercise the width remainder
DIFF_CASES = [("Plonsey", 13), ("FitzHughNagumo", 37), ("LuoRudy91", 29)]

#: fast supervision settings for tests that provoke stalls
FAST = dict(heartbeat_interval=0.02, heartbeat_timeout=0.3,
            task_timeout=2.0, retry_backoff=0.01)


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
        assert config.heartbeat_timeout > config.heartbeat_interval

    @pytest.mark.parametrize("kwargs", [
        {"heartbeat_interval": 0.0},
        {"heartbeat_interval": 1.0, "heartbeat_timeout": 0.5},
        {"task_timeout": 0.0},
        {"max_retries": -1},
        {"retry_backoff": -0.1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
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

    def test_state_arrays_restored_after_run(self):
        # the run moves state into shared memory; afterwards the state
        # must be rebound to ordinary heap arrays and the segment gone
        with SupervisedRunner(make_generated("Plonsey"),
                              n_workers=2) as sup:
            state = sup.make_state(16)
            sv_before = state.sv
            sup.run(state, 10, 0.01)
            assert sup._state_shm is None
            assert state.sv is sv_before


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

    def test_worker_stall_detected_by_heartbeat(self):
        plan = FaultPlan(stall_worker=0, stall_worker_at_task=2,
                         stall_worker_seconds=30.0)
        with SupervisedRunner(make_generated("Plonsey"), n_workers=2,
                              fault_plan=plan,
                              config=SupervisionConfig(**FAST)) as sup:
            state = sup.make_state(16)
            start = time.monotonic()
            sup.run(state, 20, 0.01)
            elapsed = time.monotonic() - start
            assert sup.tier == "supervised"
            assert any("restarted worker 0" in d.message
                       for d in sup.diagnostics)
            # detection is bounded by the heartbeat timeout, not the
            # 30 s the worker would have slept
            assert elapsed < 15.0

    def test_retries_exhausted_raises_when_degradation_off(self):
        plan = FaultPlan(kill_worker=0, kill_worker_at_task=1)
        config = SupervisionConfig(max_retries=0, degrade=False, **FAST)

        class KillEveryLife(SupervisedRunner):
            # re-arm the fault on every spawn so the retry also dies
            def _fault_for_slot(self, slot):
                spawns = self._spawns[slot]
                self._spawns[slot] = 0
                try:
                    return super()._fault_for_slot(slot)
                finally:
                    self._spawns[slot] = spawns

        with KillEveryLife(make_generated("Plonsey"), n_workers=2,
                           fault_plan=plan, config=config) as sup:
            state = sup.make_state(16)
            with pytest.raises(SupervisedExecutionError) as excinfo:
                sup.run(state, 10, 0.01)
            assert excinfo.value.slot == 0
            assert excinfo.value.attempts == 1


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
# Construction refusals inherited from the shard plan
# ---------------------------------------------------------------------------


class TestConstructionRefusals:
    def test_soa_refused_for_multiple_workers(self):
        generated = generate_limpet_mlir(load_model("Plonsey"),
                                         layout="soa")
        with pytest.raises(ValueError, match="SoA"):
            SupervisedRunner(generated, n_workers=2)

    def test_soa_allowed_for_one_worker(self):
        generated = generate_limpet_mlir(load_model("Plonsey"),
                                         layout="soa")
        sup = SupervisedRunner(generated, n_workers=1)
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
        assert sup._hb_shm is None
        sup.close()                     # idempotent

    def test_close_all_runners_sweeps_registry(self):
        sup = SupervisedRunner(make_generated("Plonsey"), n_workers=2)
        close_all_runners()
        assert sup._procs == []

    def test_cleanup_registry_runs_lifo_once(self):
        calls = []
        register_cleanup(lambda: calls.append("a"), "test-a")
        register_cleanup(lambda: calls.append("b"), "test-b")
        try:
            run_cleanups()
            assert calls == ["b", "a"]
            run_cleanups()              # registrations survive, idempotent
            assert calls == ["b", "a", "b", "a"]
        finally:
            unregister_cleanup("test-a")
            unregister_cleanup("test-b")

    def test_metrics_registered_up_front(self):
        from repro.obs import metrics
        SupervisedRunner(make_generated("Plonsey"), n_workers=2).close()
        snap = metrics.snapshot()
        for name in ("worker_restarts_total", "shard_retries_total",
                     "degradations_total", "supervised_workers"):
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


@needs_mp
class TestSignalShutdown:
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
