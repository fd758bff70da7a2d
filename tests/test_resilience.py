"""Tests for the resilience layer: fallback chain, sandboxed passes,
numerical watchdog, fault injection — plus the executor fixes that ride
along (NaN-strict trajectory comparison, vm_trace, LUT cache bounds)."""

import numpy as np
import pytest

from repro.codegen import UnsupportedModelError, generate_limpet_mlir
from repro.frontend import load_model as load_model_source
from repro.models import UNSUPPORTED_MODELS, all_model_files
from repro.resilience import (DEFAULT_CHAIN, Diagnostic, FaultInjector,
                              FaultPlan, InjectedFault,
                              NumericalDivergenceError, NumericalWatchdog,
                              ResilientCompileError, Severity,
                              WatchdogConfig, compile_resilient,
                              format_trail, load_reproducer, poison_state,
                              sandboxed_pipeline)
from repro.runtime import KernelRunner, compare_trajectories
from repro.ir import verify_module

#: a model with no Vm external at all (pure relaxation ODE)
NO_VM_SOURCE = """
x_init = 0.5;
diff_x = -0.1*x;
"""


@pytest.fixture
def runner(gate_model):
    return KernelRunner(generate_limpet_mlir(gate_model, 8))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_round_trip(self):
        diag = Diagnostic.from_exception(
            "compile", "limpet_mlir", ValueError("boom"), tier=1)
        clone = Diagnostic.from_dict(diag.to_dict())
        assert clone.message == "boom"
        assert clone.error_type == "ValueError"
        assert clone.data["tier"] == 1
        assert clone.severity is Severity.WARNING

    def test_describe_and_trail(self):
        diag = Diagnostic("pass", "cse", "quarantined",
                          severity=Severity.ERROR)
        assert "error" in diag.describe() and "pass/cse" in diag.describe()
        assert "quarantined" in format_trail([diag])
        assert format_trail([]) == "(no diagnostics)"


# ---------------------------------------------------------------------------
# Backend fallback chain
# ---------------------------------------------------------------------------


class TestFallbackChain:
    @pytest.mark.parametrize("name", UNSUPPORTED_MODELS)
    def test_foreign_models_fall_back_to_baseline(self, name):
        compiled = compile_resilient(name)
        assert compiled.backend == "baseline"
        assert compiled.fell_back
        skipped = [d for d in compiled.diagnostics
                   if d.error_type == "UnsupportedModelError"]
        assert {d.component for d in skipped} == {"limpet_mlir", "icc_simd"}
        # the fallback kernel actually runs
        result = compiled.runner.simulate(4, 5)
        assert np.isfinite(result.state.sv).all()

    def test_supported_model_does_not_fall_back(self, gate_model):
        compiled = compile_resilient(gate_model)
        assert compiled.backend == "limpet_mlir"
        assert not compiled.fell_back
        info = [d for d in compiled.diagnostics
                if d.severity is Severity.INFO]
        assert info and "limpet_mlir" in info[-1].message

    def test_strict_mode_fails_fast(self):
        with pytest.raises(UnsupportedModelError):
            compile_resilient("ARPF", strict=True)

    def test_all_tiers_failing_raises_with_trail(self, gate_model):
        inject = FaultInjector(FaultPlan(fail_backends=DEFAULT_CHAIN))
        with pytest.raises(ResilientCompileError) as excinfo:
            compile_resilient(gate_model, inject=inject)
        diags = excinfo.value.diagnostics
        assert {d.component for d in diags} == set(DEFAULT_CHAIN)
        assert all(d.error_type == "InjectedFault" for d in diags)

    def test_partial_chain_respected(self, gate_model):
        compiled = compile_resilient(gate_model, chain=("baseline",))
        assert compiled.backend == "baseline"
        assert not compiled.fell_back      # baseline was the request

    def test_bad_chain_rejected(self, gate_model):
        with pytest.raises(ValueError):
            compile_resilient(gate_model, chain=())
        with pytest.raises(ResilientCompileError):
            compile_resilient(gate_model, chain=("no_such_backend",))


# ---------------------------------------------------------------------------
# Sandboxed pass manager
# ---------------------------------------------------------------------------


class TestSandbox:
    def test_pass_exception_quarantines_and_rolls_back(self, gate_model,
                                                       tmp_path):
        inject = FaultInjector(FaultPlan(fail_pass="cse"))
        compiled = compile_resilient(gate_model, inject=inject,
                                     reproducer_dir=tmp_path)
        sandbox = compiled.sandbox
        assert sandbox.quarantined == {"cse"}
        verify_module(compiled.kernel.module)
        # quarantined pass ran exactly once (skipped every later round)
        assert sandbox.statistics["cse"].runs == 1
        assert sandbox.statistics["cse"].changed == 0

    def test_reproducer_bundle_round_trips(self, gate_model, tmp_path):
        inject = FaultInjector(FaultPlan(fail_pass="licm"))
        compiled = compile_resilient(gate_model, inject=inject,
                                     reproducer_dir=tmp_path)
        [bundle] = compiled.sandbox.reproducers
        assert (bundle / "module.ir").exists()
        assert (bundle / "traceback.txt").exists()
        module, meta = load_reproducer(bundle)
        assert meta["pass"] == "licm"
        assert meta["error_type"] == "InjectedFault"
        verify_module(module)              # pre-pass IR is valid IR
        assert "InjectedFault" in (bundle / "traceback.txt").read_text()

    def test_ir_corruption_caught_by_verifier(self, gate_model, tmp_path):
        inject = FaultInjector(FaultPlan(corrupt_after_pass="canonicalize"))
        compiled = compile_resilient(gate_model, inject=inject,
                                     reproducer_dir=tmp_path)
        assert "canonicalize" in compiled.sandbox.quarantined
        verify_module(compiled.kernel.module)
        verify_diags = [d for d in compiled.diagnostics
                        if d.stage == "verify"]
        assert verify_diags and \
            verify_diags[0].error_type == "VerificationError"

    def test_quarantined_kernel_matches_clean_kernel(self, gate_model,
                                                     tmp_path):
        inject = FaultInjector(FaultPlan(fail_pass="cse"))
        faulty = compile_resilient(gate_model, inject=inject,
                                   reproducer_dir=tmp_path)
        clean = compile_resilient(gate_model)
        r1 = faulty.runner.simulate(16, 40, perturbation=0.01)
        r2 = clean.runner.simulate(16, 40, perturbation=0.01)
        assert compare_trajectories(r1.state, r2.state)

    def test_sandbox_without_reproducer_dir(self, gate_model):
        inject = FaultInjector(FaultPlan(fail_pass="dce"))
        compiled = compile_resilient(gate_model, inject=inject)
        assert compiled.sandbox.quarantined == {"dce"}
        assert compiled.sandbox.reproducers == []

    def test_sandboxed_pipeline_optimizes_like_default(self, gate_model):
        kernel_a = generate_limpet_mlir(gate_model, 8)
        kernel_b = generate_limpet_mlir(gate_model, 8)
        from repro.ir.passes import default_pipeline
        from repro.ir import print_module
        sandboxed_pipeline().run(kernel_a.module, fixed_point=True)
        default_pipeline(verify_each=False).run(kernel_b.module,
                                                fixed_point=True)
        assert print_module(kernel_a.module) == print_module(kernel_b.module)

    def test_every_invocation_is_verified(self, monkeypatch):
        # one verify after every pass invocation, a no-change one included,
        # plus the resolve's final one: cheaper verifies, never fewer
        from repro.resilience import sandbox
        from repro.runtime import resolve
        calls = []

        def counting(module, *args, **kwargs):
            calls.append(module)
            return verify_module(module, *args, **kwargs)

        monkeypatch.setattr(sandbox, "verify_module", counting)
        monkeypatch.setattr(resolve, "verify_module", counting)
        for name in all_model_files():
            calls.clear()
            compiled = compile_resilient(name, artifacts=False)
            invocations = sum(s.runs for s in
                              compiled.sandbox.statistics.values())
            assert len(calls) == invocations + 1 == 9, name


# ---------------------------------------------------------------------------
# Numerical watchdog
# ---------------------------------------------------------------------------


class TestWatchdog:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(policy="explode")
        with pytest.raises(ValueError):
            WatchdogConfig(check_interval=0)
        with pytest.raises(ValueError):
            WatchdogConfig(dt_factor=1.5)
        with pytest.raises(ValueError):
            WatchdogConfig(max_retries=-1)
        with pytest.raises(ValueError):
            WatchdogConfig(min_dt=0.0)

    def test_clean_guarded_run_matches_unguarded(self, runner):
        r1 = runner.simulate(8, 60, perturbation=0.01)
        r2 = runner.simulate(8, 60, perturbation=0.01,
                             watchdog=WatchdogConfig())
        assert compare_trajectories(r1.state, r2.state, rtol=0, atol=0)
        assert r2.health.ok and r2.health.retries == 0

    def test_halve_dt_recovers_from_injected_nan(self, runner):
        inject = FaultInjector(FaultPlan(nan_at_step=30, nan_cells=(0, 2)))
        state = runner.make_state(8)
        result = runner.run(state, 100, 0.01,
                            watchdog=WatchdogConfig(check_interval=10),
                            step_hook=inject.step_hook)
        health = result.health
        assert health.ok
        assert health.retries == 1
        assert health.nan_events == 1
        assert health.final_dt == pytest.approx(0.005)
        assert np.isfinite(state.sv).all()
        assert health.events[0].action == "rolled_back"

    def test_backoff_is_bounded(self, runner):
        state = runner.make_state(8)

        def always_poison(s):            # NaN returns after every rollback
            s.externals["Vm"][0] = np.nan

        config = WatchdogConfig(check_interval=5, max_retries=2)
        with pytest.raises(NumericalDivergenceError) as excinfo:
            runner.run(state, 50, 0.01, watchdog=config,
                       step_hook=always_poison)
        assert excinfo.value.report.retries == 2

    def test_min_dt_floor(self, runner):
        state = runner.make_state(8)

        def always_poison(s):
            s.externals["Vm"][0] = np.nan

        config = WatchdogConfig(check_interval=5, max_retries=50,
                                min_dt=0.004)
        with pytest.raises(NumericalDivergenceError) as excinfo:
            runner.run(state, 50, 0.01, watchdog=config,
                       step_hook=always_poison)
        # 0.01 -> 0.005 allowed, 0.0025 < min_dt stops the backoff
        assert excinfo.value.report.retries == 1

    def test_raise_policy(self, runner):
        inject = FaultInjector(FaultPlan(nan_at_step=10))
        state = runner.make_state(8)
        with pytest.raises(NumericalDivergenceError) as excinfo:
            runner.run(state, 100, 0.01,
                       watchdog=WatchdogConfig(policy="raise",
                                               check_interval=5),
                       step_hook=inject.step_hook)
        assert excinfo.value.report.nan_events == 1

    def test_abort_cell_report(self, runner):
        inject = FaultInjector(FaultPlan(nan_at_step=10, nan_cells=(3,),
                                         nan_array="Vm"))
        state = runner.make_state(8)
        result = runner.run(
            state, 100, 0.01,
            watchdog=WatchdogConfig(policy="abort_cell_report",
                                    check_interval=5),
            step_hook=inject.step_hook)
        health = result.health
        assert health.aborted and not health.ok
        assert health.diverged_cells == [3]
        # the state was rolled back to the last healthy checkpoint
        assert np.isfinite(state.sv).all()
        assert np.isfinite(state.externals["Vm"][:state.n_cells]).all()

    def test_scan_names_bad_arrays(self, runner):
        guard = NumericalWatchdog()
        state = runner.make_state(4)
        assert guard.scan(state) == []
        poison_state(state, cells=(1,), array="Iion")
        assert guard.scan(state) == ["Iion"]
        poison_state(state, cells=(0,), array="sv", value=np.inf)
        assert "sv" in guard.scan(state)

    def test_health_report_serializes(self, runner):
        result = runner.simulate(4, 20, watchdog=WatchdogConfig())
        payload = result.health.to_dict()
        assert payload["policy"] == "halve_dt"
        assert payload["checks"] >= 1
        assert "summary" not in payload    # summary is derived, not data
        assert "ok" in result.health.summary()

    def test_vm_trace_trimmed_on_rollback(self, runner):
        inject = FaultInjector(FaultPlan(nan_at_step=30))
        state = runner.make_state(8)
        result = runner.run(state, 60, 0.01, record_vm=True,
                            watchdog=WatchdogConfig(check_interval=10),
                            step_hook=inject.step_hook)
        assert result.health.retries >= 1
        # trace only contains the surviving (committed) steps
        assert np.isfinite(result.vm_trace).all()


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


class TestFaultInjection:
    def test_backend_failure_is_deterministic(self):
        inject = FaultInjector(FaultPlan(fail_backends=("limpet_mlir",)))
        with pytest.raises(InjectedFault):
            inject.maybe_fail_backend("limpet_mlir")
        inject.maybe_fail_backend("baseline")   # not in the plan: no-op

    def test_nan_fires_exactly_once(self, runner):
        plan = FaultPlan(nan_at_step=5, nan_cells=(0,))
        inject = FaultInjector(plan)
        state = runner.make_state(4)
        for _ in range(10):
            inject.step_hook(state)
        assert inject.fired
        matrix = state.state_matrix()
        assert np.isnan(matrix[0]).all()
        assert np.isfinite(matrix[1:]).all()

    def test_pass_proxy_fires_on_nth_invocation(self, gate_model):
        inject = FaultInjector(FaultPlan(fail_pass="cse", fail_pass_at=2))
        pipeline = inject.wrap_pipeline(sandboxed_pipeline())
        module = generate_limpet_mlir(gate_model, 8).module
        pipeline.run(module, fixed_point=True)
        assert pipeline.quarantined == {"cse"}
        assert pipeline.statistics["cse"].runs == 2


# ---------------------------------------------------------------------------
# Executor fixes riding along (satellites)
# ---------------------------------------------------------------------------


class TestCompareTrajectoriesNaN:
    def test_two_nan_runs_do_not_agree(self, runner):
        s1 = runner.simulate(4, 10).state
        s2 = runner.simulate(4, 10).state
        s1.externals["Vm"][0] = np.nan
        s2.externals["Vm"][0] = np.nan
        comparison = compare_trajectories(s1, s2)
        assert not comparison
        assert comparison.nan_keys == ["Vm"]
        assert "Vm" in comparison.mismatches

    def test_inf_counts_as_divergence(self, runner):
        s1 = runner.simulate(4, 10).state
        s2 = runner.simulate(4, 10).state
        s1.externals["Iion"][1] = np.inf
        s2.externals["Iion"][1] = np.inf
        assert not compare_trajectories(s1, s2)

    def test_reports_which_keys_disagree(self, runner):
        s1 = runner.simulate(4, 10).state
        s2 = runner.simulate(4, 10).state
        s2.externals["Vm"][0] += 1.0
        comparison = compare_trajectories(s1, s2)
        assert not comparison
        assert comparison.mismatches == ["Vm"]
        assert "Vm" in comparison.describe()

    def test_equivalent_is_truthy_with_empty_mismatches(self, runner):
        s1 = runner.simulate(4, 10).state
        s2 = runner.simulate(4, 10).state
        comparison = compare_trajectories(s1, s2)
        assert comparison and comparison.mismatches == []


class TestVmTraceRegression:
    def test_no_vm_external_returns_none(self):
        model = load_model_source(NO_VM_SOURCE, "NoVm")
        runner = KernelRunner(generate_limpet_mlir(model, 8))
        result = runner.simulate(4, 10, record_vm=True)
        assert result.vm_trace is None     # never uninitialized memory

    def test_with_vm_trace_is_filled(self, runner):
        result = runner.simulate(4, 10, record_vm=True)
        assert result.vm_trace is not None
        assert result.vm_trace.shape == (10,)
        assert np.isfinite(result.vm_trace).all()


class TestLUTCache:
    def test_float_noise_dt_shares_entry(self, runner):
        a = runner.luts_for(0.01)
        b = runner.luts_for(0.01 + 1e-16)
        assert a is b                       # quantized key, no rebuild
        assert len(runner._lut_cache) == 1

    def test_cache_is_bounded(self, runner):
        from repro.runtime.executor import _LUT_CACHE_MAX
        dt = 0.01
        for _ in range(3 * _LUT_CACHE_MAX):
            runner.luts_for(dt)
            dt *= 0.5                       # watchdog-style halving
        assert len(runner._lut_cache) <= _LUT_CACHE_MAX

    def test_lru_keeps_most_recent(self, runner):
        from repro.runtime.executor import _LUT_CACHE_MAX
        dts = [0.01 * (0.5 ** i) for i in range(_LUT_CACHE_MAX + 2)]
        for dt in dts:
            runner.luts_for(dt)
        recent = runner.luts_for(dts[-1])
        assert runner.luts_for(dts[-1]) is recent


# ---------------------------------------------------------------------------
# Resilient sweep (bench integration)
# ---------------------------------------------------------------------------


class TestResilientSweep:
    def test_sweep_survives_injected_faults(self, tmp_path):
        from repro.bench import format_sweep_table, resilient_sweep
        names = ["Plonsey", "FitzHughNagumo", "ARPF"]

        def factory(name):
            return FaultInjector(FaultPlan(
                fail_backends=("limpet_mlir",) if name == "Plonsey" else (),
                nan_at_step=20 if name == "FitzHughNagumo" else None))

        records = resilient_sweep(
            names, n_cells=8, n_steps=30,
            watchdog=WatchdogConfig(check_interval=10),
            reproducer_dir=tmp_path, inject_factory=factory)
        assert [r.model for r in records] == names
        assert all(r.ok for r in records)
        by_name = {r.model: r for r in records}
        assert by_name["Plonsey"].backend == "icc_simd"
        assert by_name["Plonsey"].fell_back
        assert by_name["FitzHughNagumo"].health.retries >= 1
        assert by_name["ARPF"].backend == "baseline"
        table = format_sweep_table(records)
        assert "3/3 models completed" in table

    def test_sweep_records_total_compile_failure(self):
        from repro.bench import resilient_sweep
        from repro.resilience import DEFAULT_CHAIN

        def factory(name):
            return FaultInjector(FaultPlan(fail_backends=DEFAULT_CHAIN))

        [record] = resilient_sweep(["Plonsey"], n_cells=4, n_steps=5,
                                   inject_factory=factory)
        assert not record.ok
        assert record.backend is None
        assert record.status == "FAILED"
        assert any(d.error_type == "InjectedFault"
                   for d in record.diagnostics)
