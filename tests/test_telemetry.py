"""Fleet-wide telemetry (DESIGN.md §13): cross-process trace
propagation, the run ledger and the perf-regression gate.

The acceptance drill at the bottom is the headline scenario: a
supervised run with an injected worker kill must still produce ONE
merged Chrome trace holding the dead worker's partial spans next to
the parent's, and a ledger that records the restart and the run — all
sharing one trace id.  Each failure is written down once, to records
that are kept: nothing lands under ``$HOME`` uninvited.
"""

from __future__ import annotations

import json

import pytest

from repro.codegen import generate_limpet_mlir
from repro.obs import ledger, trace
from repro.obs.trace import Tracer


# ---------------------------------------------------------------------------
# TraceContext propagation
# ---------------------------------------------------------------------------

class TestTraceContext:
    def test_child_tracer_adopts_identity_and_timebase(self):
        parent = Tracer()
        with parent.span("parent_work"):
            ctx = parent.context()
        child = Tracer(context=ctx, process_name="test-child")
        assert child.trace_id == parent.trace_id
        with child.span("child_work"):
            pass
        events = child.to_chrome()["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        # same monotonic origin: the child's span starts after the
        # parent's (no timestamp shifting needed when merging)
        parent_spans = [e for e in parent.to_chrome()["traceEvents"]
                        if e["ph"] == "X"]
        assert spans[0]["ts"] > parent_spans[0]["ts"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "test-child"

    def test_foreign_events_merge_into_parent_trace(self):
        parent = Tracer()
        child = Tracer(context=parent.context())
        with child.span("shard_task", slot=0):
            pass
        drained = child.drain_events()
        assert drained, "child should drain its finished spans"
        parent.add_foreign_events(drained)
        events = parent.to_chrome()["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert "shard_task" in names
        # repeated drains must not duplicate spans
        assert child.drain_events() == []


# ---------------------------------------------------------------------------
# Run ledger
# ---------------------------------------------------------------------------

class TestRunLedger:
    def test_record_read_filter_summary(self, tmp_path):
        book = ledger.RunLedger(tmp_path / "ledger.jsonl")
        book.record("run", model="A", tier="single",
                    steps_per_second=1000.0, disposition="ok")
        book.record("run", model="B", tier="threads",
                    steps_per_second=2000.0, disposition="ok")
        book.record("degradation", model="B", tier="threads",
                    disposition="degraded")
        rows = book.read()
        assert len(rows) == 3
        assert all(r["format"] == ledger.FORMAT for r in rows)
        assert [r["model"] for r in book.read(model="B",
                                              event="run")] == ["B"]
        assert len(book.read(tail=1)) == 1
        info = book.summary()["B"]
        assert info["dispositions"] == {"ok": 1, "degraded": 1}
        assert info["best_steps_per_second"] == 2000.0

    def test_corrupt_lines_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        book = ledger.RunLedger(path)
        book.record("run", model="A")
        with open(path, "a") as fh:
            fh.write("NOT JSON\n[1,2]\n")
        book.record("run", model="A")
        assert len(book.read()) == 2

    def test_env_gated_off_by_default(self, tmp_path):
        # conftest clears $LIMPET_LEDGER: record_event is a no-op
        assert ledger.default_ledger() is None
        ledger.record_event("run", model="X")   # must not raise

    def test_kernel_runner_writes_run_row(self, tmp_path, monkeypatch,
                                          luo_rudy):
        from repro.runtime import KernelRunner
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv(ledger.LEDGER_ENV, str(path))
        runner = KernelRunner(generate_limpet_mlir(luo_rudy))
        runner.run(runner.make_state(16), 5, 0.01)
        rows = ledger.RunLedger(path).read(event="run")
        assert rows, "KernelRunner.run must append a ledger row"
        row = rows[-1]
        assert row["model"] == "LuoRudy91"
        assert row["tier"] == "single"
        assert row["disposition"] == "ok"
        assert row["steps_per_second"] > 0
        assert row["cache"] in ("hit", "miss", "off", "artifact")

    def test_error_run_writes_error_row(self, tmp_path, monkeypatch,
                                        luo_rudy):
        from repro.runtime import KernelRunner
        path = tmp_path / "ledger.jsonl"
        monkeypatch.setenv(ledger.LEDGER_ENV, str(path))
        runner = KernelRunner(generate_limpet_mlir(luo_rudy))
        state = runner.make_state(16)

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic kernel failure")
        monkeypatch.setattr(runner, "_run", boom)
        with pytest.raises(RuntimeError):
            runner.run(state, 5, 0.01)
        rows = ledger.RunLedger(path).read(event="run")
        assert rows and rows[-1]["disposition"] == "error:RuntimeError"


# ---------------------------------------------------------------------------
# The acceptance drill: kill a worker, keep the telemetry
# ---------------------------------------------------------------------------

needs_fork = pytest.mark.skipif(
    not __import__("repro.runtime",
                   fromlist=["multiprocess_supported"]
                   ).multiprocess_supported(),
    reason="supervised tier needs the fork start method")


@needs_fork
class TestSupervisedTelemetry:
    def test_worker_kill_keeps_trace_flight_and_ledger(
            self, tmp_path, monkeypatch, luo_rudy):
        from repro.resilience import FaultPlan
        from repro.runtime import SupervisedRunner, SupervisionConfig
        monkeypatch.setenv(ledger.LEDGER_ENV,
                           str(tmp_path / "ledger.jsonl"))
        tracer = Tracer(process_name="test-parent")
        previous = trace.activate(tracer)
        try:
            plan = FaultPlan(kill_worker=0, kill_worker_at_task=2)
            runner = SupervisedRunner(
                generate_limpet_mlir(luo_rudy), n_workers=2,
                fault_plan=plan,
                config=SupervisionConfig(task_timeout=10.0))
            try:
                state = runner.make_state(24)
                runner.run(state, 30, 0.01)
                assert runner.active_tier == "supervised"
            finally:
                runner.close()
        finally:
            trace.deactivate(previous)

        events = tracer.to_chrome()["traceEvents"]
        span_events = [e for e in events if e["ph"] == "X"]
        pids = {e["pid"] for e in span_events}
        # parent + first worker pair + the respawned worker
        assert len(pids) >= 3
        shard_tasks = [e for e in span_events
                       if e["name"] == "shard_task"]
        # a task is a run segment: its steps arg says how many it ran
        assert sum(e["args"]["steps"] for e in shard_tasks) >= 2 * 30
        respawns = [e for e in events
                    if e["ph"] == "i" and e["name"] == "worker_respawn"]
        assert len(respawns) == 1
        # every event is schema-valid enough for chrome://tracing
        for e in span_events:
            assert e["dur"] >= 0
            assert isinstance(e["ts"], (int, float))

        # one ledger row records the restart, under the run's trace id;
        # a SIGKILLed worker surfaces as EOF on its pipe or as a dead
        # process, depending on which the parent notices first
        book = ledger.RunLedger(tmp_path / "ledger.jsonl")
        [restart] = book.read(event="worker_restart")
        assert (restart["slot"], restart["attempt"]) == (0, 1)
        assert restart["kind"] in ("died", "pipe_closed")
        assert restart["trace_id"] == tracer.trace_id

        # and the ledger recorded the run on the supervised tier
        rows = book.read(event="run")
        assert rows and rows[-1]["tier"] == "supervised"
        assert rows[-1]["disposition"] == "ok"

    def test_degradation_writes_ledger_row_and_flight_dump(
            self, tmp_path, monkeypatch, luo_rudy):
        from repro.resilience import FaultPlan
        from repro.runtime import SupervisedRunner, SupervisionConfig
        monkeypatch.setenv(ledger.LEDGER_ENV,
                           str(tmp_path / "ledger.jsonl"))
        plan = FaultPlan(kill_worker=0, kill_worker_at_task=1)
        runner = SupervisedRunner(
            generate_limpet_mlir(luo_rudy), n_workers=2,
            fault_plan=plan,
            config=SupervisionConfig(max_retries=0, task_timeout=5.0))
        try:
            state = runner.make_state(24)
            runner.run(state, 10, 0.01)
            assert runner.active_tier == "single"
        finally:
            runner.close()
        # supervision gave up on shard 0 after one attempt at step 0;
        # the SupervisedExecutionError that said so never escapes run,
        # so its fields must land on both records
        where = {"slot": 0, "attempts": 1, "step": 0}
        [diag] = [d for d in runner.diagnostics
                  if "degrading" in d.message]
        assert diag.error_type == "SupervisedExecutionError"
        assert {k: diag.data[k] for k in where} == where
        rows = ledger.RunLedger(
            tmp_path / "ledger.jsonl").read(event="degradation")
        assert len(rows) == 1, "one degradation, one ledger row"
        row = rows[-1]
        assert (row["from_tier"], row["tier"]) == ("supervised", "single")
        assert row["disposition"] == "degraded"
        assert {k: row[k] for k in where} == where

    def test_traced_degradation_instant_says_where(self, luo_rudy):
        """The degradation's trace instant carries the Diagnostic's
        data, so a traced run says which shard gave up at which step."""
        from repro.resilience import FaultPlan
        from repro.runtime import SupervisedRunner, SupervisionConfig
        tracer = Tracer()
        previous = trace.activate(tracer)
        try:
            runner = SupervisedRunner(
                generate_limpet_mlir(luo_rudy), n_workers=2,
                fault_plan=FaultPlan(kill_worker=0, kill_worker_at_task=1),
                config=SupervisionConfig(max_retries=0, task_timeout=5.0))
            try:
                runner.run(runner.make_state(24), 10, 0.01)
                assert runner.active_tier == "single"
            finally:
                runner.close()
        finally:
            trace.deactivate(previous)
        [mark] = [e for e in tracer.to_chrome()["traceEvents"]
                  if e["ph"] == "i"
                  and e["name"] == "diagnostic:run/supervised"
                  and "degrading" in e["args"]["message"]]
        where = {"slot": 0, "step": 0, "attempts": 1}
        assert {k: mark["args"][k] for k in where} == where

    def test_failures_write_nothing_under_home(self, tmp_path, monkeypatch,
                                               luo_rudy):
        """A quarantining compile with no reproducer dir and a worker
        kill each leave their record in kept places (Diagnostics, the
        env-gated ledger): nothing is written under ``$HOME``."""
        from repro.resilience import (FaultInjector, FaultPlan,
                                      compile_resilient)
        from repro.runtime import SupervisedRunner, SupervisionConfig
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("LIMPET_FLIGHT_DIR", raising=False)
        compiled = compile_resilient(
            "FitzHughNagumo", artifacts=False,
            inject=FaultInjector(FaultPlan(fail_pass="cse")))
        assert compiled.sandbox.quarantined == {"cse"}
        runner = SupervisedRunner(
            generate_limpet_mlir(luo_rudy), n_workers=2,
            fault_plan=FaultPlan(kill_worker=0, kill_worker_at_task=1),
            config=SupervisionConfig(task_timeout=10.0))
        try:
            runner.run(runner.make_state(24), 10, 0.01)
            assert runner.active_tier == "supervised"
        finally:
            runner.close()
        assert any("restarted worker 0" in d.message
                   for d in runner.diagnostics)
        assert [p.relative_to(tmp_path) for p in tmp_path.rglob("*")] == []


# ---------------------------------------------------------------------------
# Perf-regression gate (cheap fakes; the real re-measure runs in CI)
# ---------------------------------------------------------------------------

def _copy(record, **machine):
    """A deep copy of ``record`` with ``machine`` fields replaced."""
    copy = json.loads(json.dumps(record))
    copy["machine"].update(machine)
    return copy


class TestPerfGate:
    MACHINE = {"cpu_model": "Test CPU @ 2.10GHz",
               "isa_flags": ["avx2", "fma"], "cores": 2,
               "python": "3.11.7", "numpy": "2.4.6",
               "platform": "Linux-6.18.5-fc-v20-x86_64"}
    BASELINE = {
        "schema": "limpet-bench-record/1",
        "machine": MACHINE,
        "sections": {"toy": {
            "config": {"models": ["A"], "n_cells": 8, "n_steps": 5},
            "variants": [
                {"name": "A.slow", "time_to_first_step": 0.100},
                {"name": "A.fast", "time_to_first_step": 0.010}],
            "ratios": {"A.fast_vs_slow": 10.0},
            "evidence": {},
        }},
    }

    def _write(self, tmp_path, payload):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(payload))
        return path

    def test_gate_passes_on_identical_measurement(self, tmp_path):
        from repro.bench.regress import perf_gate
        path = self._write(tmp_path, self.BASELINE)
        other = _copy(self.BASELINE, cpu_model="Another CPU")
        rows, failures, _ = perf_gate(path, measure=lambda b: other)
        assert failures == []
        # different machine: absolute ttfs metrics are skipped, the
        # ratio is still gated
        assert {r.name: r.status for r in rows} == {
            "toy.A.fast_vs_slow": "ok",
            "toy.A.slow.time_to_first_step": "skipped",
            "toy.A.fast.time_to_first_step": "skipped"}

    def test_gate_trips_on_ratio_regression(self, tmp_path):
        from repro.bench.regress import perf_gate
        path = self._write(tmp_path, self.BASELINE)
        current = _copy(self.BASELINE, cpu_model="Another CPU")
        current["sections"]["toy"]["ratios"]["A.fast_vs_slow"] = 5.0
        rows, failures, _ = perf_gate(path, tolerance=0.15,
                                      measure=lambda b: current)
        assert len(failures) == 1
        assert "toy.A.fast_vs_slow" in failures[0]

    def test_injected_slowdown_trips_the_gate(self, tmp_path):
        from repro.bench.regress import perf_gate
        path = self._write(tmp_path, self.BASELINE)
        _, clean, _ = perf_gate(path, measure=lambda b: b)
        _, degraded, _ = perf_gate(path, slowdown=4.0,
                                   measure=lambda b: b)
        assert clean == [] and degraded

    def test_absolute_metrics_gated_on_same_machine(self, tmp_path):
        """Identity is CPU/flags/cores/versions; the kernel build
        string is informational and must not disarm the gate."""
        from repro.bench.regress import perf_gate
        path = self._write(tmp_path, self.BASELINE)
        current = _copy(self.BASELINE,
                        platform="Linux-6.18.44-fc-v42-x86_64")
        current["sections"]["toy"]["variants"][1][
            "time_to_first_step"] = 0.050
        rows, failures, _ = perf_gate(path, tolerance=0.15,
                                      measure=lambda b: current)
        assert any("A.fast.time_to_first_step" in f
                   for f in failures)
        assert not any(r.status == "skipped" for r in rows)

    @pytest.mark.parametrize("field,value", [
        ("cpu_model", "Another CPU"), ("isa_flags", ["avx2"]),
        ("cores", 4), ("python", "3.12.0"), ("numpy", "1.26.4")])
    def test_absolute_metrics_skipped_on_another_machine(
            self, tmp_path, field, value):
        from repro.bench.regress import perf_gate
        path = self._write(tmp_path, self.BASELINE)
        current = _copy(self.BASELINE, **{field: value})
        current["sections"]["toy"]["variants"][1][
            "time_to_first_step"] = 0.050
        rows, failures, _ = perf_gate(path, measure=lambda b: current)
        assert failures == []
        assert [r.status for r in rows if r.absolute] \
            == ["skipped", "skipped"]
        assert [r.status for r in rows if not r.absolute] == ["ok"]

    def test_machine_identity_of_this_host(self):
        from repro.bench.record import (IDENTITY_KEYS, machine_identity,
                                        same_machine)
        here = machine_identity()
        assert set(IDENTITY_KEYS) < set(here)
        assert same_machine(here, dict(here, platform="other kernel"))
        # a block without the identity fields matches nothing
        assert not same_machine({"platform": here["platform"]}, here)

    def test_unsupported_benchmark_rejected(self, tmp_path):
        from repro.bench.regress import perf_gate
        old = self._write(tmp_path, {"benchmark": "BENCH_PR3"})
        with pytest.raises(ValueError, match="schema"):
            perf_gate(old, measure=lambda b: b)
        unknown = json.loads(json.dumps(self.BASELINE))
        unknown["sections"]["warp"] = unknown["sections"]["toy"]
        with pytest.raises(ValueError, match="warp"):
            perf_gate(self._write(tmp_path, unknown))
        shapeless = json.loads(json.dumps(self.BASELINE))
        del shapeless["sections"]["toy"]["ratios"]
        with pytest.raises(ValueError, match="ratios"):
            perf_gate(self._write(tmp_path, shapeless),
                      measure=lambda b: b)

    def test_metrics_are_one_loop_over_sections(self):
        from repro.bench.regress import extract_metrics
        record = {"sections": {
            "perf": {"ratios": {"fused.run": 3.0, "fused.total": 2.5},
                     "variants": [{"name": "fused",
                                   "steps_per_second": 1e5,
                                   "time_to_first_step": 0.2}]},
            "sweep": {"ratios": {"batched_vs_loop": 2.0},
                      "variants": [{"name": "batched",
                                    "steps_per_second": 5e4}]}}}
        metrics_ = {m["name"]: m for m in extract_metrics(record)}
        assert set(metrics_) == {
            "perf.fused.run", "perf.fused.total",
            "perf.fused.steps_per_second",
            "perf.fused.time_to_first_step",
            "sweep.batched_vs_loop", "sweep.batched.steps_per_second"}
        assert not metrics_["perf.fused.run"]["absolute"]
        assert metrics_["perf.fused.steps_per_second"]["absolute"]
        assert not metrics_["perf.fused.time_to_first_step"][
            "higher_better"]

    def test_gate_remeasures_with_the_recorded_config(self, tmp_path,
                                                      monkeypatch):
        """Re-measuring is ``MEASURE[name](**config)``: no second set
        of defaults, ``runs`` overridden only where a config has it."""
        from repro.bench import regress
        seen = {}

        def fake(name):
            def measurer(**config):
                seen[name] = config
                return {"config": config, "variants": [], "ratios": {},
                        "evidence": {}}
            return measurer

        monkeypatch.setattr(regress, "MEASURE",
                            {"perf": fake("perf"),
                             "toy": fake("toy")})
        baseline = json.loads(json.dumps(self.BASELINE))
        baseline["sections"]["perf"] = {
            "config": {"model_name": "OHara", "width": 8, "runs": 5},
            "variants": [], "ratios": {}, "evidence": {}}
        path = self._write(tmp_path, baseline)
        _, _, current = regress.perf_gate(path, runs=3)
        assert seen["perf"] == {"model_name": "OHara", "width": 8,
                                "runs": 3}
        assert seen["toy"] == self.BASELINE["sections"]["toy"]["config"]
        assert set(current["sections"]) == {"toy", "perf"}


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestTelemetryCli:
    def test_ledger_cli_reads_and_summarizes(self, tmp_path, capsys):
        from repro.cli import cmd_ledger
        book = ledger.RunLedger(tmp_path / "l.jsonl")
        book.record("run", model="A", tier="single", disposition="ok")
        assert cmd_ledger(str(tmp_path / "l.jsonl"), None, None, None,
                          False, False) == 0
        assert "single" in capsys.readouterr().out
        assert cmd_ledger(str(tmp_path / "l.jsonl"), None, None, None,
                          False, True) == 0
        assert "A" in capsys.readouterr().out

    def test_ledger_cli_empty_fails(self, tmp_path, capsys):
        from repro.cli import cmd_ledger
        assert cmd_ledger(str(tmp_path / "none.jsonl"), None, None,
                          None, False, False) == 1

