"""Fleet-wide telemetry (DESIGN.md §13): cross-process trace
propagation, the crash flight recorder, the run ledger and the
perf-regression gate.

The acceptance drill at the bottom is the PR's headline scenario: a
supervised run with an injected worker kill must still produce ONE
merged Chrome trace holding the dead worker's partial spans next to
the parent's, a flight dump whose last events precede the failure, and
a ledger that records what happened — all sharing one trace id.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.codegen import generate_limpet_mlir
from repro.obs import flight, ledger, metrics, trace
from repro.obs.trace import TraceContext, Tracer, merge_files


# ---------------------------------------------------------------------------
# TraceContext propagation
# ---------------------------------------------------------------------------

class TestTraceContext:
    def test_round_trip_dict_and_json(self):
        tracer = Tracer()
        ctx = tracer.context()
        again = TraceContext.from_dict(json.loads(ctx.to_json()))
        assert again.trace_id == ctx.trace_id
        assert again.t0_monotonic == ctx.t0_monotonic
        assert again.t0_wall == ctx.t0_wall

    def test_env_round_trip(self):
        ctx = Tracer().context()
        env = {}
        ctx.to_env(env)
        assert trace.TRACE_CONTEXT_ENV in env
        os.environ[trace.TRACE_CONTEXT_ENV] = env[trace.TRACE_CONTEXT_ENV]
        try:
            again = TraceContext.from_env()
        finally:
            del os.environ[trace.TRACE_CONTEXT_ENV]
        assert again is not None
        assert again.trace_id == ctx.trace_id

    def test_from_env_absent(self):
        assert TraceContext.from_env() is None

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


class TestMergeFiles:
    def test_merge_aligns_wall_clock(self, tmp_path):
        a = Tracer()
        with a.span("alpha"):
            pass
        b = Tracer()
        with b.span("beta"):
            pass
        pa = a.write(tmp_path / "trace-a.json")
        pb = b.write(tmp_path / "trace-b.json")
        merged = merge_files([pa, pb], out=tmp_path / "merged.json")
        names = {e["name"] for e in merged["traceEvents"]
                 if e.get("ph") == "X"}
        assert {"alpha", "beta"} <= names
        assert merged["otherData"]["merged_from"] == 2
        with open(tmp_path / "merged.json") as fh:
            assert json.load(fh)["traceEvents"]


# ---------------------------------------------------------------------------
# Labeled counters
# ---------------------------------------------------------------------------

class TestLabeledCounters:
    def test_series_and_total(self):
        c = metrics.counter("tl_failures_total", "test",
                            labelnames=("shard", "reason"))
        c.labels(shard="0", reason="died").inc()
        c.labels(shard="0", reason="died").inc()
        c.labels(shard="1", reason="stalled").inc()
        assert c.value == 3
        assert c.series()['shard="0",reason="died"'] == 2

    def test_label_shape_enforced(self):
        c = metrics.counter("tl_shape_total", "test",
                            labelnames=("shard",))
        with pytest.raises(ValueError):
            c.labels(reason="died")
        with pytest.raises(TypeError):
            metrics.counter("tl_shape_total", "test")

    def test_prometheus_exposition(self):
        c = metrics.counter("tl_prom_total", "test",
                            labelnames=("kind",))
        c.labels(kind="a").inc(2)
        text = metrics.to_prometheus()
        assert 'tl_prom_total{kind="a"} 2' in text


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = flight.FlightRecorder(capacity=8)
        for i in range(20):
            rec.record("tick", i=i)
        assert len(rec) == 8
        events = rec.events()
        assert events[0]["i"] == 12 and events[-1]["i"] == 19

    def test_dump_schema_and_prune(self, tmp_path):
        rec = flight.FlightRecorder(capacity=4)
        rec.record("worker_failure", slot=1, reason="died")
        path = rec.dump("worker_death", directory=tmp_path,
                        extra={"slot": 1})
        payload = flight.load_dump(path)
        assert payload["format"] == flight.FORMAT
        assert payload["reason"] == "worker_death"
        assert payload["extra"]["slot"] == 1
        assert payload["events"][-1]["kind"] == "worker_failure"
        assert flight.latest_dump(tmp_path) == path

    def test_taps_capture_spans_and_metrics(self):
        assert flight.installed()
        tracer = Tracer()
        previous = trace.activate(tracer)
        try:
            with trace.span("tl_tapped_span", x=1):
                pass
        finally:
            trace.deactivate(previous)
        metrics.counter("tl_tapped_total", "t").inc()
        kinds = {(e["kind"], e.get("name")) for e in
                 flight.recorder().events()}
        assert ("span", "tl_tapped_span") in kinds
        assert ("metric", "tl_tapped_total") in kinds

    def test_module_dump_never_raises(self, monkeypatch):
        monkeypatch.setenv(flight.FLIGHT_DIR_ENV, "/dev/null/nope")
        assert flight.dump("test") is None


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
        monkeypatch.setenv(flight.FLIGHT_DIR_ENV, str(tmp_path))
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
        assert len(shard_tasks) >= 30
        respawns = [e for e in events
                    if e["ph"] == "i" and e["name"] == "worker_respawn"]
        assert len(respawns) == 1
        # every event is schema-valid enough for chrome://tracing
        for e in span_events:
            assert e["dur"] >= 0
            assert isinstance(e["ts"], (int, float))

        # the flight dump shares the trace id and its events precede
        # the failure that triggered it
        dump_path = flight.latest_dump(tmp_path)
        assert dump_path is not None
        payload = flight.load_dump(dump_path)
        assert payload["reason"] == "worker_death"
        assert payload["trace_id"] == tracer.trace_id
        assert payload["ts_unix"] >= payload["events"][-1]["t"]
        assert any(e["kind"] == "worker_failure"
                   for e in payload["events"])

        # the labeled failure counter has the shard/reason series
        fails = metrics.snapshot()["worker_failures_total"]
        assert fails["value"] >= 1
        # a SIGKILLed worker surfaces as EOF on its pipe or as a dead
        # process, depending on which the parent notices first
        assert any('shard="0"' in key and
                   ('reason="died"' in key or
                    'reason="pipe_closed"' in key)
                   for key in fails["series"])

        # and the ledger recorded the run on the supervised tier
        rows = ledger.RunLedger(
            tmp_path / "ledger.jsonl").read(event="run")
        assert rows and rows[-1]["tier"] == "supervised"
        assert rows[-1]["disposition"] == "ok"

    def test_degradation_writes_ledger_row_and_flight_dump(
            self, tmp_path, monkeypatch, luo_rudy):
        from repro.resilience import FaultPlan
        from repro.runtime import SupervisedRunner, SupervisionConfig
        monkeypatch.setenv(ledger.LEDGER_ENV,
                           str(tmp_path / "ledger.jsonl"))
        monkeypatch.setenv(flight.FLIGHT_DIR_ENV, str(tmp_path))
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
        rows = ledger.RunLedger(
            tmp_path / "ledger.jsonl").read(event="degradation")
        assert len(rows) == 1, "one degradation, one ledger row"
        row = rows[-1]
        assert (row["from_tier"], row["tier"]) == ("supervised", "single")
        assert row["disposition"] == "degraded"
        assert row["step"] >= 0
        reasons = [p["reason"] for p in
                   (flight.load_dump(d)
                    for d in flight.list_dumps(tmp_path)) if p]
        assert reasons.count("degradation") == 1


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
        "sections": {"coldstart": {
            "config": {"models": ["A"], "n_cells": 8, "n_steps": 5,
                       "dt": 0.01, "width": 8, "repeats": 1},
            "variants": [
                {"name": "A.jit", "time_to_first_step": 0.100},
                {"name": "A.artifact", "time_to_first_step": 0.010}],
            "ratios": {"A.artifact_vs_jit": 10.0},
            "evidence": {"bitwise_identical": {"A": True}},
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
            "coldstart.A.artifact_vs_jit": "ok",
            "coldstart.A.jit.time_to_first_step": "skipped",
            "coldstart.A.artifact.time_to_first_step": "skipped"}

    def test_gate_trips_on_ratio_regression(self, tmp_path):
        from repro.bench.regress import perf_gate
        path = self._write(tmp_path, self.BASELINE)
        current = _copy(self.BASELINE, cpu_model="Another CPU")
        current["sections"]["coldstart"]["ratios"][
            "A.artifact_vs_jit"] = 5.0
        rows, failures, _ = perf_gate(path, tolerance=0.15,
                                      measure=lambda b: current)
        assert len(failures) == 1
        assert "coldstart.A.artifact_vs_jit" in failures[0]

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
        current["sections"]["coldstart"]["variants"][1][
            "time_to_first_step"] = 0.050
        rows, failures, _ = perf_gate(path, tolerance=0.15,
                                      measure=lambda b: current)
        assert any("A.artifact.time_to_first_step" in f
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
        current["sections"]["coldstart"]["variants"][1][
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
        unknown["sections"]["warp"] = unknown["sections"]["coldstart"]
        with pytest.raises(ValueError, match="warp"):
            perf_gate(self._write(tmp_path, unknown))
        shapeless = json.loads(json.dumps(self.BASELINE))
        del shapeless["sections"]["coldstart"]["ratios"]
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
                             "coldstart": fake("coldstart")})
        baseline = json.loads(json.dumps(self.BASELINE))
        baseline["sections"]["perf"] = {
            "config": {"model_name": "OHara", "width": 8, "runs": 5},
            "variants": [], "ratios": {}, "evidence": {}}
        path = self._write(tmp_path, baseline)
        _, _, current = regress.perf_gate(path, runs=3)
        assert seen["perf"] == {"model_name": "OHara", "width": 8,
                                "runs": 3}
        assert seen["coldstart"] == \
            self.BASELINE["sections"]["coldstart"]["config"]
        assert set(current["sections"]) == {"coldstart", "perf"}


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

    def test_flight_cli_shows_latest(self, tmp_path, capsys):
        from repro.cli import cmd_flight
        rec = flight.FlightRecorder()
        rec.record("span", name="compile")
        rec.dump("test_reason", directory=tmp_path)
        assert cmd_flight("show", str(tmp_path), 10, False) == 0
        out = capsys.readouterr().out
        assert "test_reason" in out
        assert cmd_flight("list", str(tmp_path), 10, False) == 0

    def test_flight_cli_no_dumps_fails(self, tmp_path):
        from repro.cli import cmd_flight
        assert cmd_flight("show", str(tmp_path), 10, False) == 1

    def test_trace_cli_merge(self, tmp_path, capsys):
        from repro.cli import cmd_trace
        t = Tracer()
        with t.span("x"):
            pass
        t.write(tmp_path / "trace-one.json")
        out = tmp_path / "merged.json"
        assert cmd_trace(None, "limpet_mlir", 8, 1, 1, 0.01,
                         str(out), False, 0, str(tmp_path)) == 0
        assert out.is_file()
        # without --merge a model is mandatory
        assert cmd_trace(None, "limpet_mlir", 8, 1, 1, 0.01,
                         None, False, 0, None) == 2
