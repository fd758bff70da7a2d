"""PR5 observability: trace spans, pass instrumentation, metrics,
per-op kernel profiler."""

import json
import threading

import numpy as np
import pytest

from repro import codegen
from repro.codegen import generate_limpet_mlir
from repro.ir.passes import default_pipeline
from repro.ir.passes.pass_manager import PassInstrumentation, PassManager
from repro.models import load_model
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.passes import (IRSnapshotInstrumentation,
                              TracePassInstrumentation,
                              count_ops_by_dialect, op_count_delta)
from repro.obs.profiler import KernelProfileReport, classify_op
from repro.obs.trace import Tracer
from repro.runtime import KernelRunner, SupervisedRunner


def make_runner(name, **kwargs):
    return KernelRunner(generate_limpet_mlir(load_model(name)), **kwargs)


@pytest.fixture
def no_tracer():
    """Run with tracing guaranteed off, restoring any active tracer."""
    previous = obs_trace.active_tracer()
    obs_trace.deactivate(None)
    yield
    obs_trace.deactivate(previous)


# ---------------------------------------------------------------------------
# Trace spans: nesting + Chrome export round-trip
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", model="X"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner2"):
                pass
        assert len(tracer.roots) == 1
        outer = tracer.roots[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner", "inner2"]
        assert outer.duration >= outer.children[0].duration

    def test_instant_attaches_to_current_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.instant("marker", why="test")
        (outer,) = tracer.roots
        (mark,) = outer.children
        assert mark.kind == "instant" and mark.args["why"] == "test"

    def test_chrome_export_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("compile", model="OHara"):
            with tracer.span("passes"):
                tracer.instant("note")
        path = tracer.write(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        events = [e for e in payload["traceEvents"] if e["ph"] != "M"]
        assert {e["name"] for e in events} == {"compile", "passes", "note"}
        for event in events:
            assert set(("name", "ph", "ts", "pid", "tid")) <= set(event)
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["name"] == "process_name"
        assert payload["otherData"]["trace_id"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 2 and all("dur" in e for e in complete)
        (instant,) = [e for e in events if e["ph"] == "i"]
        assert instant["s"] == "t"
        # child events sit inside the parent's [ts, ts+dur] window
        by_name = {e["name"]: e for e in events}
        outer, inner = by_name["compile"], by_name["passes"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"] + 1

    def test_summary_tree_renders_nesting_and_args(self):
        tracer = Tracer()
        with tracer.span("outer", model="X"):
            with tracer.span("inner", op_delta={"arith": -3}):
                pass
        text = tracer.summary_tree()
        assert "outer" in text and "  inner" in text
        assert "model=X" in text and "Δ[arith-3]" in text

    def test_module_level_span_noop_when_inactive(self, no_tracer):
        span = obs_trace.span("anything", key=1)
        assert span is obs_trace._NULL_SPAN
        with span as s:
            s.annotate(more=2)       # must be a silent no-op
        obs_trace.instant("nothing")
        obs_trace.annotate(k=3)

    def test_activate_deactivate_restores_previous(self, no_tracer):
        first, second = Tracer(), Tracer()
        prev0 = obs_trace.activate(first)
        assert obs_trace.active_tracer() is first
        prev1 = obs_trace.activate(second)
        assert prev1 is first
        with obs_trace.span("on-second"):
            pass
        obs_trace.deactivate(prev1)
        assert obs_trace.active_tracer() is first
        obs_trace.deactivate(prev0)
        assert obs_trace.active_tracer() is None
        assert [r.name for r in second.roots] == ["on-second"]
        assert first.roots == []

    def test_threaded_spans_merge_into_roots(self):
        tracer = Tracer()

        def work(i):
            with tracer.span(f"thread{i}"):
                pass

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(r.name for r in tracer.roots) == \
            [f"thread{i}" for i in range(4)]

    @pytest.mark.parametrize("exc, interrupted", [
        (KeyboardInterrupt, True), (SystemExit, True), (ValueError, False)])
    def test_unwinding_interrupt_marks_open_spans(self, exc, interrupted):
        tracer = Tracer()
        with pytest.raises(exc):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise exc
        (outer,) = tracer.roots
        (inner,) = outer.children
        for span in (outer, inner):
            assert span.end is not None
            assert span.args.get("interrupted", False) is interrupted

    def test_span_left_open_by_unwinding_stays_in_the_tree(self):
        # a ``begin`` span (the pass instrumentation's ``pass:*``) that
        # an interrupt unwinds past ends with the ``with`` span below it
        # and is written as its child, not dropped
        tracer = Tracer()
        with pytest.raises(KeyboardInterrupt):
            with tracer.span("outer"):
                tracer.begin("pass:a")
                tracer.begin("pass:b")
                raise KeyboardInterrupt
        (outer,) = tracer.roots
        (a,) = outer.children
        (b,) = a.children
        assert [a.name, b.name] == ["pass:a", "pass:b"]
        assert a.end == b.end == outer.end
        names = {e["name"] for e in tracer.to_chrome()["traceEvents"]}
        assert {"outer", "pass:a", "pass:b"} <= names


# ---------------------------------------------------------------------------
# Pass instrumentation: op-count deltas on a canned pipeline
# ---------------------------------------------------------------------------


class TestPassInstrumentation:
    def test_op_count_delta_helper(self):
        before = {"arith": 10, "vector": 4}
        after = {"arith": 7, "vector": 4, "scf": 1}
        assert op_count_delta(before, after) == {"arith": -3, "scf": 1}

    def test_op_counts_on_default_pipeline(self):
        module = generate_limpet_mlir(load_model("Plonsey")).module
        baseline = count_ops_by_dialect(module)
        assert baseline.get("arith", 0) > 0
        tracer = Tracer()
        pipeline = default_pipeline(verify_each=False)
        assert pipeline.add_instrumentation(
            TracePassInstrumentation(tracer)) is pipeline
        pipeline.run(module, fixed_point=True)
        spans = [r for r in tracer.roots if r.name.startswith("pass:")]
        assert spans, "no per-pass spans collected"
        assert {"pass:canonicalize", "pass:cse", "pass:dce"} \
            <= {s.name for s in spans}
        # optimization shrinks the module overall, and the spans account
        # for every op that went
        net = sum(sum(s.args["op_delta"].values()) for s in spans)
        assert net < 0
        assert sum(baseline.values()) + net == spans[-1].args["ops_after"] \
            == sum(count_ops_by_dialect(module).values())
        # an unchanged pass reports an empty delta
        unchanged = [s for s in spans if not s.args["changed"]]
        assert unchanged and all(s.args["op_delta"] == {} for s in unchanged)

    def test_instrumented_run_matches_uninstrumented(self):
        from repro.ir.printer import print_module
        plain = generate_limpet_mlir(load_model("HodgkinHuxley")).module
        instrumented = generate_limpet_mlir(
            load_model("HodgkinHuxley")).module
        default_pipeline(verify_each=False).run(plain, fixed_point=True)
        pipeline = default_pipeline(verify_each=False)
        pipeline.add_instrumentation(TracePassInstrumentation(Tracer()))
        pipeline.add_instrumentation(IRSnapshotInstrumentation())
        pipeline.run(instrumented, fixed_point=True)
        assert print_module(plain) == print_module(instrumented)

    def test_error_hook_fires(self):
        class Boom(Exception):
            pass

        class FailingPass:
            name = "boom"

            def run(self, module):
                raise Boom("no")

        class Recorder(PassInstrumentation):
            def __init__(self):
                self.errors = []

            def on_pass_error(self, pass_, module, error, seconds):
                self.errors.append((pass_.name, type(error).__name__))

        module = generate_limpet_mlir(load_model("Plonsey")).module
        pm = PassManager([FailingPass()])
        rec = Recorder()
        pm.add_instrumentation(rec)
        with pytest.raises(Boom):
            pm.run(module)
        assert rec.errors == [("boom", "Boom")]


# ---------------------------------------------------------------------------
# Metrics registry: semantics + thread safety
# ---------------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        c = reg.counter("widgets_total", "widgets made")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = reg.gauge("level")
        g.set(2.5)
        assert g.value == 2.5
        snap = reg.snapshot()
        assert snap["widgets_total"]["value"] == 5
        assert snap["level"]["value"] == 2.5

    def test_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        assert reg.counter("x_total") is reg.counter("x_total")
        with pytest.raises(TypeError):
            reg.gauge("x_total")

    def test_prometheus_exposition(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "cache hits").inc(7)
        reg.gauge("ratio").set(1.25)
        text = reg.to_prometheus()
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 7" in text
        assert "ratio 1.25" in text
        assert text.endswith("\n")

    def test_counter_thread_safety(self):
        reg = MetricsRegistry()
        c = reg.counter("contended_total")

        def bump():
            for _ in range(5000):
                c.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40000

    def test_kernel_cache_metrics(self, tmp_path):
        from repro.runtime import KernelCache
        obs_metrics.reset()
        model = load_model("Plonsey")
        cache = KernelCache(tmp_path / "kc")
        KernelRunner(generate_limpet_mlir(model), cache=cache)
        second = KernelRunner(generate_limpet_mlir(model), cache=cache)
        assert second.cache_hit
        registry = obs_metrics.default_registry()
        assert registry.get("kernel_cache_misses_total").value == 1
        assert registry.get("kernel_cache_hits_total").value == 1


# ---------------------------------------------------------------------------
# Kernel-cache stores land through a tmp file the eviction glob skips
# ---------------------------------------------------------------------------


class TestAtomicStats:
    def test_tmp_names_invisible_to_eviction_glob(self, tmp_path):
        from repro.runtime import KernelCache
        cache = KernelCache(tmp_path / "kc", max_entries=1)
        # another writer's store in flight
        in_flight = tmp_path / "kc" / f"{'c' * 64}.json.1.2.tmp"
        in_flight.write_text("{")
        for key in ("a" * 64, "b" * 64):
            cache.store(key, "def k(): pass", "vector", 8, [], "k",
                        fused=False, arena=False)
        assert obs_metrics.counter(
            "kernel_cache_evictions_total").value == 1
        # the other writer's tmp file is untouched; this one left none
        assert [p.name for p in (tmp_path / "kc").glob("*.tmp")] \
            == [in_flight.name]
        assert [p.name for p in (tmp_path / "kc").glob("*.json")] \
            == [f"{'b' * 64}.json"]
        assert cache.persistent_stats().entries == 1


# ---------------------------------------------------------------------------
# Per-op kernel profiler: differential + attribution
# ---------------------------------------------------------------------------


class TestKernelProfiler:
    def test_classify_op(self):
        assert classify_op("arith.mulf") == "simple"
        assert classify_op("arith.divf") == "div"
        assert classify_op("math.exp") == "exp"
        assert classify_op("math.powf") == "pow"
        assert classify_op("vector.load") == "move"
        assert classify_op("vector.gather") == "gather"
        assert classify_op("func.call", "LUT_interpRow_x") == "lut"
        assert classify_op("func.call", "foreign_f") == "other"

    def test_unprofiled_kernel_refuses_report(self):
        runner = make_runner("Plonsey")
        with pytest.raises(ValueError):
            runner.profile_report()

    def test_profiled_run_bitwise_identical(self):
        profiled = make_runner("LuoRudy91", profile=True)
        plain = make_runner("LuoRudy91")
        res_p = profiled.run(profiled.make_state(48), 40, 0.01)
        res_u = plain.run(plain.make_state(48), 40, 0.01)
        snap_p, snap_u = res_p.state.snapshot(), res_u.state.snapshot()
        assert set(snap_p) == set(snap_u)
        for key in snap_p:
            assert np.array_equal(snap_p[key], snap_u[key]), key

    @pytest.mark.parametrize("layout", ["aosoa", "aos"])
    def test_profiled_access_modes_bitwise_identical(self, layout):
        """Sliced loads and stores bracket like any statement; their
        provenance names the addressing mode (``pack G`` for G packed
        ones) and the hot table shows it."""
        def runner(**kwargs):
            return KernelRunner(generate_limpet_mlir(
                load_model("LuoRudy91"), 8, layout=layout), **kwargs)
        profiled, plain = runner(profile=True), runner()
        res_p = profiled.run(profiled.make_state(21), 25, 0.01)
        res_u = plain.run(plain.make_state(21), 25, 0.01)
        snap_p, snap_u = res_p.state.snapshot(), res_u.state.snapshot()
        for key in snap_u:
            assert np.array_equal(snap_p[key], snap_u[key]), key
        modes = {e["detail"] for e in profiled.kernel.provenance
                 if e["op"] in ("vector.load", "vector.store",
                                "vector.gather", "vector.scatter")}
        # LuoRudy91's seven state loads are one transposed copy where
        # its slots share a block view
        assert modes == {"aos": {"unit", "strided", "pack 7"},
                         "aosoa": {"unit", "pack 7"}}[layout]
        report = profiled.profile_report(invocations=25)
        assert "detail" in report.hot_table(3).splitlines()[1]
        assert any(f" {mode} " in report.hot_table(len(report.entries))
                   for mode in modes)
        assert "indexed" not in report.by_class()

    def test_profile_report_attributes_compute_time(self):
        # The counters are held against the compute time of the very run
        # they count: two separate runs of this size differ by tens of
        # percent on a shared machine, which would swamp a 5% bar.  The
        # run's own compute also carries whatever the profiler costs
        # outside its brackets, so it is no easier a bar than a plain
        # runner's compute.
        # A warm-up run first, then the counters start again from zero,
        # so first-call costs outside the kernel's statements are left out.
        # 150 steps, so that one preemption landing between two brackets
        # is a small share of the compute the bar is held to.
        profiled = make_runner("OHara", profile=True)
        profiled.run(profiled.make_state(1024), 5, 0.01)
        counters = profiled.kernel.profile_counters
        counters[:] = [0.0] * len(counters)
        res = profiled.run(profiled.make_state(1024), 150, 0.01,
                           time_breakdown=True)
        report = profiled.profile_report(invocations=150)
        assert report.total_seconds > 0
        assert report.attributed_fraction(res.compute_seconds) >= 0.95
        # every counter slot has a provenance record, and the hot table
        # names IR ops
        assert len(report.entries) == \
            len(profiled.kernel.profile_counters)
        table = report.hot_table(5)
        assert "hot ops" in table and "OHara" in table
        assert any(e.op.startswith(("arith.", "vector.", "math.",
                                    "func.", "memref.", "scf."))
                   for e in report.entries)

    def test_profiler_source_attribution_present(self):
        profiled = make_runner("HodgkinHuxley", profile=True)
        profiled.run(profiled.make_state(32), 10, 0.01)
        report = profiled.profile_report()
        by_dialect = report.by_dialect()
        assert by_dialect and all(v >= 0 for v in by_dialect.values())
        data = report.as_dict()
        assert data["entries"] and "by_class" in data

    def test_profile_mode_bypasses_cache(self, tmp_path):
        from repro.runtime import KernelCache
        cache = KernelCache(tmp_path / "kc")
        runner = KernelRunner(generate_limpet_mlir(load_model("Plonsey")),
                              cache=cache, profile=True)
        assert runner.cache is None and not runner.cache_hit
        assert runner.kernel.profile_counters is not None


# ---------------------------------------------------------------------------
# End-to-end: tracing a compile+run captures the whole stage tree
# ---------------------------------------------------------------------------


class TestEndToEndTrace:
    def test_compile_and_run_span_tree(self, no_tracer):
        load_model.cache_clear()
        tracer = Tracer()
        previous = obs_trace.activate(tracer)
        try:
            model = load_model("Plonsey")
            runner = KernelRunner(generate_limpet_mlir(model))
            runner.run(runner.make_state(32), 10, 0.01)
        finally:
            obs_trace.deactivate(previous)
        names = {r.name for r in tracer.roots}
        assert {"parse", "frontend", "irgen", "passes", "verify",
                "lowering", "run"} <= names
        passes_root = next(r for r in tracer.roots if r.name == "passes")
        pass_spans = [c for c in passes_root.children
                      if c.name.startswith("pass:")]
        assert pass_spans, "no per-pass child spans"
        assert any("op_delta" in c.args for c in pass_spans)
        events = tracer.to_chrome()["traceEvents"]
        assert any(e.get("args", {}).get("op_delta") is not None
                   for e in events)

    def test_sandbox_span_says_where_its_time_went(self, no_tracer):
        from repro.ir import parse_module, print_module
        from repro.resilience import compile_resilient, sandboxed_pipeline
        bare = print_module(codegen.generate_limpet_mlir(
            load_model("LuoRudy91")).module)
        tracer = Tracer()
        previous = obs_trace.activate(tracer)
        try:
            compile_resilient("LuoRudy91", artifacts=False)
            sandboxed_pipeline().run(parse_module(bare), fixed_point=True)
        finally:
            obs_trace.deactivate(previous)
        spans, stack = [], list(tracer.roots)
        while stack:
            span = stack.pop()
            spans.append(span)
            stack += span.children
        by_source = {s.args["rollback"]: s for s in spans
                     if s.name == "sandbox"}
        assert set(by_source) == {"reemit", "reparse"}
        for source, sandbox in by_source.items():
            checkpoint, verify = (sandbox.args["checkpoint_s"],
                                  sandbox.args["verify_s"])
            assert isinstance(checkpoint, float) and isinstance(verify, float)
            assert 0.0 < verify
            assert checkpoint + verify < sandbox.duration
        # the bare module is printed on entry; compile_resilient's module
        # is fresh from its emitter, so it reports no checkpoint at all
        assert 0.0 < by_source["reparse"].args["checkpoint_s"]
        assert by_source["reemit"].args["checkpoint_s"] == 0.0

    @pytest.mark.parametrize("backend, width, build", [
        ("baseline", 1, codegen.generate_baseline),
        ("limpet_mlir", 4, lambda m: codegen.generate_limpet_mlir(m, 4)),
        ("icc_simd", 8, codegen.generate_icc_simd),
        ("plugin", 8, codegen.generate_plugin)])
    def test_one_irgen_span_per_generated_kernel(self, no_tracer, backend,
                                                 width, build):
        model = load_model("LuoRudy91")
        tracer = Tracer()
        previous = obs_trace.activate(tracer)
        try:
            generated = build(model)
            assert tracer.roots == []       # no IR until somebody reads it
            module = generated.module
            assert generated.module is module and generated.module is module
        finally:
            obs_trace.deactivate(previous)
        assert [(r.name, r.args) for r in tracer.roots] == [
            ("irgen", {"model": "LuoRudy91", "backend": backend,
                       "width": width})]

    @pytest.mark.parametrize("make", [
        KernelRunner, lambda g, **kw: SupervisedRunner(g, n_workers=2, **kw)],
        ids=["KernelRunner", "SupervisedRunner"])
    def test_warm_runner_emits_no_ir(self, no_tracer, tmp_path, make):
        from repro.runtime import KernelCache
        cache = KernelCache(tmp_path / "kc")
        model = load_model("LuoRudy91")
        cold = KernelRunner(codegen.generate(model), cache=cache)
        tracer = Tracer()
        previous = obs_trace.activate(tracer)
        try:
            warm = make(codegen.generate(model), cache=cache)
        finally:
            obs_trace.deactivate(previous)
        assert warm.cache_hit and warm.cache_key == cold.cache_key
        # no irgen / passes / verify / lowering span: the lookup is all
        assert [(r.name, r.args["hit"]) for r in tracer.roots] == [
            ("cache_lookup", True)]

    def test_disabled_tracing_leaves_runner_untouched(self, no_tracer):
        runner = make_runner("Plonsey")
        assert runner.pipeline is None or \
            not getattr(runner.pipeline, "instrumentations", [])
        result = runner.run(runner.make_state(16), 5, 0.01)
        assert result.n_steps == 5
