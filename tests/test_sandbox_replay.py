"""The sandbox's rollback is a replay: one checkpoint print on entry, a
journal of the invocations that took, and a rebuild only on failure.

The reference for "what the failing pass was given" is an uninterrupted
plain ``PassManager`` carrying ``IRSnapshotInstrumentation``; the
reference for "what the pipeline leaves after a fault" is the
snapshot-before-every-pass manager this one replaced, kept here as a
twenty-line oracle.
"""

import json

import pytest

from repro.codegen import (UnsupportedModelError, generate_baseline,
                           generate_limpet_mlir)
from repro.ir import parse_module, print_module, verify_module
from repro.ir.passes import PassManager, default_pipeline
from repro.ir.passes.pass_manager import Pass, PassInstrumentation
from repro.ir.verifier import VerificationError
from repro.models import load_model
from repro.obs import flight, ledger, metrics, trace
from repro.obs.passes import IRSnapshotInstrumentation
from repro.resilience import (FaultInjector, FaultPlan, InjectedFault,
                              compile_resilient, load_reproducer,
                              sandboxed_pipeline)
from repro.resilience import sandbox as sandbox_module
from repro.resilience.sandbox import ReplayError, SandboxedPassManager

#: small, mid, large, the largest, and one foreign model (baseline tier)
MODELS = ("FitzHughNagumo", "LuoRudy91", "Courtemanche", "OHara", "Campbell")


def _reference(name):
    """(pre-pipeline text, [(pass, its 1-based invocation, pre-pass text)],
    post-pipeline text) of one model's uninterrupted default pipeline."""
    model = load_model(name)
    try:
        generated = generate_limpet_mlir(model, 8)
    except UnsupportedModelError:
        generated = generate_baseline(model)
    text = print_module(generated.module)
    snapshots = IRSnapshotInstrumentation(keep_history=True)
    pipeline = default_pipeline().add_instrumentation(snapshots)
    pipeline.run(generated.module, fixed_point=True)
    seen = {}
    history = []
    for pass_name, before in snapshots.history:
        seen[pass_name] = seen.get(pass_name, 0) + 1
        history.append((pass_name, seen[pass_name], before))
    return text, history, print_module(generated.module)


@pytest.fixture(scope="module", params=MODELS)
def reference(request):
    return _reference(request.param)


@pytest.fixture(scope="module")
def small_text():
    """Pre-pipeline IR of a small model, where the model does not matter."""
    return _reference("FitzHughNagumo")[0]


def _plan(kind: str, name: str, invocation: int) -> FaultPlan:
    if kind == "raise":
        return FaultPlan(fail_pass=name, fail_pass_at=invocation)
    return FaultPlan(corrupt_after_pass=name, fail_pass_at=invocation)


class _PrintOnError(PassInstrumentation):
    """What the module prints as right after the sandbox contained a pass."""

    def __init__(self):
        self.texts = []

    def on_pass_error(self, pass_, module, error, seconds):
        self.texts.append(print_module(module))


def _snapshot_per_pass(module, passes, max_iterations=8):
    """The manager this PR replaced, reduced to its effect on the module:
    print before every pass, re-parse that print when the pass fails."""
    quarantined = set()
    for _ in range(max_iterations):
        round_change = False
        for pass_ in passes:
            if pass_.name in quarantined:
                continue
            snapshot = print_module(module)
            try:
                changed = pass_.run(module)
                verify_module(module)
            except (InjectedFault, VerificationError):
                restored = parse_module(snapshot)
                module.body = restored.body
                module.attributes = dict(restored.attributes)
                quarantined.add(pass_.name)
                continue
            round_change = round_change or changed
        if not round_change:
            break
    return quarantined


class TestRollbackIsByteIdentical:
    def test_every_position(self, reference, tmp_path):
        text, history, _ = reference
        assert len(history) >= 8            # two rounds of four passes
        for index, (name, invocation, before) in enumerate(history):
            # where snapshot-per-pass ended: either kind of fault rolls
            # back to the same module and quarantines the same pass
            oracle = parse_module(text)
            faulty = FaultInjector(_plan("raise", name, invocation)
                                   ).wrap_pipeline(default_pipeline())
            assert _snapshot_per_pass(oracle, faulty.passes) == {name}
            expected = print_module(oracle)
            for kind in ("raise", "corrupt"):
                self._check(text, history, index, kind, expected,
                            tmp_path / f"{kind}-{index}")

    @staticmethod
    def _check(text, history, index, kind, expected, bundles):
        name, invocation, before = history[index]
        pipeline = sandboxed_pipeline(bundles)
        FaultInjector(_plan(kind, name, invocation)).wrap_pipeline(pipeline)
        contained = _PrintOnError()
        pipeline.add_instrumentation(contained)
        module = parse_module(text)
        pipeline.run(module, fixed_point=True)

        # rolled back to exactly what the failing pass was given
        assert pipeline.quarantined == {name}
        assert contained.texts == [before]
        [diag] = pipeline.diagnostics
        assert diag.stage == ("pass" if kind == "raise" else "verify")
        assert diag.data["replayed_passes"] == \
            [ran for ran, _, _ in history[:index]]
        assert pipeline.replayed_passes == diag.data["replayed_passes"]

        # the bundle holds that text, re-parses, and fails again
        [bundle] = pipeline.reproducers
        assert (bundle / "module.ir").read_text() == before
        meta = json.loads((bundle / "meta.json").read_text())
        assert meta == {"pass": name, "error_type": diag.error_type,
                        "message": diag.message,
                        "pipeline_position": [
                            p.name for p in pipeline.passes].index(name),
                        "format": "repro-reproducer-v1"}
        reloaded, _ = load_reproducer(bundle)
        assert print_module(reloaded) == before
        again = PassManager([p for p in default_pipeline().passes
                             if p.name == name])
        FaultInjector(_plan(kind, name, 1)).wrap_pipeline(again)
        with pytest.raises(InjectedFault if kind == "raise"
                           else VerificationError):
            again.run(reloaded)

        # and the pipeline ends where snapshot-per-pass ended
        assert print_module(module) == expected
        verify_module(module)

    def test_replay_is_not_an_injector_invocation(self, small_text):
        # canonicalize's first run is journaled through its proxy; the
        # rollback for cse re-runs it, and the proxy must not count that
        pipeline = sandboxed_pipeline()
        FaultInjector(FaultPlan(fail_pass="canonicalize", fail_pass_at=3)
                      ).wrap_pipeline(pipeline)
        FaultInjector(FaultPlan(fail_pass="cse")).wrap_pipeline(pipeline)
        pipeline.run(parse_module(small_text), fixed_point=True)
        assert pipeline.passes[0].invocations == \
            pipeline.statistics["canonicalize"].runs
        assert pipeline.replayed_passes[0] == "canonicalize"


class TestSuccessPath:
    def test_one_print_and_one_verify_per_invocation(self, reference,
                                                     monkeypatch):
        text, history, after = reference
        calls = {"print": 0, "verify": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sandbox_module, "print_module",
                            counting("print", print_module))
        monkeypatch.setattr(sandbox_module, "verify_module",
                            counting("verify", verify_module))
        module = parse_module(text)
        pipeline = sandboxed_pipeline()
        pipeline.run(module, fixed_point=True)
        invocations = sum(s.runs for s in pipeline.statistics.values())
        # the last round changes nothing and is verified all the same
        assert invocations == len(history)
        assert calls == {"print": 1, "verify": invocations}
        assert print_module(module) == after
        assert not pipeline.quarantined and not pipeline.diagnostics
        assert pipeline.fingerprint() == default_pipeline().fingerprint()
        assert not any(isinstance(i, IRSnapshotInstrumentation)
                       for i in pipeline.instrumentations)

    def test_pipeline_from_the_same_text_prints_the_same_ir(self, reference):
        # the premise of replaying instead of storing
        text, _, after = reference
        for _ in range(2):
            module = parse_module(text)
            default_pipeline().run(module, fixed_point=True)
            assert print_module(module) == after
            assert print_module(parse_module(after)) == after


class _Flaky(Pass):
    """Succeeds once, then misbehaves: not a function of the module."""

    name = "flaky"

    def __init__(self, then):
        self.then = then
        self.calls = 0

    def run(self, module):
        self.calls += 1
        if self.calls > 1:
            return self.then()
        return True


class _Boom(Pass):
    name = "boom"

    def run(self, module):
        raise RuntimeError("boom")


def _raise():
    raise RuntimeError("second call differs")


class TestNonDeterministicPass:
    @pytest.mark.parametrize("then", [_raise, lambda: False],
                             ids=["raises", "flips-its-change-flag"])
    def test_replay_raises_instead_of_quarantining_twice(self, small_text,
                                                         then, tmp_path):
        pipeline = SandboxedPassManager([_Flaky(then), _Boom()],
                                        reproducer_dir=tmp_path)
        with pytest.raises(ReplayError, match="not deterministic"):
            pipeline.run(parse_module(small_text))
        assert pipeline.quarantined == set()
        assert pipeline.diagnostics == [] and pipeline.reproducers == []


class TestObservability:
    def test_span_counter_and_flight_dump(self, small_text, tmp_path):
        tracer = trace.Tracer()
        previous = trace.activate(tracer)
        try:
            clean = sandboxed_pipeline()
            clean.run(parse_module(small_text), fixed_point=True)
            faulty = sandboxed_pipeline(tmp_path)
            FaultInjector(FaultPlan(fail_pass="licm")).wrap_pipeline(faulty)
            faulty.run(parse_module(small_text), fixed_point=True)
        finally:
            trace.deactivate(previous)
        spans = [s for s in tracer.roots if s.name == "sandbox"]
        assert [s.args["replays"] for s in spans] == [0, 1]
        assert all(s.args["checkpoint_bytes"] == len(small_text) for s in spans)
        assert spans[0].args["invocations"] == \
            sum(s.runs for s in clean.statistics.values())
        assert spans[1].args["invocations"] == \
            sum(s.runs for s in faulty.statistics.values())
        counters = metrics.snapshot()
        assert counters["sandbox_replays_total"]["value"] == 1
        assert counters["pass_quarantines_total"]["value"] == 1
        payload = json.loads(flight.list_dumps(tmp_path)[-1].read_text())
        assert payload["reason"] == "pass_quarantine"
        assert payload["extra"]["replayed_passes"] == ["canonicalize", "cse"]

    def test_compile_ledger_row(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIMPET_LEDGER", str(tmp_path / "ledger.jsonl"))
        compile_resilient("FitzHughNagumo", artifacts=False)
        compile_resilient("FitzHughNagumo", artifacts=False,
                          inject=FaultInjector(FaultPlan(fail_pass="cse")))
        rows = ledger.RunLedger(tmp_path / "ledger.jsonl").read(
            event="compile")
        assert [r.get("replayed_passes") for r in rows] == \
            [None, ["canonicalize"]]
        assert rows[1]["quarantined"] == ["cse"]
