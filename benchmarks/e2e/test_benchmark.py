"""Self-test of the benchmark; not part of tier-1.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q        (about a minute)
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import run   # noqa: E402 - the benchmark's own directory is the rootdir entry

run.scrub_environment(run.OUTPUT / "tmp-selftest")
run.import_program()

import golden      # noqa: E402
import machine     # noqa: E402
import workloads   # noqa: E402

SPEC = run.SPEC
EXACT = ("codegen.ir_ops", "ir.ops_after_passes",
         "runtime.lowering.statements", "resilience.fallback_count")


@pytest.fixture
def scratch(tmp_path):
    yield tmp_path / "stores"
    shutil.rmtree(tmp_path, ignore_errors=True)


@pytest.fixture
def tiny():
    """ohara_dispatch cut down to a few steps: same path, same checks."""
    return dataclasses.replace(workloads.WORKLOADS["ohara_dispatch"],
                               cells=16, steps=4)


def test_names_are_well_formed_and_unique():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in SPEC[section]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_exactly_the_declared_metrics(trace, scratch):
    """One sample of a cheap workload; run_workload itself raises when the
    emitted names and BENCHMARK.json differ in either direction."""
    record = run.run_workload("ohara_dispatch", seed=3, seconds=0,
                              trace=trace, scratch=scratch,
                              history=scratch / "machine-speed.json")
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["result"]["metrics"]) == {m["name"] for m in section}
    assert record["result"]["correct"] and record["result"]["failed"] == 0
    assert json.loads(json.dumps(record["result"])) == record["result"]
    if not trace:
        assert all(m["value"] > 0 for m in record["result"]["metrics"].values())


def test_same_seed_same_inputs():
    zoo = workloads.WORKLOADS["zoo_cold"]
    texts = workloads.read_texts(zoo.models)

    def two_passes(seed):
        stream = workloads.passes(zoo, texts, seed)
        return next(stream) + next(stream)

    assert two_passes(7) == two_passes(7)
    assert [i.name for i in two_passes(7)] != [i.name for i in two_passes(8)]
    assert sorted(i.name for i in two_passes(7)[:47]) == sorted(zoo.models)
    assert len({i.state_seed for i in two_passes(7)}) == 94


def test_corrupted_golden_entry_fails_the_operation(tiny, scratch, tmp_path,
                                                    monkeypatch):
    stores, texts = workloads.set_up(tiny, scratch)
    inp = next(workloads.passes(tiny, texts, 0))[0]
    assert not workloads.operate(tiny, inp, stores).problems
    copy = tmp_path / "golden"
    shutil.copytree(golden.GOLDEN_DIR, copy)
    entry = json.loads((copy / "OHara.json").read_text())
    entry["final"]["Vm"][3] = (float.fromhex(entry["final"]["Vm"][3])
                               * (1 + 1e-6)).hex()
    (copy / "OHara.json").write_text(json.dumps(entry))
    monkeypatch.setattr(golden, "GOLDEN_DIR", copy)
    problems = workloads.operate(tiny, inp, stores).problems
    assert problems and "golden mismatch: Vm" in problems[0]


def test_raising_runner_raises_the_failed_share(tiny, scratch, monkeypatch):
    stores, texts = workloads.set_up(tiny, scratch)

    def broken(inp, stores):
        raise OSError("injected")

    monkeypatch.setitem(workloads.RESOLVE, "jit", broken)
    gauge = machine.SpeedGauge(scratch / "machine-speed.json")
    samples = workloads.measure(tiny, stores, texts, seed=0, seconds=0,
                                gauge=gauge)
    failed = [s for s in samples if s.problems]
    assert len(failed) / len(samples) > 0
    assert "raised OSError" in failed[0].problems[0]
    with pytest.raises(RuntimeError):
        workloads.end_to_end(samples, setup_s=1.0, gauge=gauge)


def test_store_hit_violation_fails_the_operation(scratch):
    """A cold workload that is served from a store is a failed operation."""
    zoo = dataclasses.replace(workloads.WORKLOADS["zoo_cache"],
                              models=("Plonsey",), steps=4)
    stores, texts = workloads.set_up(zoo, scratch)
    inp = next(workloads.passes(zoo, texts, 0))[0]
    assert not workloads.operate(zoo, inp, stores).problems
    problems = workloads.operate(zoo, inp, stores, check_golden=False,
                                 expected_hits=(False, False)).problems
    assert problems and "cache_hit" in problems[0]


@pytest.mark.parametrize("name", ["ohara_dispatch", "zoo_cold"])
def test_exact_counters_repeat_exactly(name, scratch):
    first, second = (
        run.run_workload(name, seed=seed, seconds=0, trace=True,
                         scratch=scratch / str(seed))["result"]["metrics"]
        for seed in (0, 1))
    for counter in EXACT:
        assert first[counter]["value"] == second[counter]["value"], counter
    assert first["codegen.ir_ops"]["value"] > 0
    if name == "zoo_cold":
        assert first["resilience.fallback_count"]["value"] == 4


def _session_of(pid_dir: pathlib.Path):
    try:
        # the fields after the parenthesised command: state ppid pgrp session
        return int(pid_dir.joinpath("stat").read_text()
                   .rpartition(")")[2].split()[3])
    except (OSError, ValueError, IndexError):
        return None     # gone between listing and reading


@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_no_process_behind(trace):
    """The parallel workload forks workers and, through shared memory, starts
    multiprocessing's resource tracker; the moment the run exits, nothing of
    its session may be left."""
    done = subprocess.Popen(
        [sys.executable, str(run.HERE / "run.py"), "--workload",
         "ohara_parallel", "--seed", "0", "--seconds", "0",
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, start_new_session=True)
    out, _ = done.communicate(timeout=300)
    left = [p.name for p in pathlib.Path("/proc").glob("[0-9]*")
            if _session_of(p) == done.pid]
    assert done.returncode == 0 and json.loads(out.splitlines()[-1])["correct"]
    assert left == []


def test_metrics_come_from_operations_at_the_usual_speed(tmp_path):
    """An operation bracketed by a slow probe is left out, unless its input
    has no other; the history decides what usual means."""
    history = tmp_path / "machine-speed.json"
    history.write_text(json.dumps({"runs": [1.0] * 5}))
    gauge = machine.SpeedGauge(history)
    assert gauge.undisturbed(0.95, 1.05) and not gauge.undisturbed(1.0, 1.2)
    quiet = workloads.Sample("a", ttfs=1.0, steady=1.0, cell_steps=10,
                              speed=(1.0, 1.0))
    slow = workloads.Sample("a", ttfs=3.0, steady=3.0, cell_steps=10,
                             speed=(1.3, 1.3))
    only = workloads.Sample("b", ttfs=2.0, steady=2.0, cell_steps=10,
                             speed=(1.3, 1.3))
    metrics = workloads.end_to_end([quiet, slow, slow, only], 0.5, gauge)
    assert metrics["ttfs_s"] == pytest.approx((1.0 + 2.0) / 2)
    assert metrics["ops_per_s"] == pytest.approx(2 / (2.0 + 4.0))
    gauge.probe()
    gauge.save()
    assert len(json.loads(history.read_text())["runs"]) == 6
