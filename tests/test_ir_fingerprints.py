"""The generators' printed IR and the lowered source are pinned: tier-1
slice of the matrix.

``tools/ir_fingerprints.py --check`` (CI) covers all 47 models x every
variant and 261 lowerings; here every variant of five representative
models plus the two default kernels of the other 42, and the lowered
source of those five's two default kernels.
"""

import json

import pytest

from repro.codegen import generate_baseline
from repro.codegen.common import GENERATOR_VERSION
from repro.models import load_model
from repro.runtime import lowering

from .test_artifact_workflow import load_tool


@pytest.fixture(scope="module")
def tool():
    return load_tool("ir_fingerprints")


def test_subset_matches_the_record(tool):
    assert tool.mismatches(subset=True) == {}


def test_lowered_source_subset_matches_the_record(tool):
    assert tool.mismatches(subset=True, pin=tool.SOURCE) == {}


def test_record_is_for_this_generator_version(tool):
    """Cells that move need a bump, and a bump needs a re-record."""
    version, _ = tool.read_record()
    assert version == GENERATOR_VERSION
    assert tool.verdict(0, version) == ""
    assert "bump GENERATOR_VERSION" in tool.verdict(3, version)
    assert "re-record" in tool.verdict(0, version - 1)


def test_record_is_for_this_lowering_version(tool):
    version, _ = tool.read_record(tool.SOURCE)
    assert version == lowering.LOWERING_VERSION
    assert tool.verdict(0, version, tool.SOURCE) == ""
    assert "bump LOWERING_VERSION" in tool.verdict(3, version, tool.SOURCE)
    assert "re-record" in tool.verdict(0, version - 1, tool.SOURCE)


def test_write_refuses_moved_cells_under_the_recorded_version(
        tool, tmp_path, monkeypatch, capsys):
    version, cells = tool.read_record()
    lowering_version, sources = tool.read_record(tool.SOURCE)
    key = "FitzHughNagumo/baseline/lut=linear"
    record = tmp_path / "record.json"
    stale = {"generator_version": version, "cells": {key: "0" * 64},
             "lowering_version": lowering_version,
             "sources": {key: sources[key]}}
    record.write_text(json.dumps(stale))
    monkeypatch.setattr(tool, "RECORD", record)
    monkeypatch.setattr(tool, "entries", lambda subset=False: [
        (key, lambda: generate_baseline(load_model("FitzHughNagumo")))])
    assert tool.main(["--check"]) == 1
    assert tool.main(["--write"]) == 1
    assert "bump GENERATOR_VERSION" in capsys.readouterr().out
    assert json.loads(record.read_text()) == stale
    monkeypatch.setattr(tool, "GENERATOR_VERSION", version + 1)
    assert tool.main(["--write"]) == 0
    assert json.loads(record.read_text()) == dict(
        stale, generator_version=version + 1, cells={key: cells[key]})
    assert tool.main(["--check"]) == 0
    # the same rule for the lowered source and LOWERING_VERSION
    record.write_text(json.dumps(dict(stale, cells={key: cells[key]},
                                      sources={key: "0" * 64})))
    monkeypatch.setattr(tool, "GENERATOR_VERSION", version)
    assert tool.main(["--check"]) == 1
    assert tool.main(["--write"]) == 1
    assert "bump LOWERING_VERSION" in capsys.readouterr().out
    monkeypatch.setattr(lowering, "LOWERING_VERSION", lowering_version + 1)
    assert tool.main(["--write"]) == 0
    assert json.loads(record.read_text())["sources"] == {key: sources[key]}
    assert tool.main(["--check"]) == 0


def test_record_covers_the_full_matrix(tool):
    _, recorded = tool.read_record()
    assert set(recorded) == {key for key, _ in tool.entries()}
    refusals = {k for k, v in recorded.items() if v.startswith("refused:")}
    assert len(recorded) == 47 * 33 + 2 and len(refusals) == 4 * 30
    assert all(v == "refused:UnsupportedModelError"
               for k, v in recorded.items() if k in refusals)
    _, sources = tool.read_record(tool.SOURCE)
    assert set(sources) == {key for key, _ in tool.source_entries()}
    # both default kernels of all 47 (+ the promoted model), the other
    # 31 variants and two lowering options of the five
    assert len(sources) == 2 * 48 + 5 * 31 + 5 * 2


def test_fingerprint_sees_spec_and_module_changes(tool):
    _, recorded = tool.read_record()
    model = load_model("FitzHughNagumo")
    key = "FitzHughNagumo/baseline/lut=linear"
    assert tool.fingerprint(lambda: generate_baseline(model)) == recorded[key]
    renamed = tool.fingerprint(
        lambda: generate_baseline(model, function_name="other"))
    unlutted = tool.fingerprint(
        lambda: generate_baseline(model, use_lut=False))
    assert len({recorded[key], renamed, unlutted}) == 3
