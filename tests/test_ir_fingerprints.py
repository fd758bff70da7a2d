"""The generators' printed IR is pinned: tier-1 slice of the matrix.

``tools/ir_fingerprints.py --check`` (CI) covers all 47 models x every
variant; here every variant of five representative models plus the two
default kernels of the other 42.
"""

import json

import pytest

from repro.codegen import generate_baseline
from repro.codegen.common import GENERATOR_VERSION
from repro.models import load_model

from .test_artifact_workflow import load_tool


@pytest.fixture(scope="module")
def tool():
    return load_tool("ir_fingerprints")


def test_subset_matches_the_record(tool):
    assert tool.mismatches(subset=True) == {}


def test_record_is_for_this_generator_version(tool):
    """Cells that move need a bump, and a bump needs a re-record."""
    version, _ = tool.read_record()
    assert version == GENERATOR_VERSION
    assert tool.verdict(0, version) == ""
    assert "bump GENERATOR_VERSION" in tool.verdict(3, version)
    assert "re-record" in tool.verdict(0, version - 1)


def test_write_refuses_moved_cells_under_the_recorded_version(
        tool, tmp_path, monkeypatch, capsys):
    version, cells = tool.read_record()
    key = "FitzHughNagumo/baseline/lut=linear"
    record = tmp_path / "record.json"
    record.write_text(json.dumps(
        {"generator_version": version, "cells": {key: "0" * 64}}))
    monkeypatch.setattr(tool, "RECORD", record)
    monkeypatch.setattr(tool, "entries", lambda subset=False: [
        (key, lambda: generate_baseline(load_model("FitzHughNagumo")))])
    assert tool.main(["--check"]) == 1
    assert tool.main(["--write"]) == 1
    assert "bump GENERATOR_VERSION" in capsys.readouterr().out
    assert json.loads(record.read_text())["cells"][key] == "0" * 64
    monkeypatch.setattr(tool, "GENERATOR_VERSION", version + 1)
    assert tool.main(["--write"]) == 0
    assert json.loads(record.read_text()) == {
        "generator_version": version + 1, "cells": {key: cells[key]}}
    assert tool.main(["--check"]) == 0


def test_record_covers_the_full_matrix(tool):
    _, recorded = tool.read_record()
    assert set(recorded) == {key for key, _ in tool.entries()}
    refusals = {k for k, v in recorded.items() if v.startswith("refused:")}
    assert len(recorded) == 47 * 33 + 2 and len(refusals) == 4 * 30
    assert all(v == "refused:UnsupportedModelError"
               for k, v in recorded.items() if k in refusals)


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
