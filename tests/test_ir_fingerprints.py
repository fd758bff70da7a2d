"""The generators' printed IR is pinned: tier-1 slice of the matrix.

``tools/ir_fingerprints.py --check`` (CI) covers all 47 models x every
variant; here every variant of five representative models plus the two
default kernels of the other 42.
"""

import json

import pytest

from repro.codegen import generate_baseline
from repro.models import load_model

from .test_artifact_workflow import load_tool


@pytest.fixture(scope="module")
def tool():
    return load_tool("ir_fingerprints")


def test_subset_matches_the_record(tool):
    assert tool.mismatches(subset=True) == {}


def test_record_covers_the_full_matrix(tool):
    recorded = json.loads(tool.RECORD.read_text())
    assert set(recorded) == {key for key, _ in tool.entries()}
    refusals = {k for k, v in recorded.items() if v.startswith("refused:")}
    assert len(recorded) == 47 * 33 + 2 and len(refusals) == 4 * 30
    assert all(v == "refused:UnsupportedModelError"
               for k, v in recorded.items() if k in refusals)


def test_fingerprint_sees_spec_and_module_changes(tool):
    recorded = json.loads(tool.RECORD.read_text())
    model = load_model("FitzHughNagumo")
    key = "FitzHughNagumo/baseline/lut=linear"
    assert tool.fingerprint(lambda: generate_baseline(model)) == recorded[key]
    renamed = tool.fingerprint(
        lambda: generate_baseline(model, function_name="other"))
    unlutted = tool.fingerprint(
        lambda: generate_baseline(model, use_lut=False))
    assert len({recorded[key], renamed, unlutted}) == 3
