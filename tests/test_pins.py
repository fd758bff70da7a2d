"""The pin registry (``tests/pins.py``): one serialisation, one
whole-record comparison and one version rule for every corpus.

The rule tests run the registry's CLI on a temporary record of one
versioned pin; the kernel-state test runs the real pin on a slice of its
matrix.
"""

import json

import pytest

from repro.codegen import common

from . import pins
from . import test_kernel_state_corpus as kernel_state


def test_every_corpus_is_a_pin_in_the_one_serialisation():
    assert sorted(path.stem for path in pins.DATA.glob("*.json")) \
        == sorted(pin.name for pin in pins.PINS)
    for pin in pins.PINS:
        text = pin.path.read_text()
        assert pins.serialise(json.loads(text)) == text, pin.name


def test_differences_are_reported_by_path():
    recorded = {"v": 1, "s": {"a": "x", "b": ["p", "q"], "gone": "y"}}
    now = {"v": 1, "s": {"a": "z", "b": ["p"], "new": "w"}}
    assert [(d.kind, "/".join(d.path)) for d in
            pins.differences(recorded, now)] == [
        ("moved", "s/a"), ("orphaned", "s/b/1"), ("orphaned", "s/gone"),
        ("missing", "s/new")]


@pytest.fixture
def toy(tmp_path, monkeypatch):
    """A one-pin registry in ``tmp_path`` whose ``cells`` section is
    recorded under ``GENERATOR_VERSION``; returns the live cells."""
    cells = {"M/a": "1" * 64, "M/b": "2" * 64}
    pin = pins.Pin("toy", lambda: {
        "generator_version": common.GENERATOR_VERSION, "cells": dict(cells)},
        {"cells": pins.GENERATOR})
    monkeypatch.setattr(pins, "DATA", tmp_path)
    monkeypatch.setattr(pins, "PINS", (pin,))
    assert pins.main(["--write"]) == 0
    assert pins.main(["--check"]) == 0
    return cells


def test_check_says_bump_for_a_section_moved_under_its_version(
        toy, capsys):
    toy["M/a"] = "0" * 64
    capsys.readouterr()
    assert pins.main(["--check", "--only", "toy"]) == 1
    out = capsys.readouterr().out
    assert "MOVED toy cells/M/a" in out
    assert "bump GENERATOR_VERSION in src/repro/codegen/common.py" in out


def test_write_refuses_a_section_moved_under_its_version(
        toy, monkeypatch, capsys):
    recorded = pins.read("toy")
    toy["M/a"] = "0" * 64
    assert pins.main(["--write"]) == 1
    assert "refusing to write toy" in capsys.readouterr().out
    assert pins.read("toy") == recorded
    monkeypatch.setattr(common, "GENERATOR_VERSION",
                        common.GENERATOR_VERSION + 1)
    assert pins.main(["--check"]) == 1
    assert "bump" not in capsys.readouterr().out
    assert pins.main(["--write"]) == 0
    assert pins.read("toy") == {"generator_version": common.GENERATOR_VERSION,
                                "cells": toy}
    assert pins.main(["--check"]) == 0


def test_write_drops_an_orphan_that_check_reports(toy, capsys):
    """A retired key pins nothing: --check fails on it and --write drops
    it with no version bump, since no request yields it any more."""
    del toy["M/b"]
    capsys.readouterr()
    assert pins.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "ORPHANED toy cells/M/b" in out and "--write" in out
    assert "bump" not in out
    assert pins.main(["--write"]) == 0
    assert pins.read("toy")["cells"] == toy
    assert pins.main(["--check"]) == 0


def test_kernel_state_pin_fails_on_an_orphaned_key(
        tmp_path, monkeypatch, capsys):
    key = "FitzHughNagumo/default"
    recorded = pins.read("kernel_state_corpus")
    record = {"numpy": recorded["numpy"], "states": {
        key: recorded["states"][key], "Retired/w16/aosoa": {}}}
    (tmp_path / "kernel_state_corpus.json").write_text(
        pins.serialise(record))
    monkeypatch.setattr(pins, "DATA", tmp_path)
    every = kernel_state.kernels
    monkeypatch.setattr(kernel_state, "kernels", lambda: [
        entry for entry in every() if entry[0] == key])
    assert pins.main(["--check", "--only", "kernel_state_corpus"]) == 1
    assert "ORPHANED kernel_state_corpus states/Retired/w16/aosoa" \
        in capsys.readouterr().out
