"""The one perf record (DESIGN.md "Perf record and gate"): the committed
``BENCH.json``, the measurer registry it is re-measured through, and
the ``perf --baseline`` command around the gate."""

from __future__ import annotations

import inspect
import json
import pathlib

import pytest

from repro.bench.record import IDENTITY_KEYS, load_record
from repro.bench.regress import MEASURE, extract_metrics
from repro.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main

REPO = pathlib.Path(__file__).resolve().parents[1]
BENCH = REPO / "BENCH.json"


class TestCommittedRecord:
    def test_loads_with_every_section_and_one_machine(self):
        record = load_record(BENCH)
        assert set(record["sections"]) == set(MEASURE) \
            == {"perf", "sweep", "coldstart"}
        assert set(IDENTITY_KEYS) <= set(record["machine"])
        for section in record["sections"].values():
            assert section["variants"] and section["ratios"]

    def test_metric_names_are_unique(self):
        names = [m["name"] for m in extract_metrics(load_record(BENCH))]
        assert len(names) == len(set(names))
        # every section contributes ratios and absolutes to the gate
        for section in MEASURE:
            mine = [n for n in names if n.startswith(section + ".")]
            assert mine, section

    @pytest.mark.parametrize("name", sorted(MEASURE))
    def test_measurer_accepts_its_recorded_config(self, name):
        config = load_record(BENCH)["sections"][name]["config"]
        inspect.signature(MEASURE[name]).bind(**config)

    def test_it_is_the_only_record(self):
        assert not list(REPO.glob("BENCH_PR*"))
        for path in (REPO / "src").rglob("*.py"):
            text = path.read_text()
            assert "BENCH_PR" not in text, path
            # machine identity has one spelling; the kernel build
            # string is read there and compared nowhere
            if path.name != "record.py":
                assert "platform.platform" not in text, path


def _fake_measurers(monkeypatch, record):
    """Make re-measuring return ``record``'s own sections."""
    from repro.bench import regress
    monkeypatch.setattr(regress, "MEASURE", {
        name: (lambda section=section, **config: section)
        for name, section in record["sections"].items()})


class TestGateCommand:
    def test_passes_trips_and_skips(self, tmp_path, monkeypatch, capsys):
        """The acceptance drill on fakes: same machine -> nothing
        skipped and exit 0; injected slowdown -> exit 1; another CPU
        model -> absolute rows skipped, ratio rows still gated."""
        from repro.bench.record import make_record
        section = load_record(BENCH)["sections"]["sweep"]
        here = make_record({"sweep": section})
        path = tmp_path / "here.json"
        path.write_text(json.dumps(here))
        _fake_measurers(monkeypatch, here)

        out_path = tmp_path / "current.json"
        assert main(["perf", "--baseline", str(path), "--tolerance",
                     "0.25", "--json", str(out_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "0 skipped" in out and "perf gate passed" in out
        # the gate's --json output is itself a valid baseline
        assert load_record(out_path)["sections"]["sweep"] == section

        assert main(["perf", "--baseline", str(path),
                     "--inject-slowdown", "4"]) == EXIT_FAILURE
        assert "PERF REGRESSION: sweep.batched_vs_loop" \
            in capsys.readouterr().err

        here["machine"]["cpu_model"] = "Another CPU"
        path.write_text(json.dumps(here))
        assert main(["perf", "--baseline", str(path)]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()
        assert [r.split()[-1] for r in rows if r.startswith("sweep.")] \
            == ["ok", "skipped", "skipped"]

    def test_unknown_schema_or_section_is_a_usage_error(self, tmp_path,
                                                        capsys):
        missing = tmp_path / "nope.json"
        assert main(["perf", "--baseline", str(missing)]) == EXIT_USAGE
        old = tmp_path / "old.json"
        old.write_text(json.dumps({"benchmark": "BENCH_PR8",
                                   "schema": "limpet-bench/0"}))
        assert main(["perf", "--baseline", str(old)]) == EXIT_USAGE
        assert "limpet-bench/0" in capsys.readouterr().err
        record = load_record(BENCH)
        record["sections"] = {"warp": record["sections"]["sweep"]}
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(record))
        assert main(["perf", "--baseline", str(odd)]) == EXIT_USAGE
        assert "warp" in capsys.readouterr().err
