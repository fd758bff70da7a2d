"""CLI tests: every subcommand runs and prints what it promises."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestList:
    def test_lists_all_models(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        assert "47 models shipped" in out
        assert "43 limpetMLIR-supported" in out
        assert "HodgkinHuxley" in out and "OHara" in out
        assert "no (foreign)" in out

    def test_mentions_class_split(self, capsys):
        _, out = run_cli(capsys, "list")
        assert "8 small / 22 medium / 13 large" in out

    def test_legality_subcommand(self, capsys):
        code, out = run_cli(capsys, "legality", "HodgkinHuxley")
        assert code == 0 and "VECTORIZABLE" in out
        code, out = run_cli(capsys, "legality", "ARPF")
        assert code == 1 and "NOT VECTORIZABLE" in out


class TestDescribe:
    def test_describe_prints_analysis(self, capsys):
        code, out = run_cli(capsys, "describe", "HodgkinHuxley")
        assert code == 0
        assert "states (3)" in out
        assert "rush_larsen" in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["describe", "Nope"])


class TestIR:
    def test_default_backend_vectorized(self, capsys):
        code, out = run_cli(capsys, "ir", "Plonsey")
        assert code == 0
        assert "vector<8xf64>" in out

    def test_width_selects_lanes(self, capsys):
        _, out = run_cli(capsys, "ir", "Plonsey", "--width", "2")
        assert "vector<2xf64>" in out

    def test_baseline_scalar(self, capsys):
        _, out = run_cli(capsys, "ir", "Plonsey", "--backend", "baseline")
        assert "vector<" not in out

    def test_pretty_mode(self, capsys):
        _, out = run_cli(capsys, "ir", "Plonsey", "--pretty")
        assert "scf.for %i" in out

    def test_no_opt_keeps_redundancy(self, capsys):
        _, optimized = run_cli(capsys, "ir", "HodgkinHuxley")
        _, raw = run_cli(capsys, "ir", "HodgkinHuxley", "--no-opt")
        assert len(raw.splitlines()) > len(optimized.splitlines())


class TestRunAndCompare:
    def test_run_reports_timing(self, capsys):
        code, out = run_cli(capsys, "run", "Plonsey", "--cells", "64",
                            "--steps", "20")
        assert code == 0
        assert "ns/cell-step" in out

    def test_compare_checks_equivalence(self, capsys):
        code, out = run_cli(capsys, "compare", "HodgkinHuxley",
                            "--cells", "64", "--steps", "30")
        assert code == 0
        assert "trajectories equivalent: True" in out
        assert "speedup" in out


class TestFigures:
    def test_fig5_table(self, capsys):
        code, out = run_cli(capsys, "figure", "fig5")
        assert code == 0
        assert "sse" in out and "avx512" in out
        assert "paper: 2.90x" in out

    def test_fig6_table(self, capsys):
        code, out = run_cli(capsys, "figure", "fig6")
        assert code == 0
        assert "GrandiPanditVoigt" in out
        assert "760 GFlops/s" in out


class TestResilientRun:
    def test_foreign_model_falls_back_with_exit_code(self, capsys):
        from repro.cli import EXIT_FELL_BACK
        code, out = run_cli(capsys, "run", "ARPF", "--cells", "8",
                            "--steps", "5")
        assert code == EXIT_FELL_BACK
        assert "[baseline" in out
        assert "fell back to 'baseline'" in out
        assert "UnsupportedModelError" in out

    def test_strict_disables_fallback(self, capsys):
        from repro.cli import EXIT_COMPILE_FAILED
        code, _ = run_cli(capsys, "run", "ARPF", "--cells", "8",
                          "--steps", "5", "--strict")
        assert code == EXIT_COMPILE_FAILED

    def test_watchdog_flag_prints_health(self, capsys):
        code, out = run_cli(capsys, "run", "Plonsey", "--cells", "8",
                            "--steps", "20", "--watchdog", "halve_dt")
        assert code == 0
        assert "health: ok" in out

    def test_baseline_request_is_not_a_fallback(self, capsys):
        code, out = run_cli(capsys, "run", "ARPF", "--cells", "8",
                            "--steps", "5", "--backend", "baseline")
        assert code == 0
        assert "fell back" not in out

    def test_no_trailing_assertion_dispatch(self):
        """Every declared subcommand dispatches via argparse defaults."""
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["list"])
        assert callable(args.func)


class TestFaultsCommand:
    def test_smoke_drill_passes(self, capsys):
        code, out = run_cli(capsys, "faults", "--smoke")
        assert code == 0
        assert "9/9 scenarios passed" in out
        assert "PASS pass-exception" in out
        assert "PASS runtime-nan" in out
        assert "PASS worker-crash" in out
        assert "PASS worker-stall" in out
        assert "PASS degradation" in out
        assert "PASS cache-corruption" in out
        assert "PASS sweep" in out
        assert "supervised tier under worker kills" in out

    def test_reproducer_dir_is_honored(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "faults", "--smoke",
                          "--reproducer-dir", str(tmp_path))
        assert code == 0
        bundles = list(tmp_path.iterdir())
        assert bundles, "no reproducer bundles written"
        assert any((b / "meta.json").exists() for b in bundles)


class TestPerfCommand:
    def test_perf_width_flag(self, capsys, tmp_path):
        out_path = tmp_path / "perf.json"
        code, out = run_cli(capsys, "perf", "--model", "FitzHughNagumo",
                            "--cells", "48", "--steps", "5",
                            "--runs", "2", "--width", "4",
                            "--json", str(out_path))
        assert code == 0
        assert "perf — FitzHughNagumo" in out
        # the config is what was measured
        from repro.bench.record import load_record
        config = load_record(out_path)["sections"]["perf"]["config"]
        assert config == {"model_name": "FitzHughNagumo", "n_cells": 48,
                          "n_steps": 5, "dt": 0.01, "runs": 2, "width": 4}


class TestSweep:
    def test_sweep_prints_bench_table(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, out = run_cli(capsys, "sweep", "LuoRudy91",
                            "--param", "GK=0.5:1.0:3",
                            "--cells", "8", "--steps", "5",
                            "--runs", "2", "--width", "4",
                            "--json", str(out_path))
        assert code == 0
        assert "sweep — LuoRudy91" in out
        assert "batched vs loop-of-3" in out
        from repro.bench.record import load_record
        data = load_record(out_path)["sections"]["sweep"]
        assert data["evidence"]["instances"] == 3
        names = {v["name"] for v in data["variants"]}
        assert names == {"loop", "batched"}
        assert set(data["ratios"]) == {"batched_vs_loop"}

    def test_sweep_requires_param(self, capsys):
        code = main(["sweep", "LuoRudy91"])
        assert code == 2

    def test_sweep_rejects_malformed_param(self, capsys):
        assert main(["sweep", "LuoRudy91", "--param", "GK"]) == 2
        assert main(["sweep", "LuoRudy91",
                     "--param", "GK=zero:one"]) == 2

    def test_sweep_rejects_unknown_param(self, capsys):
        code = main(["sweep", "LuoRudy91", "--param", "nope=0.1:1.0:2"])
        assert code == 2
