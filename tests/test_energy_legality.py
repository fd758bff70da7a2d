"""Tests for the §5 legality analysis."""

from repro.codegen import check_simd_legality, generate_limpet_mlir
from repro.frontend import load_model
from repro.models import load_model as load_registry_model


class TestLegality:
    def test_clean_model_passes_all_criteria(self):
        report = check_simd_legality(load_registry_model("HodgkinHuxley"))
        assert report.vectorizable
        assert report.findings == []

    def test_foreign_call_is_a_blocker(self):
        report = check_simd_legality(load_registry_model("Campbell"))
        assert not report.vectorizable
        assert any(f.criterion == "expressible" and f.severity == "blocker"
                   for f in report.findings)

    def test_wide_state_warns_on_access_regularity(self):
        report = check_simd_legality(
            load_registry_model("IyerMazhariWinslow"))
        assert report.vectorizable
        assert any(f.criterion == "regular-access"
                   for f in report.warnings)

    def test_conditional_heavy_model_warns(self):
        model = load_model("""
            Vm; .external(); Iion; .external();
            a = (Vm > 0) ? exp(Vm/10) : exp(-Vm/20);
            b = (Vm > -40) ? a*2 : a/2;
            c = (Vm > -60) ? b+1 : b-1;
            diff_x = (Vm > -50) ? (a - x) : (b + c - x);
            x_init = 0;
            Iion = (Vm < 0) ? 0.1*(Vm+80) : 0.2*(Vm+80);
        """, "Branchy")
        report = check_simd_legality(model)
        assert report.vectorizable        # selects are legal, just costly
        assert any(f.criterion == "simd-friendly-control-flow"
                   for f in report.warnings)

    def test_verdict_matches_backend_behaviour(self):
        """The report's verdict must agree with what codegen does."""
        from repro.codegen import UnsupportedModelError
        from repro.models import ALL_MODELS, UNSUPPORTED_MODELS
        for name in list(ALL_MODELS[:5]) + UNSUPPORTED_MODELS:
            model = load_registry_model(name)
            report = check_simd_legality(model)
            try:
                generate_limpet_mlir(model, 8)
                generated = True
            except UnsupportedModelError:
                generated = False
            assert generated == report.vectorizable, name

    def test_describe_readable(self):
        report = check_simd_legality(load_registry_model("Tong"))
        text = report.describe()
        assert "NOT VECTORIZABLE" in text
        assert "ach_release" in text
