"""Foreign-function tests: the 43-of-47 supported-models story (§3.3.2)."""

import numpy as np
import pytest

from repro.codegen import (generate_baseline, generate_icc_simd,
                           generate_limpet_mlir)
from repro.codegen.common import UnsupportedModelError
from repro.codegen import generate_plugin
from repro.frontend import load_model
from repro.models import (ALL_MODELS, UNSUPPORTED_MODELS, all_model_files,
                          load_model as load_registry_model,
                          verify_registry)
from repro.runtime import KernelRunner, register_foreign
from repro.runtime.foreign import foreign_function, registered_foreign

FOREIGN_SOURCE = """
Vm; .external();
Iion; .external();
sac_tension; .foreign();
diff_lam = 0.001*(1.0 + 0.0001*(Vm+80) - lam); lam_init = 1.0;
Iion = 0.05*sac_tension(lam)*(Vm + 20.0) + 0.13*(Vm + 80.0);
"""


@pytest.fixture
def foreign_model():
    return load_model(FOREIGN_SOURCE, "SACTest")


class TestFrontend:
    def test_foreign_declared(self, foreign_model):
        assert foreign_model.foreign_functions == {"sac_tension"}

    def test_foreign_name_is_not_a_variable(self, foreign_model):
        assert "sac_tension" not in foreign_model.variables

    def test_foreign_call_never_folds(self):
        model = load_model("""
            Iion; .external();
            sac_tension; .foreign();
            k = sac_tension(1.5);
            diff_x = -x; x_init = 1;
            Iion = k*x;
        """, "Fold")
        assert "k" not in model.folded_constants
        assert any(c.target == "k" for c in model.computations)

    def test_foreign_call_excluded_from_lut(self):
        model = load_model("""
            Vm; .external(); .lookup(-100,100,0.1);
            Iion; .external();
            sac_tension; .foreign();
            a = sac_tension(Vm);
            b = exp(Vm/20);
            diff_x = a - x + b; x_init = 0;
            Iion = 0.1*(Vm+80);
        """, "LUTX")
        names = {n for t in model.lut_tables for n in t.column_names}
        assert "a" not in names and "b" in names

    def test_undeclared_function_still_rejected(self):
        from repro.easyml.errors import SemanticError
        with pytest.raises(SemanticError, match="unknown function"):
            KernelRunner(generate_baseline(load_model(
                "Iion; .external(); diff_x = -x; x_init = 1;"
                "Iion = frobnicate(x);", "Bad")))


class TestBackends:
    def test_baseline_compiles_and_runs(self, foreign_model):
        runner = KernelRunner(generate_baseline(foreign_model))
        result = runner.simulate(8, 200, 0.01)
        assert np.isfinite(result.state.external("Vm")).all()

    def test_baseline_declares_foreign_symbol(self, foreign_model):
        kernel = generate_baseline(foreign_model)
        decl = kernel.module.lookup_func("foreign_sac_tension")
        assert decl is not None
        assert decl.attributes.get("declaration")

    def test_limpet_mlir_rejects(self, foreign_model):
        with pytest.raises(UnsupportedModelError, match="43 of 47"):
            generate_limpet_mlir(foreign_model, 8)

    def test_icc_simd_rejects(self, foreign_model):
        with pytest.raises(UnsupportedModelError):
            generate_icc_simd(foreign_model, 8)

    def test_plugin_rejects(self, foreign_model):
        with pytest.raises(UnsupportedModelError):
            generate_plugin(foreign_model, 8)

    def test_foreign_result_feeds_dynamics(self, foreign_model):
        """The foreign call's value must actually matter."""
        runner = KernelRunner(generate_baseline(foreign_model))
        r1 = runner.simulate(4, 100, 0.01)
        register_foreign("sac_tension", lambda s: 40.0 * s)
        try:
            runner2 = KernelRunner(generate_baseline(foreign_model))
            r2 = runner2.simulate(4, 100, 0.01)
            assert not np.allclose(r1.state.external("Vm"),
                                   r2.state.external("Vm"))
        finally:
            from repro.runtime.foreign import _sac_tension
            register_foreign("sac_tension", _sac_tension)


class TestRegistry:
    def test_47_files_43_supported(self):
        verify_registry()
        assert len(all_model_files()) == 47
        assert len(ALL_MODELS) == 43
        assert len(UNSUPPORTED_MODELS) == 4

    @pytest.mark.parametrize("name", UNSUPPORTED_MODELS)
    def test_unsupported_model_baseline_only(self, name):
        model = load_registry_model(name)
        assert model.foreign_functions, name
        runner = KernelRunner(generate_baseline(model))
        result = runner.simulate(8, 200, 0.01)
        assert np.isfinite(result.state.external("Vm")).all()
        with pytest.raises(UnsupportedModelError):
            generate_limpet_mlir(model, 8)

    def test_supported_models_have_no_foreign_calls(self):
        for name in ALL_MODELS:
            assert not load_registry_model(name).foreign_functions, name


class TestRegistryAPI:
    def test_lookup_and_replace(self):
        original = foreign_function("ach_release")
        assert callable(original)
        assert "ach_release" in registered_foreign()

    def test_missing_function_raises(self):
        with pytest.raises(KeyError, match="not registered"):
            foreign_function("does_not_exist")

    def test_default_implementations_numpy_compatible(self):
        for name, fn in registered_foreign().items():
            arity = fn.__code__.co_argcount
            args = [np.linspace(0.5, 2.0, 5)] * arity
            out = fn(*args)
            assert np.asarray(out).shape == (5,), name
