"""Tests for the reference NumPy expression evaluator."""

import math

import numpy as np
import pytest

from repro.easyml import parse_model
from repro.easyml.errors import SemanticError
from repro.runtime.expr_eval import eval_expr


def expr_of(text):
    return parse_model(f"r = {text};").statements[0].expr


class TestScalarEvaluation:
    @pytest.mark.parametrize("text,env,expected", [
        ("1 + 2*3", {}, 7.0),
        ("x / y", {"x": 1.0, "y": 4.0}, 0.25),
        ("square(x) + cube(2)", {"x": 3.0}, 17.0),
        ("exp(0) + log(1)", {}, 1.0),
        ("x % 3", {"x": 7.0}, 1.0),
        ("min(x, 2) + max(x, 2)", {"x": 5.0}, 7.0),
        ("-x", {"x": 2.0}, -2.0),
        ("pow(2, 10)", {}, 1024.0),
        ("fabs(-3)", {}, 3.0),
        ("atan2(0, 1)", {}, 0.0),
    ])
    def test_arithmetic(self, text, env, expected):
        assert eval_expr(expr_of(text), env) == pytest.approx(expected)

    @pytest.mark.parametrize("text,expected", [
        ("1 < 2", 1.0), ("2 <= 1", 0.0), ("3 == 3", 1.0),
        ("3 != 3", 0.0), ("1 && 0", 0.0), ("1 || 0", 1.0),
        ("!0", 1.0), ("!5", 0.0),
    ])
    def test_boolean_as_float(self, text, expected):
        assert eval_expr(expr_of(text), {}) == expected

    def test_ternary(self):
        assert eval_expr(expr_of("x > 0 ? 10 : 20"), {"x": 1.0}) == 10.0
        assert eval_expr(expr_of("x > 0 ? 10 : 20"), {"x": -1.0}) == 20.0

    def test_unbound_variable(self):
        with pytest.raises(SemanticError):
            eval_expr(expr_of("ghost"), {})

    def test_unknown_function(self):
        with pytest.raises(SemanticError):
            eval_expr(expr_of("frobnicate(1)"), {})

    def test_ieee_semantics(self):
        assert eval_expr(expr_of("1/x"), {"x": 0.0}) == math.inf
        assert math.isnan(eval_expr(expr_of("log(x)"), {"x": -1.0}))


class TestArrayEvaluation:
    def test_elementwise_over_arrays(self):
        x = np.array([1.0, 2.0, 3.0])
        result = eval_expr(expr_of("square(x) + 1"), {"x": x})
        np.testing.assert_array_equal(result, [2.0, 5.0, 10.0])

    def test_ternary_uses_where(self):
        x = np.array([-1.0, 1.0])
        result = eval_expr(expr_of("x > 0 ? x : -x"), {"x": x})
        np.testing.assert_array_equal(result, [1.0, 1.0])

    def test_ternary_where_evaluates_both_branches_safely(self):
        """The guarded-singularity idiom used by the models."""
        x = np.array([0.0, 1.0])
        expr = expr_of("fabs(x) < 1e-9 ? 1 : x/(1-exp(-x))")
        result = eval_expr(expr, {"x": x})
        assert result[0] == 1.0
        assert result[1] == pytest.approx(1.0 / (1 - math.exp(-1.0)))

    def test_mixed_scalar_array_broadcast(self):
        x = np.array([1.0, 2.0])
        result = eval_expr(expr_of("x * k"), {"x": x, "k": 3.0})
        np.testing.assert_array_equal(result, [3.0, 6.0])

    def test_logical_over_arrays(self):
        x = np.array([0.0, 1.0, 2.0])
        result = eval_expr(expr_of("x > 0 && x < 2"), {"x": x})
        np.testing.assert_array_equal(result, [0.0, 1.0, 0.0])

    def test_erf_vectorized_close_to_math(self):
        x = np.linspace(-3, 3, 13)
        result = eval_expr(expr_of("erf(x)"), {"x": x})
        expected = [math.erf(v) for v in x]
        np.testing.assert_allclose(result, expected, atol=2e-7)


class TestEvaluatePlan:
    def test_matches_kernel_for_model_computations(self, gate_model):
        """Reference evaluator reproduces one compute step exactly."""
        from repro.codegen import generate_baseline
        from repro.runtime import KernelRunner
        runner = KernelRunner(generate_baseline(gate_model, use_lut=False))
        state = runner.make_state(1)
        env = {name: state.state_of(name)[0]
               for name in gate_model.states}
        env["Vm"] = state.externals["Vm"][0]
        env.update(gate_model.params)
        env.update(gate_model.folded_constants)
        for comp in gate_model.computations:
            env[comp.target] = eval_expr(comp.expr, env)
        runner.compute_step(state, 0.01)
        assert state.externals["Iion"][0] == pytest.approx(env["Iion"],
                                                           rel=1e-12)
