"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codegen.layout import aos, aosoa, pack_state, unpack_state
from repro.easyml import parse_model, tokenize
from repro.easyml.ast_nodes import (Binary, Call, Expr, Name, Number,
                                    Ternary, Unary)
from repro.frontend.preprocessor import Preprocessor
from repro.runtime.expr_eval import eval_expr
from repro.runtime.lut_runtime import (LUTData, lut_interp_row,
                                       lut_interp_row_vec)

# ---------------------------------------------------------------------------
# expression strategies
# ---------------------------------------------------------------------------

_finite = st.floats(min_value=-100.0, max_value=100.0,
                    allow_nan=False, allow_infinity=False)
_var_names = st.sampled_from(["x", "y", "z"])


def expressions(max_depth=4):
    """Random EasyML expression trees over variables x, y, z."""
    leaves = st.one_of(
        _finite.map(lambda v: Number(round(v, 6))),
        _var_names.map(Name))

    def extend(children):
        safe_unary = st.sampled_from(["sin", "cos", "tanh", "square",
                                      "fabs", "atan"])
        return st.one_of(
            st.tuples(st.sampled_from(["+", "-", "*"]), children,
                      children).map(lambda t: Binary(*t)),
            st.tuples(children,).map(lambda t: Unary("-", t[0])),
            st.tuples(safe_unary, children).map(
                lambda t: Call(t[0], (t[1],))),
            st.tuples(st.sampled_from(["<", ">", "<=", ">="]),
                      children, children).map(
                lambda t: Ternary(Binary(t[0], t[1], t[2]), t[1], t[2])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


class TestLexerProperties:
    @given(st.lists(st.sampled_from(
        ["x", "42", "3.5", "+", "-", "*", "/", "(", ")", ";", "=",
         "exp", "if", "else", "<", ">=", "&&"]), min_size=0, max_size=30))
    def test_token_stream_matches_input_words(self, words):
        """Lexing whitespace-joined tokens recovers exactly those tokens."""
        source = " ".join(words)
        tokens = tokenize(source)
        assert [t.text for t in tokens[:-1]] == words

    @given(st.text(alphabet="abcdefxyz_0123456789 +-*/()<>=;,.?:",
                   max_size=60))
    def test_lexer_never_crashes_on_valid_alphabet(self, text):
        assume(not text.strip().startswith("."))
        try:
            tokens = tokenize(text)
        except Exception as err:  # only LexerError is acceptable
            from repro.easyml import LexerError
            assert isinstance(err, LexerError)
            return
        assert tokens[-1].kind.name == "EOF"


class TestPreprocessorProperties:
    @given(expressions())
    @settings(max_examples=60, deadline=None)
    def test_fold_preserves_value(self, expr):
        """Folding with known constants == direct evaluation."""
        env = {"x": 1.25, "y": -0.5, "z": 3.0}
        pre = Preprocessor(env)
        direct = eval_expr(expr, env)
        assume(math.isfinite(direct))
        folded_value = pre.try_eval(expr)
        assert folded_value is not None
        assert folded_value == pytest.approx(direct, rel=1e-12,
                                             abs=1e-12)

    @given(expressions())
    @settings(max_examples=60, deadline=None)
    def test_partial_fold_preserves_runtime_value(self, expr):
        """Folding only some constants never changes the result."""
        pre = Preprocessor({"y": -0.5, "z": 3.0})   # x stays runtime
        folded = pre.fold(expr)
        full_env = {"x": 0.75, "y": -0.5, "z": 3.0}
        before = eval_expr(expr, full_env)
        after = eval_expr(folded, full_env)
        assume(math.isfinite(before))
        assert after == pytest.approx(before, rel=1e-12, abs=1e-12)

    @given(expressions())
    @settings(max_examples=40, deadline=None)
    def test_str_reparse_identity(self, expr):
        """str() of any expression is valid EasyML for the same tree."""
        reparsed = parse_model(f"r = {expr};").statements[0].expr
        env = {"x": 0.3, "y": 1.7, "z": -2.2}
        assert eval_expr(reparsed, env) == pytest.approx(
            eval_expr(expr, env), rel=1e-12, abs=1e-12, nan_ok=True)


class TestCodegenSemanticsProperty:
    @given(expressions())
    @settings(max_examples=40, deadline=None)
    def test_emitted_ir_matches_reference_eval(self, expr):
        """EasyML -> IR -> lowered Python == direct NumPy evaluation,
        in both scalar and vector form, before and after passes."""
        from repro.codegen.common import ExprEmitter
        from repro.ir import IRBuilder, build_module
        from repro.ir.dialects import func, vector as vec_dialect
        from repro.ir.passes import default_pipeline
        from repro.ir.types import f64, memref_of, index
        from repro.ir.dialects import memref as memref_dialect
        from repro.runtime import lower_function

        env_values = {"x": 0.8, "y": -1.3, "z": 2.4}
        expected = eval_expr(expr, env_values)
        assume(math.isfinite(expected))

        module, _ = build_module()
        fn = func.func(module, "f", [f64, f64, f64], [f64],
                       ["x", "y", "z"])
        b = IRBuilder(fn.entry)
        env = dict(zip(["x", "y", "z"], fn.args))
        result = ExprEmitter(b, env, width=1).emit(expr)
        func.ret(b, [result])
        default_pipeline(verify_each=False).run(module, fixed_point=True)
        kernel = lower_function(module, "f", mode="scalar")
        got = kernel.fn(env_values["x"], env_values["y"], env_values["z"])
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestLayoutProperties:
    layouts = st.sampled_from(["aos", "aosoa2", "aosoa8"])

    @staticmethod
    def _make(kind, n_states):
        return {"aos": aos(n_states), "aosoa2": aosoa(n_states, 2),
                "aosoa8": aosoa(n_states, 8)}[kind]

    @given(layouts, st.integers(1, 6), st.integers(1, 40),
           st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_pack_unpack_round_trip(self, kind, n_states, n_cells, seed):
        layout = self._make(kind, n_states)
        rng = np.random.default_rng(seed)
        padded = layout.padded_cells(n_cells)
        values = rng.normal(size=(padded, n_states))
        buffer = pack_state(values, layout)
        recovered = unpack_state(buffer, layout, padded)
        np.testing.assert_array_equal(recovered, values)

    @given(layouts, st.integers(1, 6), st.integers(1, 40))
    @settings(max_examples=80, deadline=None)
    def test_offsets_are_a_bijection(self, kind, n_states, n_cells):
        layout = self._make(kind, n_states)
        padded = layout.padded_cells(n_cells)
        cells = np.arange(padded)
        seen = set()
        for slot in range(n_states):
            for off in layout.offsets(cells, slot):
                assert off not in seen
                seen.add(int(off))
        assert max(seen) < layout.buffer_size(padded)


class TestLUTProperties:
    @given(st.floats(min_value=-50, max_value=50, allow_nan=False),
           st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_scalar_vector_interp_agree(self, key, seed):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(11, 3))
        lut = LUTData("v", -5.0, 1.0, rows, ["a", "b", "c"])
        scalar = lut_interp_row(lut, key)
        vec = lut_interp_row_vec(lut, np.array([key]))
        for c in range(3):
            assert vec[c][0] == scalar[c]

    @given(st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_interp_within_row_envelope(self, key):
        """Linear interpolation never leaves [min, max] of its bracket."""
        rows = np.linspace(0, 1, 11)[:, None] ** 2
        lut = LUTData("v", -5.0, 1.0, rows, ["a"])
        value = lut_interp_row(lut, key)[0]
        assert rows.min() - 1e-12 <= value <= rows.max() + 1e-12

    @given(st.integers(0, 10))
    def test_exact_at_grid(self, idx):
        rows = np.arange(22.0).reshape(11, 2)
        lut = LUTData("v", -5.0, 1.0, rows, ["a", "b"])
        key = -5.0 + idx
        assert lut_interp_row(lut, key) == tuple(rows[idx])


class TestPassSemanticsProperty:
    @given(st.integers(0, 2 ** 31), st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_pipeline_preserves_gate_model_trajectories(self, seed,
                                                        n_cells):
        """Random initial states: optimized == unoptimized kernels."""
        from repro.codegen import generate_limpet_mlir
        from repro.frontend import load_model
        from repro.runtime import KernelRunner, compare_trajectories
        from tests.conftest import GATE_SOURCE

        model = load_model(GATE_SOURCE, "GateTest")
        raw = KernelRunner(generate_limpet_mlir(model, 4), optimize=False)
        opt = KernelRunner(generate_limpet_mlir(model, 4), optimize=True)
        rng1 = np.random.default_rng(seed)
        rng2 = np.random.default_rng(seed)
        s1 = raw.make_state(n_cells, perturbation=0.02, rng=rng1)
        s2 = opt.make_state(n_cells, perturbation=0.02, rng=rng2)
        raw.run(s1, 30, 0.01)
        opt.run(s2, 30, 0.01)
        assert compare_trajectories(s1, s2, rtol=1e-12)
