"""One op table (DESIGN.md §3.2): every consumer reads the registry row.

Parametrised from ``registered_ops()`` and ``BUILTINS``, so a new op or
builtin is covered by registering it.
"""

import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from repro.bench.harness import kernel_profile
from repro.codegen import generate_baseline, generate_limpet_mlir
from repro.codegen.common import ExprEmitter
from repro.easyml.ast_nodes import Call, Name, Number
from repro.easyml.builtins import BUILTINS
from repro.easyml.errors import SemanticError
from repro.frontend import load_model as load_source
from repro.frontend.preprocessor import Preprocessor
from repro.ir.builder import IRBuilder, build_module
from repro.ir.core import registered_ops
from repro.ir.dialects import func as func_dialect
from repro.ir.types import broadcast_type, f64
from repro.models import all_model_files, load_model
from repro.runtime import KernelRunner
from repro.runtime.expr_eval import eval_expr
from repro.runtime.interpreter import Interpreter
from repro.runtime.lowering import _HELPER_GLOBALS

COST_CLASSES = {"simple", "div", "exp", "pow", "int", "none"}
#: lowered by ``_lower_special``: a cost class and no spelling
BESPOKE = {"arith.cmpf", "arith.cmpi", "arith.select", "arith.constant"}

ELEMENTWISE = {name: info for name, info in registered_ops().items()
               if name.split(".")[0] in ("arith", "math") and info.pure}
FLOAT_ROWS = {name: info for name, info in ELEMENTWISE.items()
              if info.scalar and info.cost != "int"}

SAMPLE = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 710.0, 1e308)


#: rows whose scalar spelling is further than 4 ulp from NumPy's
ULPS = {"math.cbrt": 128}    # ``abs(x) ** (1.0 / 3.0)``: 1/3 is no double
#: operands on which the two engines are known to land in different
#: classes.  All three spellings are in zoo kernels (``max`` 33 call
#: sites, ``pow`` 197), so closing one is a LOWERING_VERSION bump with
#: its own record, not a table edit.
KNOWN_DIVERGENCES = {
    # Python's max / min keep the first operand when the second is NaN;
    # np.maximum / np.minimum propagate it
    "arith.maximumf": lambda a, b: math.isnan(b) and not math.isnan(a),
    "arith.minimumf": lambda a, b: math.isnan(b) and not math.isnan(a),
    # C99 pow(-inf, 0.5) is +inf; NumPy's power says NaN
    "math.powf": lambda a, b: (a, b) == (-math.inf, 0.5),
}


def _arity(info) -> int:
    return 2 if "{1}" in info.numpy else 1


def _operands(arity):
    if arity == 1:
        return [(x,) for x in SAMPLE]
    return [(x, y) for x in SAMPLE for y in SAMPLE]


def _kind(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    return "finite"


def _ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


# ---------------------------------------------------------------------------
# the op rows
# ---------------------------------------------------------------------------


def test_the_math_dialect_has_its_27_rows():
    assert sum(name.startswith("math.") for name in ELEMENTWISE) == 27


@pytest.mark.parametrize("name", sorted(ELEMENTWISE))
def test_every_elementwise_op_names_its_columns(name):
    info = ELEMENTWISE[name]
    assert info.cost in COST_CLASSES
    if name in BESPOKE:
        assert not info.numpy and not info.scalar
    else:
        assert info.py_eval is not None
        assert info.numpy and info.scalar


@pytest.mark.parametrize("name", sorted(FLOAT_ROWS))
def test_scalar_spelling_has_ieee_results_like_the_vector_engine(name):
    """The scalar engine's spelling and the op's NumPy evaluation land
    in the same class (NaN / +inf / -inf / finite, finite within 4 ulp:
    libm and NumPy are different implementations) and neither raises."""
    info = FLOAT_ROWS[name]
    arity = _arity(info)
    scalar = eval("lambda a, b=None: " + info.scalar.format("a", "b"),
                  dict(_HELPER_GLOBALS))
    for operands in _operands(arity):
        got = scalar(*operands)
        with np.errstate(all="ignore"):
            want = info.py_eval(*operands)
        if name in KNOWN_DIVERGENCES and KNOWN_DIVERGENCES[name](*operands):
            assert _kind(got) != _kind(want)     # drop the entry when fixed
            continue
        assert _kind(got) == _kind(want), (operands, got, want)
        if _kind(got) == "finite":
            assert _ulps(float(got), float(want)) <= ULPS.get(name, 4), \
                (operands, got, want)


@pytest.mark.parametrize("name", sorted(set(ELEMENTWISE) - BESPOKE))
def test_both_spellings_evaluate_in_the_kernel_namespace(name):
    """Every helper a spelling names exists, and on a plain operand the
    two engines' spellings compute what ``py_eval`` does."""
    info = ELEMENTWISE[name]
    operands = (7, 2) if info.cost == "int" else (0.75, 0.5)
    operands = operands[:_arity(info)]
    want = info.py_eval(*operands)
    scalar = eval(info.scalar.format(*map(repr, operands)),
                  dict(_HELPER_GLOBALS))
    assert scalar == pytest.approx(want, rel=1e-15)
    lanes = eval(info.numpy.format("a", "b"), dict(
        _HELPER_GLOBALS, **{k: np.full(3, v)
                            for k, v in zip("ab", operands)}))
    # erf on an array is the 1.5e-7 rational approximation
    np.testing.assert_allclose(lanes, np.full(3, want), rtol=1e-15,
                               atol=2e-7 if name == "math.erf" else 0)


PROBED = ("sin", "cos", "tan", "floor", "ceil", "exp", "sinh", "tanh",
          "atan", "fabs", "erf", "sqrt", "log")


@pytest.mark.parametrize("fn", PROBED)
def test_a_diverged_state_reads_the_same_in_both_engines(fn):
    """``x`` overflows within 40 steps; a baseline kernel calling
    ``fn(x)`` must hand the watchdog the NaN / inf the vector kernel
    does, not raise (sin / cos / tan / floor / ceil did)."""
    model = load_source(f"""
Vm; .external();
Iion; .external();
x_init = 2.0;
diff_x = x*x*1e30;
Iion = {fn}(x);
""", f"probe_{fn}")
    results = []
    for generated in (generate_baseline(model),
                      generate_limpet_mlir(model, width=8)):
        runner = KernelRunner(generated)
        state = runner.make_state(8)
        with np.errstate(all="ignore"):
            runner.run(state, 40, 0.01)
        results.append(float(state.external("Iion")[0]))
    assert not math.isfinite(results[0]) or fn in ("tanh", "atan", "erf")
    np.testing.assert_array_equal(results[0], results[1])


# ---------------------------------------------------------------------------
# the EasyML builtins
# ---------------------------------------------------------------------------

FINITE = (0.3, 0.75)


def _emit_and_interpret(call: Call, width: int, values):
    """Emit ``call`` over function arguments and run the interpreter."""
    ty = broadcast_type(f64, width)
    names = [arg.identifier for arg in call.args]
    module, _ = build_module()
    fn = func_dialect.func(module, "f", [ty] * len(names), [ty], names)
    b = IRBuilder(fn.entry)
    result = ExprEmitter(b, dict(zip(names, fn.args)), width=width).emit(call)
    func_dialect.ret(b, [result])
    args = [np.full(width, v) if width > 1 else v for v in values]
    return Interpreter(module).call("f", *args)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_builtin_folds_evaluates_and_emits(name):
    builtin = BUILTINS[name]
    values = FINITE[:builtin.arity]
    folded = Preprocessor().eval(
        Call(name, tuple(Number(v) for v in values)))
    assert math.isfinite(folded)
    call = Call(name, tuple(Name(f"x{i}") for i in range(builtin.arity)))
    env = {f"x{i}": v for i, v in enumerate(values)}
    scalar = eval_expr(call, env)
    array = eval_expr(call, {k: np.full(3, v) for k, v in env.items()})
    assert array.shape == (3,)
    for got in (scalar, array[0], _emit_and_interpret(call, 1, values),
                _emit_and_interpret(call, 8, values)[0]):
        # erf on an array is the 1.5e-7 rational approximation
        assert float(got) == pytest.approx(
            folded, rel=1e-12, abs=2e-7 if name == "erf" else 0)


def test_builtin_with_the_wrong_arity_is_a_semantic_error():
    with pytest.raises(SemanticError, match=r"max\(\) takes 2"):
        _emit_and_interpret(Call("max", (Name("a"), Name("b"), Name("c"))),
                            1, (1.0, 2.0, 3.0))


def test_every_builtin_names_a_math_op_or_an_expansion():
    for name, builtin in BUILTINS.items():
        if builtin.op is None:
            assert builtin.expand and hasattr(ExprEmitter, f"_expand_{name}")
        else:
            assert f"math.{builtin.op}" in ELEMENTWISE and not builtin.expand


# ---------------------------------------------------------------------------
# the cost column moved no count
# ---------------------------------------------------------------------------

PROFILES = pathlib.Path(__file__).parent / "data" / "kernel_profiles.json"


def default_profiles():
    """``KernelProfile`` of every model's default kernel (the baseline
    one for the four foreign models), as JSON."""
    record = {}
    for name in all_model_files():
        variant = "baseline" if load_model(name).foreign_functions \
            else "limpet_mlir"
        record[name] = dict(variant=variant, **dataclasses.asdict(
            kernel_profile(name, variant)))
    return record


def test_kernel_profiles_equal_the_record_taken_before_the_cost_column():
    recorded = json.loads(PROFILES.read_text())
    assert len(recorded) == 47
    assert default_profiles() == recorded
