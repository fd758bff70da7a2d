"""One op table (DESIGN.md §3.2): every consumer reads the registry row.

Parametrised from ``registered_ops()``, ``BUILTINS`` and ``OPERATORS``,
so a new op, builtin or operator is covered by registering it.
"""

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

from repro.bench.harness import kernel_profile
from repro.codegen import (UnsupportedModelError, generate_baseline,
                           generate_limpet_mlir)
from repro.codegen.common import ExprEmitter
from repro.easyml.ast_nodes import Binary, Call, Name, Number, Unary
from repro.easyml.builtins import BUILTINS, OPERATORS
from repro.easyml.errors import SemanticError
from repro.frontend import load_model as load_source
from repro.frontend.preprocessor import Preprocessor
from repro.ir.builder import IRBuilder, build_module
from repro.ir.core import registered_ops
from repro.ir.dialects import func as func_dialect
from repro.ir.types import _SCALARS, broadcast_type, element_type, f64
from repro.models import all_model_files, load_model
from repro.runtime import KernelRunner
from repro.runtime.expr_eval import eval_expr
from repro.runtime.interpreter import Interpreter
from repro.runtime.lowering import _HELPER_GLOBALS

from . import pins
from .test_ir_fingerprints import variants

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


def test_the_math_dialect_has_its_23_rows():
    assert sum(name.startswith("math.") for name in ELEMENTWISE) == 23


#: integer index ops no generator emits, kept for the addressing they
#: describe: op -> why it stays
ADDRESS_OPS = {
    "arith.index_cast": "the affine access analysis looks through it, and "
                        "a verifier-corpus mutation builds one",
    "arith.subi": "the affine access analysis folds it into a negated term",
    "arith.divsi": "C's truncating index division (``_idiv``), the "
                   "partner of ``remsi``",
    "arith.remsi": "a wrapped index the affine access analysis must leave "
                   "indexed (test_remainder_differential.py builds one)",
}


@functools.lru_cache(maxsize=None)
def _generated_kinds_and_scalars():
    """Op kinds and scalar types (of values, vector and memref elements
    and function signatures) the generators emit over ``TIER1_MODELS`` x
    every backend / layout / LUT variant of the fingerprint matrix."""
    kinds, scalars = set(), set()
    for name in pins.TIER1_MODELS:
        model = load_model(name)
        for build in variants().values():
            try:
                generated = build(model)
            except UnsupportedModelError:
                continue
            for op in generated.module.walk():
                kinds.add(op.name)
                types = [v.type for v in op.results]
                if op.body is not None:
                    types += [a.type for a in op.body.args]
                signature = op.attributes.get("function_type")
                if signature is not None:
                    types += [*signature.inputs, *signature.results]
                scalars.update(str(element_type(ty)) for ty in types)
    return kinds, scalars


def test_every_registered_op_is_emitted_named_or_an_address_op():
    """The IR holds what the generators emit: a registered op that no
    generator emits, no EasyML builtin or operator names and no address
    computation needs is surface to delete, not to keep verified,
    printed, parsed, lowered, interpreted and priced."""
    named = {f"math.{row.op}" for row in BUILTINS.values() if row.op}
    # a truth-valued operator's ``ir`` is an ``arith.cmpf`` predicate
    named |= {row.ir if "." in row.ir else "arith.cmpf"
              for row in OPERATORS.values()}
    reached = _generated_kinds_and_scalars()[0] | named
    registered = set(registered_ops())
    assert set(ADDRESS_OPS) <= registered - reached   # each one needed
    assert sorted(registered - reached - set(ADDRESS_OPS)) == []


def test_every_parsed_scalar_type_is_emitted():
    """A scalar type the parser knows is one some generator emits."""
    assert sorted(set(_SCALARS) - _generated_kinds_and_scalars()[1]) == []


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
# the EasyML builtins and operators
# ---------------------------------------------------------------------------

FINITE = (0.3, 0.75)
#: operands the truth-valued rows (comparison, logical, ``!``) also see
SPECIAL = (math.nan, math.inf, -math.inf, 0.0)
#: operator rows by test id: ``op2<``, ``op1-``, ...
OPERATOR_IDS = {f"op{arity}{symbol}": row
                for (symbol, arity), row in OPERATORS.items()}


def _case(name: str):
    """``(arity, node over its operands, operand tuples)`` of builtin or
    operator row ``name``."""
    row = OPERATOR_IDS.get(name)
    if row is None:
        arity = BUILTINS[name].arity
        return arity, lambda args: Call(name, args), [FINITE[:arity]]
    operands = (itertools.product(FINITE + SPECIAL, repeat=row.arity)
                if row.truth else [FINITE[:row.arity]])
    node = Unary if row.arity == 1 else Binary
    return (row.arity, lambda args: node(row.symbol, *args),
            list(operands))


def _emitted(expr, names, width: int):
    """Emit ``expr`` over function arguments ``names``; the returned
    function runs it in the interpreter."""
    ty = broadcast_type(f64, width)
    module, _ = build_module()
    fn = func_dialect.func(module, "f", [ty] * len(names), [ty], names)
    b = IRBuilder(fn.entry)
    result = ExprEmitter(b, dict(zip(names, fn.args)), width=width).emit(expr)
    func_dialect.ret(b, [result])
    interpreter = Interpreter(module)
    return lambda values: interpreter.call("f", *(
        np.full(width, v) if width > 1 else v for v in values))


@pytest.mark.parametrize("name", sorted(BUILTINS) + sorted(OPERATOR_IDS))
def test_every_builtin_folds_evaluates_and_emits(name):
    arity, node, operand_tuples = _case(name)
    names = [f"x{i}" for i in range(arity)]
    expr = node(tuple(map(Name, names)))
    scalar_ir, vector_ir = _emitted(expr, names, 1), _emitted(expr, names, 8)
    for values in operand_tuples:
        folded = Preprocessor().eval(node(tuple(map(Number, values))))
        assert math.isfinite(folded)
        env = dict(zip(names, values))
        scalar = eval_expr(expr, env)
        array = eval_expr(expr, {k: np.full(3, v) for k, v in env.items()})
        assert array.shape == (3,)
        for got in (scalar, array[0], scalar_ir(values),
                    vector_ir(values)[0]):
            # erf on an array is the 1.5e-7 rational approximation
            assert float(got) == pytest.approx(
                folded, rel=1e-12, abs=2e-7 if name == "erf" else 0), values


def test_builtin_with_the_wrong_arity_is_a_semantic_error():
    with pytest.raises(SemanticError, match=r"max\(\) takes 2"):
        _emitted(Call("max", (Name("a"), Name("b"), Name("c"))),
                 ["a", "b", "c"], 1)


def test_every_builtin_names_a_math_op_or_an_expansion():
    for name, builtin in BUILTINS.items():
        if builtin.op is None:
            assert builtin.expand and hasattr(ExprEmitter, f"_expand_{name}")
        else:
            assert f"math.{builtin.op}" in ELEMENTWISE and not builtin.expand


# ---------------------------------------------------------------------------
# the cost column moved no count
# ---------------------------------------------------------------------------

def default_profiles():
    """``KernelProfile`` of every model's default kernel (the baseline
    one for the four foreign models), as JSON: the record of
    ``tests/data/kernel_profiles.json``, re-recorded (only for a
    deliberate change of a count) with
    ``PYTHONPATH=src python -m tests.pins --write --only kernel_profiles``."""
    record = {}
    for name in all_model_files():
        variant = "baseline" if load_model(name).foreign_functions \
            else "limpet_mlir"
        record[name] = dict(variant=variant, **dataclasses.asdict(
            kernel_profile(name, variant)))
    return record


def test_kernel_profiles_equal_the_record_taken_before_the_cost_column():
    recorded = pins.read("kernel_profiles")
    assert len(recorded) == 47
    assert default_profiles() == recorded
