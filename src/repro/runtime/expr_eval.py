"""Direct NumPy evaluation of EasyML expressions.

Used to precompute lookup-table rows (tabulation happens once, outside
the generated kernel) and as the reference oracle in differential
tests: kernels produced by either backend must agree with this
evaluator.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

import numpy as np

from ..easyml.ast_nodes import (Binary, Call, Expr, Name, Number, Ternary,
                                Unary)
from ..easyml.builtins import BUILTINS
from ..easyml.errors import SemanticError
from ..ir.core import op_info

ArrayLike = Union[float, np.ndarray]

#: builtin -> elementwise NumPy function: its op row's ufunc (the five
#: builtins without an op carry their own)
_FUNCTIONS = {name: builtin.expand or op_info(f"math.{builtin.op}").py_eval
              for name, builtin in BUILTINS.items()}


def eval_expr(expr: Expr, env: Mapping[str, ArrayLike]) -> ArrayLike:
    """Evaluate ``expr`` with IEEE semantics over scalars or arrays."""
    with np.errstate(all="ignore"):
        return _eval(expr, env)


def _eval(expr: Expr, env: Mapping[str, ArrayLike]) -> ArrayLike:
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, Name):
        try:
            return env[expr.identifier]
        except KeyError:
            raise SemanticError(
                f"evaluation: unbound variable {expr.identifier!r}")
    if isinstance(expr, Unary):
        value = _eval(expr.operand, env)
        if expr.op == "-":
            return -value
        return np.where(value == 0.0, 1.0, 0.0) \
            if isinstance(value, np.ndarray) else float(value == 0.0)
    if isinstance(expr, Binary):
        return _eval_binary(expr, env)
    if isinstance(expr, Ternary):
        cond = _eval(expr.cond, env)
        then = _eval(expr.then, env)
        otherwise = _eval(expr.otherwise, env)
        if isinstance(cond, np.ndarray):
            return np.where(cond != 0.0, then, otherwise)
        return then if cond else otherwise
    if isinstance(expr, Call):
        fn = _FUNCTIONS.get(expr.callee)
        if fn is None:
            from .foreign import _REGISTRY
            fn = _REGISTRY.get(expr.callee)
        if fn is None:
            raise SemanticError(f"evaluation: unknown function "
                                f"{expr.callee!r}")
        return fn(*(_eval(a, env) for a in expr.args))
    raise SemanticError(f"evaluation: unsupported node {expr!r}")


def _eval_binary(expr: Binary, env: Mapping[str, ArrayLike]) -> ArrayLike:
    lhs = _eval(expr.lhs, env)
    rhs = _eval(expr.rhs, env)
    op = expr.op
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if isinstance(lhs, np.ndarray) or isinstance(rhs, np.ndarray):
            return lhs / rhs
        # IEEE semantics for scalars too (inf/nan, never an exception)
        return float(np.float64(lhs) / np.float64(rhs))
    if op == "%":
        return np.fmod(lhs, rhs)
    comparisons = {"<": np.less, "<=": np.less_equal, ">": np.greater,
                   ">=": np.greater_equal, "==": np.equal,
                   "!=": np.not_equal}
    if op in comparisons:
        result = comparisons[op](lhs, rhs)
        return result.astype(np.float64) if isinstance(result, np.ndarray) \
            else float(result)
    if op == "and":
        result = np.logical_and(np.asarray(lhs) != 0, np.asarray(rhs) != 0)
        return result.astype(np.float64) if result.ndim else float(result)
    if op == "or":
        result = np.logical_or(np.asarray(lhs) != 0, np.asarray(rhs) != 0)
        return result.astype(np.float64) if result.ndim else float(result)
    raise SemanticError(f"evaluation: unknown operator {op!r}")


def evaluate_plan(computations, env: Dict[str, ArrayLike]) -> None:
    """Evaluate an ordered computation plan in place, extending ``env``."""
    for comp in computations:
        env[comp.target] = eval_expr(comp.expr, env)
