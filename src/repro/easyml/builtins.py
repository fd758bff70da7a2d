"""EasyML's builtin functions and operators: one table row per name.

The libm-equivalent set plus EasyML's convenience functions
(``square`` / ``cube`` appear in the paper's Listing 1).  Every stage
that meets a call reads its row: the preprocessor folds constants with
``fold``, the LUT heuristic asks ``costly``, the code generator emits
``op`` — the name, after the prefix, of the ``math`` dialect op whose
registry row (DESIGN.md §3.2) carries every later spelling — and the
NumPy evaluator calls that op's ufunc.  Five builtins have no op of
their own: ``ExprEmitter._expand_<name>`` lowers them into ``arith`` ops
and ``expand`` evaluates them elementwise.

The 13 binary and 2 unary operators are rows of :data:`OPERATORS`, read
the same way: ``fold`` by the preprocessor, ``ieee`` by the NumPy
evaluator (both through :func:`~repro.easyml.ast_nodes.evaluate`),
``ir`` and ``truth`` by ``ExprEmitter``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: what a failing ``fold`` raises (``1/0``, ``log(0)``, ``exp(1000)``, ...)
EVAL_ERRORS = (ValueError, OverflowError, ZeroDivisionError)


@dataclass(frozen=True)
class Builtin:
    name: str
    arity: int
    #: scalar constant folder; raises like libm does, which is what the
    #: preprocessor's "constant expression fails to evaluate" reports
    fold: Callable[..., float]
    op: Optional[str] = None
    expand: Optional[Callable] = None
    #: a call makes an expression worth tabulating in a LUT
    costly: bool = True


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _square(x):
    return x * x


def _cube(x):
    return x * x * x


BUILTINS: Dict[str, Builtin] = {row.name: row for row in (
    Builtin("exp", 1, math.exp, "exp"),
    Builtin("expm1", 1, math.expm1, "expm1"),
    Builtin("log", 1, math.log, "log"),
    Builtin("ln", 1, math.log, "log"),
    Builtin("log10", 1, math.log10, "log10"),
    Builtin("log2", 1, math.log2, "log2"),
    Builtin("log1p", 1, math.log1p, "log1p"),
    Builtin("sqrt", 1, math.sqrt, "sqrt"),
    Builtin("cbrt", 1, _cbrt, "cbrt"),
    Builtin("sin", 1, math.sin, "sin"),
    Builtin("cos", 1, math.cos, "cos"),
    Builtin("tan", 1, math.tan, "tan"),
    Builtin("asin", 1, math.asin, "asin"),
    Builtin("acos", 1, math.acos, "acos"),
    Builtin("atan", 1, math.atan, "atan"),
    Builtin("sinh", 1, math.sinh, "sinh"),
    Builtin("cosh", 1, math.cosh, "cosh"),
    Builtin("tanh", 1, math.tanh, "tanh"),
    Builtin("fabs", 1, abs, "absf", costly=False),
    Builtin("abs", 1, abs, "absf", costly=False),
    Builtin("floor", 1, lambda x: float(math.floor(x)), "floor"),
    Builtin("ceil", 1, lambda x: float(math.ceil(x)), "ceil"),
    Builtin("erf", 1, math.erf, "erf"),
    Builtin("atan2", 2, math.atan2, "atan2"),
    Builtin("pow", 2, math.pow, expand=np.power),
    Builtin("square", 1, _square, expand=_square, costly=False),
    Builtin("cube", 1, _cube, expand=_cube, costly=False),
    Builtin("min", 2, min, expand=np.minimum, costly=False),
    Builtin("max", 2, max, expand=np.maximum, costly=False),
)}


@dataclass(frozen=True)
class Operator:
    symbol: str
    arity: int
    #: scalar constant folder over Python floats; raises like ``Builtin.fold``
    fold: Callable[..., float]
    #: IEEE evaluation over floats or arrays (called under ``errstate``)
    ieee: Callable
    #: what ``ExprEmitter`` emits: an ``arith`` op or ``arith.cmpf`` predicate
    ir: str
    #: the result is a truth value: 1.0 / 0.0 as a number, i1 in the IR
    truth: bool = False


def _as_number(test: Callable) -> Callable:
    """``test`` with its truth value(s) as 1.0 / 0.0."""
    def number(*operands):
        result = test(*operands)
        if isinstance(result, np.ndarray):
            return result.astype(np.float64)
        return float(result)
    return number


def _truth(symbol: str, arity: int, fold: Callable, ieee: Callable,
           ir: str) -> Operator:
    return Operator(symbol, arity, _as_number(fold), _as_number(ieee), ir,
                    truth=True)


#: keyed by ``(symbol, arity)``: ``-`` is both a unary and a binary row
OPERATORS: Dict[Tuple[str, int], Operator] = {
    (row.symbol, row.arity): row for row in (
        Operator("+", 2, operator.add, np.add, "arith.addf"),
        Operator("-", 2, operator.sub, np.subtract, "arith.subf"),
        Operator("*", 2, operator.mul, np.multiply, "arith.mulf"),
        Operator("/", 2, operator.truediv, np.divide, "arith.divf"),
        Operator("%", 2, math.fmod, np.fmod, "arith.remf"),
        Operator("-", 1, operator.neg, np.negative, "arith.negf"),
        _truth("<", 2, operator.lt, np.less, "olt"),
        _truth("<=", 2, operator.le, np.less_equal, "ole"),
        _truth(">", 2, operator.gt, np.greater, "ogt"),
        _truth(">=", 2, operator.ge, np.greater_equal, "oge"),
        _truth("==", 2, operator.eq, np.equal, "oeq"),
        _truth("!=", 2, operator.ne, np.not_equal, "one"),
        _truth("and", 2, lambda a, b: bool(a) and bool(b), np.logical_and,
               "arith.andi"),
        _truth("or", 2, lambda a, b: bool(a) or bool(b), np.logical_or,
               "arith.ori"),
        # emitted as ``xori`` with true
        _truth("!", 1, operator.not_, np.logical_not, "arith.xori"),
    )}
