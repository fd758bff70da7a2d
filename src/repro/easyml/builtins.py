"""EasyML's builtin functions: one table row per name.

The libm-equivalent set plus EasyML's convenience functions
(``square`` / ``cube`` appear in the paper's Listing 1).  Every stage
that meets a call reads its row: the preprocessor folds constants with
``fold``, the LUT heuristic asks ``costly``, the code generator emits
``op`` — the name, after the prefix, of the ``math`` dialect op whose
registry row (DESIGN.md §3.2) carries every later spelling — and the
NumPy evaluator calls that op's ufunc.  Five builtins have no op of
their own: ``ExprEmitter._expand_<name>`` lowers them into ``arith`` ops
and ``expand`` evaluates them elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np


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
    Builtin("floor", 1, math.floor, "floor"),
    Builtin("ceil", 1, math.ceil, "ceil"),
    Builtin("erf", 1, math.erf, "erf"),
    Builtin("atan2", 2, math.atan2, "atan2"),
    Builtin("pow", 2, math.pow, expand=np.power),
    Builtin("square", 1, _square, expand=_square, costly=False),
    Builtin("cube", 1, _cube, expand=_cube, costly=False),
    Builtin("min", 2, min, expand=np.minimum, costly=False),
    Builtin("max", 2, max, expand=np.maximum, costly=False),
)}
