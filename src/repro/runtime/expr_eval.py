"""Direct NumPy evaluation of EasyML expressions.

Used to precompute lookup-table rows (tabulation happens once, outside
the generated kernel) and as the reference oracle in differential
tests: kernels produced by either backend must agree with this
evaluator.  It shares the preprocessor's tree walk
(:func:`~repro.easyml.ast_nodes.evaluate`), not its arithmetic: a builtin
is its ``math`` op row's ufunc (or the row's ``expand``), an operator its
row's ``ieee`` column, never the fold's raising Python floats.
"""

from __future__ import annotations

from typing import Mapping, Union

import numpy as np

from ..easyml.ast_nodes import Expr, evaluate
from ..easyml.builtins import BUILTINS
from ..easyml.errors import SemanticError
from ..ir.core import op_info
from .foreign import _REGISTRY

ArrayLike = Union[float, np.ndarray]

#: builtin -> elementwise NumPy function: its op row's ufunc (the five
#: builtins without an op carry their own)
_FUNCTIONS = {name: builtin.expand or op_info(f"math.{builtin.op}").py_eval
              for name, builtin in BUILTINS.items()}


def eval_expr(expr: Expr, env: Mapping[str, ArrayLike]) -> ArrayLike:
    """Evaluate ``expr`` with IEEE semantics over scalars or arrays."""
    with np.errstate(all="ignore"):
        return evaluate(expr, _IEEE(env))[1]


class _IEEE:
    """The NumPy domain: every name is bound, a condition selects per lane."""

    column = "ieee"

    def __init__(self, env: Mapping[str, ArrayLike]):
        self.env = env

    def leaf(self, name: str) -> ArrayLike:
        try:
            return self.env[name]
        except KeyError:
            raise SemanticError(f"evaluation: unbound variable {name!r}")

    @staticmethod
    def call(callee: str):
        fn = _FUNCTIONS.get(callee) or _REGISTRY.get(callee)
        if fn is None:
            raise SemanticError(f"evaluation: unknown function {callee!r}")
        return fn

    @staticmethod
    def select(cond: ArrayLike, then: ArrayLike,
               otherwise: ArrayLike) -> ArrayLike:
        if isinstance(cond, np.ndarray):
            return np.where(cond != 0.0, then, otherwise)
        return then if cond else otherwise
