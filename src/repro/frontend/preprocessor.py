"""Compile-time constant evaluation over the EasyML AST (paper §3.2).

"The description of an ionic model generates AST nodes with distinct
properties: some can only be computed at runtime, while others generate
a set of values with constant-qualified behavior."  This module is the
preprocessor the paper describes: it tracks constant-qualified values
(parameters and intermediates whose operands are all constants) and
folds arithmetic, mathematical and conditional operations at compile
time, so the code generator never emits them.  A :class:`Preprocessor`
is a domain of the one evaluator, :func:`~repro.easyml.ast_nodes.evaluate`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..easyml.ast_nodes import RUNTIME, Expr, fold_value
from ..easyml.builtins import BUILTINS
from ..easyml.errors import SemanticError


class Preprocessor:
    """Folds and propagates compile-time constants through expressions.

    The fold domain: a name without a constant and a foreign call are
    runtime; operators fold with their row's raising ``fold`` column.
    """

    column = "fold"
    select = None

    def __init__(self, constants: Optional[Dict[str, float]] = None,
                 foreign: Optional[set] = None):
        self.constants: Dict[str, float] = dict(constants or {})
        #: call targets that are opaque external functions: never folded
        self.foreign = frozenset(foreign or ())

    def define(self, name: str, value: float) -> None:
        """Record ``name`` as a constant-qualified value."""
        self.constants[name] = float(value)

    def try_eval(self, expr: Expr) -> Optional[float]:
        """Evaluate ``expr`` if every leaf is constant, else None."""
        try:
            return fold_value(expr, _Strict(self.constants, self.foreign))[1]
        except _NotConstant:
            return None

    def eval(self, expr: Expr) -> float:
        """Evaluate ``expr``; raises if it is not compile-time constant."""
        value = self.try_eval(expr)
        if value is None:
            raise SemanticError(f"expression is not constant: {expr}")
        return value

    def fold(self, expr: Expr) -> Expr:
        """Return ``expr`` with every constant subtree replaced by a Number."""
        return fold_value(expr, self)[0]

    def fold_value(self, expr: Expr) -> Tuple[Expr, Optional[float]]:
        """``(fold(expr), try_eval(expr))`` from one walk of ``expr``."""
        return fold_value(expr, self)

    # -- the domain ---------------------------------------------------------

    def leaf(self, name: str):
        return self.constants.get(name, RUNTIME)

    def call(self, callee: str):
        if callee in self.foreign:
            return RUNTIME
        builtin = BUILTINS.get(callee)
        if builtin is None:
            raise SemanticError(f"unknown function {callee!r}")
        return builtin.fold


class _Strict(Preprocessor):
    """``try_eval``'s domain: the first runtime leaf or call aborts."""

    def leaf(self, name: str):
        if name not in self.constants:
            raise _NotConstant(name)
        return self.constants[name]

    def call(self, callee: str):
        if callee in self.foreign:
            raise _NotConstant(callee)
        return super().call(callee)


class _NotConstant(Exception):
    """Internal: a leaf that is not compile-time constant was reached."""
