"""Compile-time constant evaluation over the EasyML AST (paper §3.2).

"The description of an ionic model generates AST nodes with distinct
properties: some can only be computed at runtime, while others generate
a set of values with constant-qualified behavior."  This module is the
preprocessor the paper describes: it tracks constant-qualified values
(parameters and intermediates whose operands are all constants) and
folds arithmetic, mathematical and conditional operations at compile
time, so the code generator never emits them.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from ..easyml.ast_nodes import (Binary, Call, Expr, Name, Number, Ternary,
                                Unary)
from ..easyml.builtins import BUILTINS
from ..easyml.errors import SemanticError

_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": math.fmod,
    "<": lambda a, b: float(a < b),
    "<=": lambda a, b: float(a <= b),
    ">": lambda a, b: float(a > b),
    ">=": lambda a, b: float(a >= b),
    "==": lambda a, b: float(a == b),
    "!=": lambda a, b: float(a != b),
    "and": lambda a, b: float(bool(a) and bool(b)),
    "or": lambda a, b: float(bool(a) or bool(b)),
}


class Preprocessor:
    """Folds and propagates compile-time constants through expressions."""

    def __init__(self, constants: Optional[Dict[str, float]] = None,
                 foreign: Optional[set] = None):
        self.constants: Dict[str, float] = dict(constants or {})
        #: call targets that are opaque external functions: never folded
        self.foreign = frozenset(foreign or ())

    def define(self, name: str, value: float) -> None:
        """Record ``name`` as a constant-qualified value."""
        self.constants[name] = float(value)

    def is_constant(self, expr: Expr) -> bool:
        """True when ``expr`` folds to a number under known constants."""
        return self.try_eval(expr) is not None

    def try_eval(self, expr: Expr) -> Optional[float]:
        """Evaluate ``expr`` if every leaf is constant, else None."""
        try:
            return self._eval(expr)
        except _NotConstant:
            return None
        except (ValueError, OverflowError, ZeroDivisionError) as err:
            raise SemanticError(
                f"constant expression {expr} fails to evaluate: {err}")

    def eval(self, expr: Expr) -> float:
        """Evaluate ``expr``; raises if it is not compile-time constant."""
        value = self.try_eval(expr)
        if value is None:
            raise SemanticError(f"expression is not constant: {expr}")
        return value

    def fold(self, expr: Expr) -> Expr:
        """Return ``expr`` with every constant subtree replaced by a Number."""
        value = self.try_eval(expr)
        if value is not None:
            return Number(value)
        if isinstance(expr, Unary):
            return Unary(expr.op, self.fold(expr.operand))
        if isinstance(expr, Binary):
            return Binary(expr.op, self.fold(expr.lhs), self.fold(expr.rhs))
        if isinstance(expr, Call):
            return Call(expr.callee, tuple(self.fold(a) for a in expr.args))
        if isinstance(expr, Ternary):
            cond_value = self.try_eval(expr.cond)
            if cond_value is not None:
                # Conditions with constant predicates collapse to a branch.
                chosen = expr.then if cond_value else expr.otherwise
                return self.fold(chosen)
            return Ternary(self.fold(expr.cond), self.fold(expr.then),
                           self.fold(expr.otherwise))
        return expr

    # -- internals -----------------------------------------------------------

    def _eval(self, expr: Expr) -> float:
        if isinstance(expr, Number):
            return expr.value
        if isinstance(expr, Name):
            if expr.identifier in self.constants:
                return self.constants[expr.identifier]
            raise _NotConstant(expr.identifier)
        if isinstance(expr, Unary):
            value = self._eval(expr.operand)
            return -value if expr.op == "-" else float(not value)
        if isinstance(expr, Binary):
            fn = _BINARY.get(expr.op)
            if fn is None:
                raise SemanticError(f"unknown binary operator {expr.op!r}")
            return fn(self._eval(expr.lhs), self._eval(expr.rhs))
        if isinstance(expr, Ternary):
            return (self._eval(expr.then) if self._eval(expr.cond)
                    else self._eval(expr.otherwise))
        if isinstance(expr, Call):
            if expr.callee in self.foreign:
                raise _NotConstant(expr.callee)
            builtin = BUILTINS.get(expr.callee)
            if builtin is None:
                raise SemanticError(f"unknown function {expr.callee!r}")
            return float(builtin.fold(*(self._eval(a) for a in expr.args)))
        raise SemanticError(f"unsupported expression node {expr!r}")


class _NotConstant(Exception):
    """Internal: a leaf that is not compile-time constant was reached."""
