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
from typing import Dict, Optional, Tuple

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


#: what a failing constant operation raises (``1/0``, ``log(0)``, ...)
_EVAL_ERRORS = (ValueError, OverflowError, ZeroDivisionError)


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
        except _EVAL_ERRORS as err:
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
        return self.fold_value(expr)[0]

    def fold_value(self, expr: Expr) -> Tuple[Expr, Optional[float]]:
        """``(fold(expr), try_eval(expr))`` from one walk of ``expr``."""
        try:
            folded, value = self._walk(expr)
        except _EVAL_ERRORS as err:
            raise SemanticError(
                f"constant expression {expr} fails to evaluate: {err}")
        return (folded if value is None else Number(value)), value

    # -- internals -----------------------------------------------------------

    def _walk(self, expr: Expr) -> Tuple[Optional[Expr], Optional[float]]:
        """Post-order fold: ``(folded, None)`` for a runtime subtree,
        ``(None, value)`` for a constant one.

        Children are visited in :meth:`_eval`'s order and with its short
        circuits, so a constant error escapes raw from exactly the
        subtrees whose evaluation would raise it; the nearest runtime
        ancestor folds that child through :meth:`fold_value`, which names
        it — the outermost subtree ``try_eval`` fails on, as the
        top-down fold reported.  An untaken constant branch is never
        visited.
        """
        if isinstance(expr, Number):
            return None, expr.value
        if isinstance(expr, Name):
            value = self.constants.get(expr.identifier)
            return (expr if value is None else None), value
        if isinstance(expr, Unary):
            operand, value = self._walk(expr.operand)
            if value is None:
                return Unary(expr.op, operand), None
            return None, (-value if expr.op == "-" else float(not value))
        if isinstance(expr, Binary):
            fn = _BINARY.get(expr.op)
            if fn is None:
                raise SemanticError(f"unknown binary operator {expr.op!r}")
            lhs, a = self._walk(expr.lhs)
            if a is None:
                return Binary(expr.op, lhs,
                              self.fold_value(expr.rhs)[0]), None
            rhs, b = self._walk(expr.rhs)
            if b is None:
                return Binary(expr.op, Number(a), rhs), None
            return None, fn(a, b)
        if isinstance(expr, Ternary):
            cond, c = self._walk(expr.cond)
            if c is None:
                return Ternary(cond, self.fold_value(expr.then)[0],
                               self.fold_value(expr.otherwise)[0]), None
            # a constant predicate collapses to its branch
            return self._walk(expr.then if c else expr.otherwise)
        if isinstance(expr, Call):
            if expr.callee in self.foreign:
                return Call(expr.callee, tuple(
                    self.fold_value(a)[0] for a in expr.args)), None
            builtin = BUILTINS.get(expr.callee)
            if builtin is None:
                raise SemanticError(f"unknown function {expr.callee!r}")
            values = []
            for i, arg in enumerate(expr.args):
                folded, value = self._walk(arg)
                if value is None:
                    return Call(expr.callee, (
                        *(Number(v) for v in values), folded,
                        *(self.fold_value(a)[0]
                          for a in expr.args[i + 1:]))), None
                values.append(value)
            return None, float(builtin.fold(*values))
        raise SemanticError(f"unsupported expression node {expr!r}")

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
