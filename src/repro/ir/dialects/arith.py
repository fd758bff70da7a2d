"""The ``arith`` dialect: scalar/vector arithmetic, comparisons, casts.

Every op registers a ``py_eval`` implemented with NumPy so a single
definition serves both scalar interpretation and vector (lane-per-cell)
execution.  An elementwise op's registration also carries its source
spellings and cost class (DESIGN.md §3.2); the binary ones are rows of
:data:`_BINARY`, which their registration and builder functions are
derived from.
"""

from __future__ import annotations

import operator
from typing import Any, Optional, Sequence

import numpy as np

from ..core import IRError, OpInfo, Operation, Value, register_op
from ..builder import IRBuilder
from ..types import (IRType, broadcast_type, f64, i1, i64, vector_width)

CMPF_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge", "ueq", "une")
CMPI_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")

_CMP_FN = {
    "oeq": operator.eq, "ueq": operator.eq, "eq": operator.eq,
    "one": operator.ne, "une": operator.ne, "ne": operator.ne,
    "olt": operator.lt, "slt": operator.lt,
    "ole": operator.le, "sle": operator.le,
    "ogt": operator.gt, "sgt": operator.gt,
    "oge": operator.ge, "sge": operator.ge,
}


def _same_type(op: Operation) -> None:
    tys = {str(v.type) for v in op.operands}
    if len(tys) > 1:
        raise IRError(f"{op.name}: mismatched operand types {sorted(tys)}")


def _require_float(op: Operation) -> None:
    _same_type(op)
    for v in op.operands:
        if not v.type.is_float:
            raise IRError(f"{op.name}: expected float operand, got {v.type}")


def _require_int(op: Operation) -> None:
    _same_type(op)
    for v in op.operands:
        if not v.type.is_integer:
            raise IRError(f"{op.name}: expected integer operand, got {v.type}")


def _binary_fold(fn):
    def fold(op: Operation, operands: Sequence[Any]) -> Optional[Sequence[Any]]:
        lhs, rhs = operands
        if lhs is None or rhs is None:
            return None
        return [fn(lhs, rhs)]
    return fold


def _divf(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return a / b
        # scalar path: IEEE semantics (inf/nan), not ZeroDivisionError
        return float(np.float64(a) / np.float64(b))


def _remf(a, b):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmod(a, b)


def trunc_div(a, b):
    """C-style truncating signed integer division.

    Stays in integer arithmetic end to end — no float round trip, so
    results are exact for |operands| > 2^53.  Division by zero yields 0
    (C leaves it undefined; the engines must simply agree).
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a)
        b = np.asarray(b)
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = np.floor_divide(a, b)
            rem = a - quot * b
            # floor -> trunc: bump toward zero when signs differ
            quot = quot + ((rem != 0) & ((a < 0) != (b < 0)))
        return np.where(b == 0, 0, quot)
    if b == 0:
        return 0
    quot = abs(a) // abs(b)
    return quot if (a < 0) == (b < 0) else -quot


def trunc_rem(a, b):
    """C-style signed integer remainder: a - trunc_div(a, b) * b.

    Integer-typed for integer operands (``math.fmod`` would return a
    float); satisfies (a/b)*b + a%b == a like C99.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a = np.asarray(a)
        b = np.asarray(b)
        return np.where(np.asarray(b) == 0, 0, a - trunc_div(a, b) * b)
    if b == 0:
        return 0
    return a - trunc_div(a, b) * b


#  op                fn            verify   commutative  numpy                   scalar                cost
_BINARY = (
    ("arith.addf",     operator.add,  _require_float, True,  "({0} + {1})",           "({0} + {1})",       "simple"),
    ("arith.subf",     operator.sub,  _require_float, False, "({0} - {1})",           "({0} - {1})",       "simple"),
    ("arith.mulf",     operator.mul,  _require_float, True,  "({0} * {1})",           "({0} * {1})",       "simple"),
    ("arith.divf",     _divf,         _require_float, False, "({0} / {1})",           "_g_div({0}, {1})",  "div"),
    ("arith.remf",     _remf,         _require_float, False, "np.fmod({0}, {1})",     "_g_fmod({0}, {1})", "div"),
    ("arith.maximumf", np.maximum,    _require_float, True,  "np.maximum({0}, {1})",  "max({0}, {1})",     "simple"),
    ("arith.minimumf", np.minimum,    _require_float, True,  "np.minimum({0}, {1})",  "min({0}, {1})",     "simple"),
    ("arith.addi",     operator.add,  _require_int,   True,  "({0} + {1})",           "({0} + {1})",       "int"),
    ("arith.subi",     operator.sub,  _require_int,   False, "({0} - {1})",           "({0} - {1})",       "int"),
    ("arith.muli",     operator.mul,  _require_int,   True,  "({0} * {1})",           "({0} * {1})",       "int"),
    ("arith.divsi",    trunc_div,     _require_int,   False, "_idiv({0}, {1})",       "_idiv({0}, {1})",   "int"),
    ("arith.remsi",    trunc_rem,     _require_int,   False, "_irem({0}, {1})",       "_irem({0}, {1})",   "int"),
    ("arith.andi",     operator.and_, _require_int,   True,  "({0} & {1})",           "({0} & {1})",       "int"),
    ("arith.ori",      operator.or_,  _require_int,   True,  "({0} | {1})",           "({0} | {1})",       "int"),
    ("arith.xori",     operator.xor,  _require_int,   True,  "({0} ^ {1})",           "({0} ^ {1})",       "int"),
)

for _name, _fn, _verify, _commutative, _numpy, _scalar, _cost in _BINARY:
    register_op(OpInfo(name=_name, pure=True, commutative=_commutative,
                       verify=_verify, fold=_binary_fold(_fn), py_eval=_fn,
                       numpy=_numpy, scalar=_scalar, cost=_cost))

register_op(OpInfo(name="arith.negf", pure=True, verify=_require_float,
                   fold=lambda op, xs: None if xs[0] is None else [-xs[0]],
                   py_eval=operator.neg,
                   numpy="(-{0})", scalar="(-{0})", cost="simple"))

register_op(OpInfo(name="arith.constant", pure=True,
                   fold=lambda op, xs: [op.attributes["value"]],
                   py_eval=None, cost="none"))


def _verify_cmp(predicates):
    def verify(op: Operation) -> None:
        pred = op.attributes.get("predicate")
        if pred not in predicates:
            raise IRError(f"{op.name}: bad predicate {pred!r}")
        _same_type(op)
    return verify


def _cmp_eval(op: Operation, lhs, rhs):
    return _CMP_FN[op.attributes["predicate"]](lhs, rhs)


# cmpf / cmpi / select lower through ``_lower_special``: a cost class only
register_op(OpInfo(name="arith.cmpf", pure=True, cost="simple",
                   verify=_verify_cmp(CMPF_PREDICATES), py_eval=_cmp_eval))
register_op(OpInfo(name="arith.cmpi", pure=True, cost="int",
                   verify=_verify_cmp(CMPI_PREDICATES), py_eval=_cmp_eval))


def _select_eval(cond, true_val, false_val):
    if isinstance(cond, np.ndarray):
        return np.where(cond, true_val, false_val)
    return true_val if cond else false_val


register_op(OpInfo(name="arith.select", pure=True, py_eval=_select_eval,
                   cost="simple",
                   fold=lambda op, xs: None if xs[0] is None
                   else ([xs[1]] if (xs[1] is not None and xs[0])
                         else ([xs[2]] if (xs[2] is not None and not xs[0])
                               else None))))


register_op(OpInfo(name="arith.index_cast", pure=True,
                   fold=lambda op, xs: None if xs[0] is None else [int(xs[0])],
                   py_eval=lambda x: x if isinstance(x, np.ndarray) else int(x),
                   numpy="{0}", scalar="{0}", cost="int"))
register_op(OpInfo(name="arith.sitofp", pure=True,
                   fold=lambda op, xs: None if xs[0] is None else [float(xs[0])],
                   py_eval=lambda x: x.astype(np.float64) if isinstance(x, np.ndarray) else float(x),
                   numpy="_f64({0})", scalar="float({0})", cost="int"))
register_op(OpInfo(name="arith.fptosi", pure=True,
                   fold=lambda op, xs: None if xs[0] is None else [int(xs[0])],
                   py_eval=lambda x: np.trunc(x).astype(np.int64) if isinstance(x, np.ndarray) else int(x),
                   numpy="_i64({0})", scalar="int({0})", cost="int"))


# ---------------------------------------------------------------------------
# Builder helpers
# ---------------------------------------------------------------------------


def constant(b: IRBuilder, value: Any, ty: IRType = f64) -> Value:
    """``arith.constant {value} : ty`` (interned per block)."""
    return b.constant(value, ty)


def _binary_builder(name: str):
    def build(b: IRBuilder, lhs: Value, rhs: Value) -> Value:
        if str(lhs.type) != str(rhs.type):
            raise IRError(f"{name}: type mismatch {lhs.type} vs {rhs.type}")
        return b.create(name, [lhs, rhs], [lhs.type]).result
    build.__name__ = name.split(".", 1)[1]
    build.__doc__ = f"``{name}`` on two values of one type."
    return build


for _row in _BINARY:
    globals()[_row[0].split(".", 1)[1]] = _binary_builder(_row[0])


def negf(b: IRBuilder, operand: Value) -> Value:
    return b.create("arith.negf", [operand], [operand.type]).result


def cmpf(b: IRBuilder, predicate: str, lhs: Value, rhs: Value) -> Value:
    result_ty = broadcast_type(i1, vector_width(lhs.type))
    return b.create("arith.cmpf", [lhs, rhs], [result_ty],
                    {"predicate": predicate}).result


def cmpi(b: IRBuilder, predicate: str, lhs: Value, rhs: Value) -> Value:
    result_ty = broadcast_type(i1, vector_width(lhs.type))
    return b.create("arith.cmpi", [lhs, rhs], [result_ty],
                    {"predicate": predicate}).result


def select(b: IRBuilder, cond: Value, true_val: Value, false_val: Value) -> Value:
    if str(true_val.type) != str(false_val.type):
        raise IRError("arith.select: branch type mismatch")
    return b.create("arith.select", [cond, true_val, false_val],
                    [true_val.type]).result


def index_cast(b: IRBuilder, operand: Value, ty: IRType) -> Value:
    return b.create("arith.index_cast", [operand], [ty]).result


def sitofp(b: IRBuilder, operand: Value, ty: IRType = f64) -> Value:
    return b.create("arith.sitofp", [operand], [ty]).result


def fptosi(b: IRBuilder, operand: Value, ty: IRType = i64) -> Value:
    return b.create("arith.fptosi", [operand], [ty]).result
