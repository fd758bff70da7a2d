"""The ``math`` dialect: transcendental functions, one table row per op.

These are the calls that Intel's SVML vectorizes in the paper — "we rely
on Intel's SVML library for the vectorization of mathematical functions"
(§4.1 footnote) — and that it credits for the outsized speedups of
math-heavy models like ISAC_Hu.  In this reproduction NumPy's
C-implemented ufuncs play SVML's role: one call evaluates a
transcendental over every lane.

:data:`_OPS` is the only place a ``math`` op is spelled.  Registration
and the builder functions (``exp(b, x)``, ``powf(b, x, y)``, ...) are
derived from it, the lowering embeds the ``numpy`` / ``scalar`` columns
into the generated kernels, and the machine model prices the ``cost``
column with per-ISA SVML throughput classes (:mod:`repro.machine.arch`).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..core import IRError, OpInfo, Operation, Value, register_op
from ..builder import IRBuilder


def _guarded(fn):
    """Evaluate a ufunc with IEEE semantics (NaN/inf instead of raising)."""
    def wrapper(*args):
        with np.errstate(all="ignore"):
            return fn(*args)
    return wrapper


def _verify_float_unary(op: Operation) -> None:
    if len(op.operands) != 1 or not op.operands[0].type.is_float:
        raise IRError(f"{op.name}: expects one float operand")


def _verify_float_binary(op: Operation) -> None:
    if len(op.operands) != 2:
        raise IRError(f"{op.name}: expects two operands")
    for v in op.operands:
        if not v.type.is_float:
            raise IRError(f"{op.name}: expects float operands")


def _fold(fn):
    def fold(op: Operation, xs: Sequence) -> Optional[Sequence]:
        if None in xs:
            return None
        try:
            return [float(fn(*xs))]
        except (ValueError, OverflowError):
            return None
    return fold


def np_erf(x):
    """``erf`` without SciPy: libm on a scalar, on an array the
    vectorized Abramowitz & Stegun 7.1.26 rational approximation (max
    abs error 1.5e-7, ample for an interpolation substrate)."""
    if isinstance(x, np.ndarray):
        sign = np.sign(x)
        ax = np.abs(x)
        t = 1.0 / (1.0 + 0.3275911 * ax)
        poly = t * (0.254829592 + t * (-0.284496736 + t * (
            1.421413741 + t * (-1.453152027 + t * 1.061405429))))
        return sign * (1.0 - poly * np.exp(-ax * ax))
    return math.erf(x)


# The ``scalar`` spellings name the lowering's guarded helpers (``_g_*``:
# IEEE results where Python's ``math`` raises); ``absf`` / ``floor`` /
# ``ceil`` sit in the ``exp`` class and ``tan`` / ``atan`` in ``pow`` as
# SVML prices them.
#  op               ufunc         numpy                     scalar                     cost
_OPS = (
    ("math.exp",      np.exp,       "np.exp({0})",            "_g_exp({0})",             "exp"),
    ("math.expm1",    np.expm1,     "np.expm1({0})",          "_g_expm1({0})",           "exp"),
    ("math.log",      np.log,       "np.log({0})",            "_g_log({0})",             "exp"),
    ("math.log10",    np.log10,     "np.log10({0})",          "_g_log10({0})",           "exp"),
    ("math.log2",     np.log2,      "np.log2({0})",           "_g_log2({0})",            "exp"),
    ("math.log1p",    np.log1p,     "np.log1p({0})",          "_g_log1p({0})",           "exp"),
    ("math.sqrt",     np.sqrt,      "np.sqrt({0})",           "_g_sqrt({0})",            "exp"),
    ("math.cbrt",     np.cbrt,      "np.cbrt({0})",           "_cbrt({0})",              "exp"),
    ("math.sin",      np.sin,       "np.sin({0})",            "_g_sin({0})",             "exp"),
    ("math.cos",      np.cos,       "np.cos({0})",            "_g_cos({0})",             "exp"),
    ("math.tan",      np.tan,       "np.tan({0})",            "_g_tan({0})",             "pow"),
    ("math.asin",     np.arcsin,    "np.arcsin({0})",         "_g_asin({0})",            "pow"),
    ("math.acos",     np.arccos,    "np.arccos({0})",         "_g_acos({0})",            "pow"),
    ("math.atan",     np.arctan,    "np.arctan({0})",         "math.atan({0})",          "pow"),
    ("math.sinh",     np.sinh,      "np.sinh({0})",           "_g_sinh({0})",            "exp"),
    ("math.cosh",     np.cosh,      "np.cosh({0})",           "_g_cosh({0})",            "exp"),
    ("math.tanh",     np.tanh,      "np.tanh({0})",           "math.tanh({0})",          "exp"),
    ("math.absf",     np.abs,       "np.abs({0})",            "abs({0})",                "exp"),
    ("math.floor",    np.floor,     "np.floor({0})",          "_g_floor({0})",           "exp"),
    ("math.ceil",     np.ceil,      "np.ceil({0})",           "_g_ceil({0})",            "exp"),
    ("math.erf",      np_erf,       "_np_erf({0})",           "math.erf({0})",           "exp"),
    ("math.round",    np.round,     "np.round({0})",          "_g_round({0})",           "exp"),
    ("math.trunc",    np.trunc,     "np.trunc({0})",          "_g_trunc({0})",           "exp"),
    ("math.powf",     np.power,     "np.power({0}, {1})",     "_g_pow({0}, {1})",        "pow"),
    ("math.atan2",    np.arctan2,   "np.arctan2({0}, {1})",   "math.atan2({0}, {1})",    "pow"),
    ("math.copysign", np.copysign,  "np.copysign({0}, {1})",  "math.copysign({0}, {1})", "simple"),
    ("math.fmod",     np.fmod,      "np.fmod({0}, {1})",      "_g_fmod({0}, {1})",       "div"),
)


def _builder(name: str, binary: bool):
    if binary:
        def build(b: IRBuilder, lhs: Value, rhs: Value) -> Value:
            return b.create(name, [lhs, rhs], [lhs.type]).result
    else:
        def build(b: IRBuilder, operand: Value) -> Value:
            return b.create(name, [operand], [operand.type]).result
    build.__name__ = name.split(".", 1)[1]
    build.__doc__ = f"``{name}`` on scalar or vector float values."
    return build


for _name, _fn, _numpy, _scalar, _cost in _OPS:
    _binary = "{1}" in _numpy
    register_op(OpInfo(
        name=_name, pure=True,
        verify=_verify_float_binary if _binary else _verify_float_unary,
        fold=_fold(_fn), py_eval=_guarded(_fn),
        numpy=_numpy, scalar=_scalar, cost=_cost))
    globals()[_name.split(".", 1)[1]] = _builder(_name, _binary)
