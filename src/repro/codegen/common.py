"""Shared code-generation machinery for every backend.

* :class:`KernelSpec` — everything that parameterizes a generated
  compute kernel (model, SIMD width, layout, backend mode).
* :class:`ExprEmitter` — translates EasyML expressions into IR
  operations, scalar or vector according to the spec width.  This is
  the step where ternaries become ``arith.select`` (mask-based, the
  SIMD-friendly form §5 describes) and EasyML's convenience functions
  (``square``, ``cube``, ``pow`` with small constant exponents) expand
  into multiply chains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..easyml.ast_nodes import (Binary, Call, Expr, Name, Number, Ternary,
                                Unary)
from ..easyml.builtins import BUILTINS
from ..easyml.errors import SemanticError
from ..frontend.model import IonicModel
from ..ir.builder import IRBuilder
from ..ir.core import Value
from ..ir.dialects import arith, math as math_dialect
from ..ir.types import broadcast_type, f64, i1
from .layout import Layout


class UnsupportedModelError(Exception):
    """Raised when a backend cannot compile a model's features.

    limpetMLIR supports "43 out of 47 ionic models" (§3.3.2): models
    calling foreign (external C) functions cannot be vectorized and
    stay on the baseline code generator.
    """


class BackendMode(enum.Enum):
    """Which code generator produced a kernel (§3.3, §5)."""

    BASELINE = "baseline"        # limpetC++ analog: scalar, AoS
    LIMPET_MLIR = "limpet_mlir"  # the paper's contribution
    ICC_SIMD = "icc_simd"        # icc `#pragma omp simd` comparator (§5)


@dataclass
class KernelSpec:
    """Parameters of one generated compute kernel."""

    model: IonicModel
    mode: BackendMode = BackendMode.LIMPET_MLIR
    width: int = 8                  # SIMD lanes (cells per vector)
    layout: Optional[Layout] = None  # resolved by the backend if None
    use_lut: bool = True
    #: "linear" (§3.4.2) or "spline" (the §7 future-work extension)
    lut_interpolation: str = "linear"
    function_name: str = "compute"

    @property
    def is_vectorized(self) -> bool:
        return self.mode is not BackendMode.BASELINE

    def argument_names(self) -> List[str]:
        """Kernel argument order shared by codegen and the runtime."""
        names = ["start", "end", "dt", "t", "sv"]
        names += [f"{ext}_ext" for ext in self.model.externals]
        names += [f"param_{p}" for p in self.model.promoted_params]
        if self.use_lut:
            names += [f"lut_{table.var}" for table in self.model.lut_tables]
        return names


#: the generators' own version, part of every kernel-cache key.  Bump it
#: whenever the printed pre-pipeline IR of any kernel moves:
#: ``tools/ir_fingerprints.py --check`` fails until the bump is made and
#: ``--write`` refuses to re-record moved cells under an unchanged version.
GENERATOR_VERSION = 1


@dataclass(frozen=True)
class CompileRequest:
    """What a ``generate*`` call asked for, known before any IR exists.

    The generators are deterministic in these fields (and in their own
    code, which :data:`GENERATOR_VERSION` stands for), so the stores key
    a compiled kernel by them instead of by its printed module.
    """

    #: sha256 of the EasyML text the model was parsed from
    source_digest: str
    promoted_params: Tuple[str, ...]
    target: str                     # the emitter ``Target.name``
    width: int
    layout: str
    use_lut: bool
    lut_interpolation: str
    function_name: str
    #: the loop shell's keyword arguments (GPU grid / block), sorted
    launch: Tuple[Tuple[str, object], ...] = ()
    generator_version: int = field(
        default_factory=lambda: GENERATOR_VERSION)

    def key_lines(self) -> List[str]:
        """One ``name=value`` line per field, for a store key to hash."""
        if not self.source_digest:
            raise ValueError(
                "the model carries no source digest (it was not parsed "
                "from EasyML text), so its kernel has no store key")
        return [f"{name}={value}" for name, value in vars(self).items()]


class GeneratedKernel:
    """A generated kernel: its spec, its request, and its IR module.

    ``module`` is either the module (or ``None``: a bundled kernel has
    no IR) or the zero-argument emitter that builds it; the emitter runs
    on the first read of :attr:`module`, so a kernel served from a store
    never pays for IR nobody reads.
    """

    def __init__(self, module, spec: KernelSpec, layout: Layout,
                 request: Optional[CompileRequest] = None):
        self._module = module
        self.spec = spec
        self.layout = layout
        self.request = request

    @property
    def module(self):
        """The ``repro.ir.Module``, emitted on first use."""
        if callable(self._module):
            self._module = self._module()
        return self._module

    @module.setter
    def module(self, module) -> None:
        self._module = module


class ExprEmitter:
    """Emits IR for EasyML expressions in a given environment.

    The environment maps variable names to SSA values *already at the
    kernel's working width* (the backends broadcast shared values when
    building the environment).  Numeric results are f64-typed (scalar or
    vector); boolean subexpressions are materialized as i1 and converted
    back to 0.0/1.0 only where used as numbers, matching C semantics.
    """

    _MAX_POW_EXPAND = 8

    def __init__(self, builder: IRBuilder, env: Dict[str, Value],
                 width: int = 1, foreign=frozenset()):
        self.b = builder
        self.env = env
        self.width = width
        self.foreign = frozenset(foreign)
        self._value_type = broadcast_type(f64, width)
        self._bool_type = broadcast_type(i1, width)

    # -- public ------------------------------------------------------------------

    def emit(self, expr: Expr) -> Value:
        """Emit ``expr`` as an f64(-vector) value."""
        if self._is_boolean(expr):
            cond = self.emit_bool(expr)
            one = self._const(1.0)
            zero = self._const(0.0)
            return arith.select(self.b, cond, one, zero)
        return self._emit_numeric(expr)

    def emit_bool(self, expr: Expr) -> Value:
        """Emit ``expr`` as an i1(-vector) condition."""
        if isinstance(expr, Binary):
            if expr.op in ("<", "<=", ">", ">=", "==", "!="):
                pred = {"<": "olt", "<=": "ole", ">": "ogt", ">=": "oge",
                        "==": "oeq", "!=": "one"}[expr.op]
                return arith.cmpf(self.b, pred, self.emit(expr.lhs),
                                  self.emit(expr.rhs))
            if expr.op == "and":
                return arith.andi(self.b, self.emit_bool(expr.lhs),
                                  self.emit_bool(expr.rhs))
            if expr.op == "or":
                return arith.ori(self.b, self.emit_bool(expr.lhs),
                                 self.emit_bool(expr.rhs))
        if isinstance(expr, Unary) and expr.op == "!":
            inner = self.emit_bool(expr.operand)
            true_const = self.b.constant(True, self._bool_type) \
                if self.width == 1 else self._bool_const(True)
            return self.b.create("arith.xori", [inner, true_const],
                                 [inner.type]).result
        # numeric used as condition: x != 0.0
        value = self._emit_numeric(expr) if not self._is_boolean(expr) \
            else self.emit(expr)
        return arith.cmpf(self.b, "one", value, self._const(0.0))

    # -- helpers ----------------------------------------------------------------

    def _const(self, value: float) -> Value:
        """A (possibly broadcast) f64 constant at the working width."""
        scalar = self.b.constant(float(value), f64)
        if self.width == 1:
            return scalar
        from ..ir.dialects import vector as vector_dialect
        return vector_dialect.broadcast(self.b, scalar, self.width)

    def _bool_const(self, value: bool) -> Value:
        scalar = self.b.constant(bool(value), i1)
        if self.width == 1:
            return scalar
        from ..ir.dialects import vector as vector_dialect
        return vector_dialect.broadcast(self.b, scalar, self.width)

    @staticmethod
    def _is_boolean(expr: Expr) -> bool:
        if isinstance(expr, Binary):
            return expr.op in ("<", "<=", ">", ">=", "==", "!=", "and", "or")
        return isinstance(expr, Unary) and expr.op == "!"

    # -- numeric ------------------------------------------------------------------

    def _emit_numeric(self, expr: Expr) -> Value:
        if isinstance(expr, Number):
            return self._const(expr.value)
        if isinstance(expr, Name):
            value = self.env.get(expr.identifier)
            if value is None:
                raise SemanticError(
                    f"codegen: no value bound for {expr.identifier!r}")
            return value
        if isinstance(expr, Unary):
            if expr.op == "-":
                return arith.negf(self.b, self.emit(expr.operand))
            # '!' handled by the boolean path in emit()
            raise SemanticError(f"codegen: unexpected unary {expr.op!r}")
        if isinstance(expr, Binary):
            return self._emit_binary(expr)
        if isinstance(expr, Ternary):
            cond = self.emit_bool(expr.cond)
            return arith.select(self.b, cond, self.emit(expr.then),
                                self.emit(expr.otherwise))
        if isinstance(expr, Call):
            return self._emit_call(expr)
        raise SemanticError(f"codegen: unsupported expression {expr!r}")

    def _emit_binary(self, expr: Binary) -> Value:
        lhs = self.emit(expr.lhs)
        rhs = self.emit(expr.rhs)
        ops = {"+": arith.addf, "-": arith.subf, "*": arith.mulf,
               "/": arith.divf, "%": arith.remf}
        fn = ops.get(expr.op)
        if fn is None:
            raise SemanticError(f"codegen: unknown operator {expr.op!r}")
        return fn(self.b, lhs, rhs)

    def _emit_call(self, expr: Call) -> Value:
        name = expr.callee
        if name in self.foreign:
            return self._emit_foreign_call(expr)
        builtin = BUILTINS.get(name)
        if builtin is None:
            raise SemanticError(f"codegen: unknown function {name!r}")
        if len(expr.args) != builtin.arity:
            raise SemanticError(
                f"codegen: {name}() takes {builtin.arity} argument(s), "
                f"got {len(expr.args)}")
        if builtin.op is None:
            return getattr(self, f"_expand_{name}")(expr)
        args = [self.emit(a) for a in expr.args]
        return self.b.create(f"math.{builtin.op}", args,
                             [args[0].type]).result

    # -- the builtins without an op of their own (easyml/builtins.py) ----------

    def _expand_square(self, expr: Call) -> Value:
        return self._pow_chain(self.emit(expr.args[0]), 2)

    def _expand_cube(self, expr: Call) -> Value:
        return self._pow_chain(self.emit(expr.args[0]), 3)

    def _expand_min(self, expr: Call) -> Value:
        return arith.minimumf(self.b, self.emit(expr.args[0]),
                              self.emit(expr.args[1]))

    def _expand_max(self, expr: Call) -> Value:
        return arith.maximumf(self.b, self.emit(expr.args[0]),
                              self.emit(expr.args[1]))

    @staticmethod
    def _constant_exponent(exp_expr: Expr) -> Optional[float]:
        if isinstance(exp_expr, Number):
            return exp_expr.value
        if isinstance(exp_expr, Unary) and exp_expr.op == "-" and \
                isinstance(exp_expr.operand, Number):
            return -exp_expr.operand.value
        return None

    def _emit_foreign_call(self, expr: Call) -> Value:
        """An opaque external C call: scalar passthrough only."""
        if self.width != 1:
            raise UnsupportedModelError(
                f"foreign function {expr.callee!r} cannot be vectorized; "
                f"this model is one of the 4 (of 47) outside limpetMLIR's "
                f"support (use the baseline backend)")
        from ..ir.dialects import func as func_dialect
        args = [self.emit(a) for a in expr.args]
        call = func_dialect.call(self.b, f"foreign_{expr.callee}", args,
                                 [f64])
        return call.results[0]

    def _expand_pow(self, expr: Call) -> Value:
        base_expr, exp_expr = expr.args
        exponent = self._constant_exponent(exp_expr)
        if exponent is not None:
            if exponent == int(exponent) and \
                    0 < abs(int(exponent)) <= self._MAX_POW_EXPAND:
                # pow with a small constant integer exponent expands to a
                # multiply chain — cheaper than a libm/SVML call on every
                # target ISA.
                n = int(abs(exponent))
                base = self.emit(base_expr)
                result = self._pow_chain(base, n)
                if exponent < 0:
                    result = arith.divf(self.b, self._const(1.0), result)
                return result
        base = self.emit(base_expr)
        exp_value = self.emit(exp_expr)
        return math_dialect.powf(self.b, base, exp_value)

    def _pow_chain(self, base: Value, n: int) -> Value:
        """Square-and-multiply chain for x**n, n >= 1."""
        if n == 1:
            return base
        half = self._pow_chain(base, n // 2)
        squared = arith.mulf(self.b, half, half)
        if n % 2:
            return arith.mulf(self.b, squared, base)
        return squared
