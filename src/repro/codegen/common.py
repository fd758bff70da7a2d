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
from ..easyml.builtins import BUILTINS, OPERATORS, Operator
from ..easyml.errors import SemanticError
from ..frontend.model import IonicModel
from ..frontend.preprocessor import Preprocessor
from ..ir.builder import IRBuilder
from ..ir.core import Value
from ..ir.dialects import arith, math as math_dialect
from ..ir.dialects import vector as vector_dialect
from ..ir.types import f64, i1
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

    def argument_names(self) -> List[str]:
        """Kernel argument order shared by codegen and the runtime."""
        names = ["start", "end", "dt", "t", "sv"]
        names += [f"{ext}_ext" for ext in self.model.externals]
        names += [f"param_{p}" for p in self.model.promoted_params]
        if self.use_lut:
            names += [f"lut_{table.var}" for table in self.model.lut_tables]
        return names


#: the generators' own version, part of every kernel-cache key.  Bump it
#: whenever the printed pre-pipeline IR of any kernel moves: ``python -m
#: tests.pins --check`` says so and ``--write`` refuses until it moved.
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
    generator_version: int = field(
        default_factory=lambda: GENERATOR_VERSION)

    def key_lines(self) -> List[str]:
        """One ``name=value`` line per field, for a store key to hash.

        ``launch=()`` is a constant: the retired GPU target's launch
        geometry held that place, and it stays so no key moves."""
        if not self.source_digest:
            raise ValueError(
                "the model carries no source digest (it was not parsed "
                "from EasyML text), so its kernel has no store key")
        lines = [f"{name}={value}" for name, value in vars(self).items()]
        lines.insert(-1, "launch=()")
        return lines


class GeneratedKernel:
    """A generated kernel: its spec, its request, and its IR module.

    ``module`` is either the module (or ``None``: a bundled kernel has
    no IR) or the zero-argument emitter that builds it; the emitter runs
    on the first read of :attr:`module`, so a kernel served from a store
    never pays for IR nobody reads.  Emission is deterministic, so the
    emitter also builds the module again: :meth:`take_module` hands it
    to the read that emits, for a pass manager to roll back with.
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

    def take_module(self):
        """``(module, rebuild)``: :attr:`module`, and the emitter when
        this read is the one that emits it, so nothing has changed the
        module yet and the emitter builds it again as it is now;
        ``rebuild`` is None once the module was read or if it was given."""
        rebuild = self._module if callable(self._module) else None
        return self.module, rebuild


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

    # -- public ------------------------------------------------------------------

    def emit(self, expr: Expr) -> Value:
        """Emit ``expr`` as an f64(-vector) value."""
        if self._truth_row(expr) is not None:
            return arith.select(self.b, self.emit_bool(expr),
                                self._const(1.0), self._const(0.0))
        return self._emit_numeric(expr)

    def emit_bool(self, expr: Expr) -> Value:
        """Emit ``expr`` as an i1(-vector) condition."""
        row = self._truth_row(expr)
        if row is None:         # numeric used as condition: x != 0.0
            return arith.cmpf(self.b, OPERATORS["!=", 2].ir,
                              self._emit_numeric(expr), self._const(0.0))
        if row.ir in arith.CMPF_PREDICATES:
            return arith.cmpf(self.b, row.ir, self.emit(expr.lhs),
                              self.emit(expr.rhs))
        operands = [self.emit_bool(c) for c in expr.children()]
        if len(operands) == 1:  # ``!`` is ``xori`` with true
            operands.append(self._bool_const(True))
        return self._op(row.ir, operands)

    # -- helpers ----------------------------------------------------------------

    def _const(self, value: float) -> Value:
        """A (possibly broadcast) f64 constant at the working width."""
        scalar = self.b.constant(float(value), f64)
        if self.width == 1:
            return scalar
        return vector_dialect.broadcast(self.b, scalar, self.width)

    def _bool_const(self, value: bool) -> Value:
        scalar = self.b.constant(bool(value), i1)
        if self.width == 1:
            return scalar
        return vector_dialect.broadcast(self.b, scalar, self.width)

    @staticmethod
    def _truth_row(expr: Expr) -> Optional[Operator]:
        """The operator row of a truth-valued Unary / Binary, else None."""
        if not isinstance(expr, (Unary, Binary)):
            return None
        row = OPERATORS.get((expr.op, len(expr.children())))
        if row is None:
            raise SemanticError(f"codegen: unknown operator {expr.op!r}")
        return row if row.truth else None

    def _op(self, name: str, operands: List[Value]) -> Value:
        """``name`` over ``operands``, typed like its first operand."""
        return self.b.create(name, operands, [operands[0].type]).result

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
        if isinstance(expr, (Unary, Binary)):   # emit() checked the op
            operands = [self.emit(c) for c in expr.children()]
            return self._op(OPERATORS[expr.op, len(operands)].ir, operands)
        if isinstance(expr, Ternary):
            cond = self.emit_bool(expr.cond)
            return arith.select(self.b, cond, self.emit(expr.then),
                                self.emit(expr.otherwise))
        if isinstance(expr, Call):
            return self._emit_call(expr)
        raise SemanticError(f"codegen: unsupported expression {expr!r}")

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
        return self._op(f"math.{builtin.op}",
                        [self.emit(a) for a in expr.args])

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
        exponent = Preprocessor(foreign=self.foreign).try_eval(exp_expr)
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
