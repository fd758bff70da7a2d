"""A direct IR interpreter — the reference execution engine.

Walks the IR op by op, evaluating each through the semantics registered
in the :class:`~repro.ir.core.OpInfo` registry (plus structural
handling for control flow, memory and vector ops).  It is much slower
than the lowered NumPy kernels, which is exactly the point: it shares
*no code path* with the lowering, so agreement between the two engines
is strong evidence that both implement the IR's semantics — the
differential-testing role mlir-cpu-runner plays for MLIR.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

import numpy as np

from ..ir.core import Block, IRError, Module, Operation, op_info
from .foreign import registered_foreign
from .lut_runtime import (lut_interp_row, lut_interp_row_spline,
                          lut_interp_row_spline_vec, lut_interp_row_vec)


class InterpreterError(IRError):
    """Raised when an op has no interpretation."""


class Interpreter:
    """Interprets function bodies of one module."""

    def __init__(self, module: Module):
        self.module = module
        self._intrinsics: Dict[str, Callable] = {}
        for name, fn in registered_foreign().items():
            self._intrinsics[f"foreign_{name}"] = fn

    # -- public -----------------------------------------------------------------

    def call(self, function_name: str, *args):
        """Interpret ``function_name`` with concrete argument values."""
        func_op = self.module.lookup_func(function_name)
        if func_op is None:
            raise InterpreterError(f"no function @{function_name}")
        entry = func_op.body
        if len(args) != len(entry.args):
            raise InterpreterError(
                f"@{function_name} takes {len(entry.args)} arguments, "
                f"got {len(args)}")
        env: Dict[int, Any] = {id(block_arg): value
                               for block_arg, value in zip(entry.args,
                                                           args)}
        # the foreign functions hold no errstate: their caller holds one
        with np.errstate(all="ignore"):
            return self._run_block(entry, env)

    # -- structure ---------------------------------------------------------------

    def _run_block(self, block: Block, env: Dict[int, Any]):
        for op in block.ops:
            outcome = self._run_op(op, env)
            if op.name == "func.return":
                return outcome
        return None

    def _run_op(self, op: Operation, env: Dict[int, Any]):
        name = op.name
        values = [env[id(v)] for v in op.operands]

        if name == "func.return":
            if not values:
                return None
            return values[0] if len(values) == 1 else tuple(values)
        if name == "omp.parallel":
            # one simulated worker interprets the whole body
            for inner in op.body.ops:
                if inner.name != "omp.terminator":
                    self._run_op(inner, env)
            return None
        if name == "scf.for":
            self._run_for(op, env, values)
            return None
        if name == "scf.yield":
            raise InterpreterError("scf.yield outside its parent")
        if name == "arith.constant":
            env[id(op.result)] = op.attributes["value"]
            return None
        if name == "func.call":
            self._run_call(op, env, values)
            return None
        if self._run_memref_or_vector(op, env, values):
            return None
        info = op_info(name)
        if info is None or info.py_eval is None:
            raise InterpreterError(f"no interpretation for {name}")
        if name in ("arith.cmpf", "arith.cmpi"):
            result = info.py_eval(op, *values)
        else:
            result = info.py_eval(*values)
        env[id(op.result)] = result
        return None

    # -- control flow ---------------------------------------------------------------

    def _run_for(self, op: Operation, env: Dict[int, Any],
                 values: Sequence[Any]) -> None:
        lower, upper, step = (int(v) for v in values[:3])
        carried = list(values[3:])
        body = op.body
        for iv in range(lower, upper, step):
            env[id(body.args[0])] = iv
            for arg, value in zip(body.args[1:], carried):
                env[id(arg)] = value
            for inner in body.ops[:-1]:
                self._run_op(inner, env)
            terminator = body.ops[-1]
            if terminator.name != "scf.yield":
                raise InterpreterError("scf.for body must end in yield")
            carried = [env[id(v)] for v in terminator.operands]
        for result, value in zip(op.results, carried):
            env[id(result)] = value

    # -- calls ------------------------------------------------------------------------

    def _run_call(self, op: Operation, env: Dict[int, Any],
                  values: Sequence[Any]) -> None:
        callee = op.attributes["callee"]
        if callee.startswith("LUT_interpRowSpline_n_elements_vec"):
            results = lut_interp_row_spline_vec(values[0], values[1])
        elif callee.startswith("LUT_interpRowSpline"):
            results = lut_interp_row_spline(values[0], float(values[1]))
        elif callee.startswith("LUT_interpRow_n_elements_vec"):
            results = lut_interp_row_vec(values[0], values[1])
        elif callee.startswith("LUT_interpRow"):
            results = lut_interp_row(values[0], float(values[1]))
        elif callee in self._intrinsics:
            out = self._intrinsics[callee](*values)
            results = out if isinstance(out, tuple) else (out,)
        else:
            raise InterpreterError(f"unknown callee @{callee}")
        for result, value in zip(op.results, results):
            env[id(result)] = value

    # -- memory and vectors ------------------------------------------------------------

    def _run_memref_or_vector(self, op: Operation, env: Dict[int, Any],
                              values: Sequence[Any]) -> bool:
        name = op.name
        if name == "memref.load":
            base, *idx = values
            env[id(op.result)] = base[tuple(int(i) for i in idx)] \
                if len(idx) > 1 else base[int(idx[0])]
        elif name == "memref.store":
            value, base, *idx = values
            if len(idx) > 1:
                base[tuple(int(i) for i in idx)] = value
            else:
                base[int(idx[0])] = value
        elif name == "vector.broadcast":
            width = op.result.type.width
            env[id(op.result)] = np.full(width, values[0])
        elif name == "vector.step":
            env[id(op.result)] = np.arange(op.result.type.width)
        elif name == "vector.load":
            base, *idx = values
            start = int(idx[0])
            env[id(op.result)] = base[start:start
                                      + op.result.type.width].copy()
        elif name == "vector.store":
            value, base, *idx = values
            start = int(idx[0])
            base[start:start + len(value)] = value
        elif name == "vector.gather":
            base, index_vec = values[0], np.asarray(values[1],
                                                    dtype=np.int64)
            if len(values) == 4:
                mask, pass_thru = values[2], values[3]
                safe = np.where(mask, index_vec, 0)
                env[id(op.result)] = np.where(mask, base[safe], pass_thru)
            else:
                env[id(op.result)] = base[index_vec]
        elif name == "vector.scatter":
            value, base = values[0], values[1]
            index_vec = np.asarray(values[2], dtype=np.int64)
            if len(values) == 4:
                mask = np.asarray(values[3], dtype=bool)
                base[index_vec[mask]] = np.asarray(value)[mask]
            else:
                base[index_vec] = value
        elif name == "vector.extract":
            env[id(op.result)] = values[0][op.attributes["position"]]
        elif name == "vector.insert":
            scalar, vec = values
            out = np.array(vec, dtype=np.float64, copy=True)
            out[op.attributes["position"]] = scalar
            env[id(op.result)] = out
        else:
            return False
        return True


def interpret_kernel(generated, state, luts, dt: float,
                     time: float = 0.0) -> None:
    """Run one compute step of a GeneratedKernel through the interpreter.

    Mutates ``state`` in place, like the compiled kernel would.
    """
    interp = Interpreter(generated.module)
    args: List[Any] = [0, state.n_alloc, dt, time, state.sv]
    args += [state.externals[ext]
             for ext in generated.spec.model.externals]
    if generated.spec.use_lut:
        args += list(luts)
    interp.call(generated.spec.function_name, *args)
