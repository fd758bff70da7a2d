"""Textual form of the IR.

Two flavours are produced:

* the **generic form** (default) — a uniform, fully parseable syntax::

      %2 = arith.addf(%0, %1) : (f64, f64) -> f64
      scf.for(%lb, %ub, %c1) : () -> () {
      ^bb0(%i: index):
        ...
      }

  :mod:`repro.ir.parser` round-trips this exactly.

* the **pretty form** (``pretty=True``) — closer to upstream MLIR
  syntax for human consumption in examples and docs (``%2 = arith.addf
  %0, %1 : f64``); it is not meant to be parsed back.
"""

from __future__ import annotations

import io
from typing import Dict

from .core import Module, Operation, Value
from .types import FunctionType


class _NameScope:
    """Assigns stable printed names to SSA values and body labels."""

    def __init__(self) -> None:
        self.value_names: Dict[int, str] = {}
        self._taken: set[str] = set()
        self._counter = 0
        self._block_counter = 0

    def value_name(self, value: Value) -> str:
        name = self.value_names.get(id(value))
        if name is not None:
            return name
        hint = value.name_hint
        if hint and hint not in self._taken:
            name = hint
        else:
            base = hint or str(self._counter)
            name = base
            suffix = 0
            while name in self._taken:
                suffix += 1
                name = f"{base}_{suffix}"
            if not hint:
                self._counter += 1
        self._taken.add(name)
        self.value_names[id(value)] = name
        return name

    def block_label(self) -> str:
        """The next body's label; each body is printed once."""
        name = f"bb{self._block_counter}"
        self._block_counter += 1
        return name


def _format_attr_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, FunctionType):
        return f"<{value}>"
    if isinstance(value, (list, tuple)):
        inner = ", ".join(_format_attr_value(v) for v in value)
        return f"[{inner}]"
    return f'"{value!s}"'


def _format_attrs(op: Operation) -> str:
    if not op.attributes:
        return ""
    parts = [f"{k} = {_format_attr_value(v)}"
             for k, v in sorted(op.attributes.items())]
    return " {" + ", ".join(parts) + "}"


class Printer:
    def __init__(self, pretty: bool = False):
        self.pretty = pretty
        self.scope = _NameScope()
        self.out = io.StringIO()
        self.indent = 0

    def line(self, text: str) -> None:
        self.out.write("  " * self.indent + text + "\n")

    # -- entry points ---------------------------------------------------------

    def print_module(self, module: Module) -> str:
        self.line(f"module @{module.name} {{")
        self.indent += 1
        for op in module.ops:
            self.print_op(op)
        self.indent -= 1
        self.line("}")
        return self.out.getvalue()

    def print_op(self, op: Operation) -> None:
        if op.name == "func.func":
            self._print_func(op)
            return
        if self.pretty and self._print_pretty(op):
            return
        self._print_generic(op)

    # -- generic form ----------------------------------------------------------

    def _print_generic(self, op: Operation) -> None:
        v = self.scope.value_name
        results = ", ".join(f"%{v(r)}" for r in op.results)
        prefix = f"{results} = " if op.results else ""
        operands = ", ".join(f"%{v(o)}" for o in op.operands)
        attrs = _format_attrs(op)
        in_tys = ", ".join(str(o.type) for o in op.operands)
        out_tys = ", ".join(str(r.type) for r in op.results)
        sig = f" : ({in_tys}) -> ({out_tys})"
        header = f"{prefix}{op.name}({operands}){attrs}{sig}"
        body = op.body
        if body is None:
            self.line(header)
            return
        self.line(header + " {")
        args = ", ".join(
            f"%{self.scope.value_name(a)}: {a.type}" for a in body.args)
        self.line(f"^{self.scope.block_label()}({args}):")
        self.indent += 1
        for inner in body.ops:
            self.print_op(inner)
        self.indent -= 1
        self.line("}")

    def _print_func(self, op: Operation) -> None:
        ftype: FunctionType = op.attributes["function_type"]
        name = op.attributes["sym_name"]
        if op.attributes.get("declaration"):
            self.line(f"func.func private @{name} {ftype}")
            return
        body = op.body
        args = ", ".join(
            f"%{self.scope.value_name(a)}: {a.type}" for a in body.args)
        rets = ", ".join(str(t) for t in ftype.results)
        self.line(f"func.func @{name}({args}) -> ({rets}) {{")
        self.indent += 1
        for body_op in body.ops:
            self.print_op(body_op)
        self.indent -= 1
        self.line("}")

    # -- pretty form -------------------------------------------------------------

    def _print_pretty(self, op: Operation) -> bool:
        """Print selected ops in MLIR-like sugar; False -> use generic form."""
        v = self.scope.value_name
        if op.name == "arith.constant":
            res = op.result
            value = op.attributes["value"]
            if res.type.is_vector:
                self.line(f"%{v(res)} = arith.constant dense<{value}> "
                          f": {res.type}")
            else:
                self.line(f"%{v(res)} = arith.constant {value} : {res.type}")
            return True
        if op.name in ("arith.cmpf", "arith.cmpi"):
            pred = op.attributes["predicate"]
            a, bv = op.operands
            self.line(f"%{v(op.result)} = {op.name} {pred}, %{v(a)}, %{v(bv)}"
                      f" : {a.type}")
            return True
        if (op.dialect in ("arith", "math") and op.results
                and op.body is None):
            ops_str = ", ".join(f"%{v(o)}" for o in op.operands)
            self.line(f"%{v(op.result)} = {op.name} {ops_str}"
                      f" : {op.result.type}")
            return True
        if op.name == "memref.load":
            base, *idx = op.operands
            idx_str = ", ".join(f"%{v(i)}" for i in idx)
            self.line(f"%{v(op.result)} = memref.load %{v(base)}[{idx_str}]"
                      f" : {base.type}")
            return True
        if op.name == "memref.store":
            value, base, *idx = op.operands
            idx_str = ", ".join(f"%{v(i)}" for i in idx)
            self.line(f"memref.store %{v(value)}, %{v(base)}[{idx_str}]"
                      f" : {base.type}")
            return True
        if op.name == "vector.load":
            base, *idx = op.operands
            idx_str = ", ".join(f"%{v(i)}" for i in idx)
            self.line(f"%{v(op.result)} = vector.load %{v(base)}[{idx_str}]"
                      f" : {base.type}, {op.result.type}")
            return True
        if op.name == "vector.store":
            value, base, *idx = op.operands
            idx_str = ", ".join(f"%{v(i)}" for i in idx)
            self.line(f"vector.store %{v(value)}, %{v(base)}[{idx_str}]"
                      f" : {base.type}, {value.type}")
            return True
        if op.name == "vector.broadcast":
            src = op.operands[0]
            self.line(f"%{v(op.result)} = vector.broadcast %{v(src)}"
                      f" : {src.type} to {op.result.type}")
            return True
        if op.name == "func.call":
            callee = op.attributes["callee"]
            ops_str = ", ".join(f"%{v(o)}" for o in op.operands)
            results = ", ".join(f"%{v(r)}" for r in op.results)
            prefix = f"{results} = " if op.results else ""
            in_tys = ", ".join(str(o.type) for o in op.operands)
            out_tys = ", ".join(str(r.type) for r in op.results)
            self.line(f"{prefix}func.call @{callee}({ops_str})"
                      f" : ({in_tys}) -> ({out_tys})")
            return True
        if op.name == "func.return":
            if op.operands:
                ops_str = ", ".join(f"%{v(o)}" for o in op.operands)
                tys = ", ".join(str(o.type) for o in op.operands)
                self.line(f"func.return {ops_str} : {tys}")
            else:
                self.line("func.return")
            return True
        if op.name == "scf.yield":
            if op.operands:
                ops_str = ", ".join(f"%{v(o)}" for o in op.operands)
                tys = ", ".join(str(o.type) for o in op.operands)
                self.line(f"scf.yield {ops_str} : {tys}")
            else:
                self.line("scf.yield")
            return True
        if op.name == "scf.for":
            lb, ub, step, *init = op.operands
            body = op.body
            iv = body.args[0]
            header = (f"scf.for %{v(iv)} = %{v(lb)} to %{v(ub)} "
                      f"step %{v(step)}")
            if init:
                pairs = ", ".join(
                    f"%{v(a)} = %{v(i)}"
                    for a, i in zip(body.args[1:], init))
                tys = ", ".join(str(r.type) for r in op.results)
                header += f" iter_args({pairs}) -> ({tys})"
            if op.results:
                results = ", ".join(f"%{v(r)}" for r in op.results)
                header = f"{results} = {header}"
            self.line(header + " {")
            self.indent += 1
            for body_op in body.ops:
                self.print_op(body_op)
            self.indent -= 1
            self.line("}")
            return True
        if op.name == "omp.parallel":
            self.line(f"omp.parallel "
                      f"schedule({op.attributes.get('schedule', 'static')}) {{")
            self.indent += 1
            for body_op in op.body.ops:
                self.print_op(body_op)
            self.indent -= 1
            self.line("}")
            return True
        if op.name == "omp.terminator":
            self.line("omp.terminator")
            return True
        return False


def print_module(module: Module, pretty: bool = False) -> str:
    """Serialize a module to text (generic form unless ``pretty``)."""
    return Printer(pretty=pretty).print_module(module)


def print_op(op: Operation, pretty: bool = False) -> str:
    """Serialize a single operation (and its body) to text."""
    printer = Printer(pretty=pretty)
    printer.print_op(op)
    return printer.out.getvalue()
