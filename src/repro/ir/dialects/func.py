"""The ``func`` dialect: function definition, call and return."""

from __future__ import annotations

from typing import Optional, Sequence

from ..core import (Block, IRError, Module, OpInfo, Operation, Value,
                    register_op)
from ..builder import IRBuilder
from ..types import FunctionType, IRType


def _verify_func(op: Operation) -> None:
    name = op.attributes.get("sym_name")
    if not isinstance(name, str) or not name:
        raise IRError("func.func: missing sym_name")
    ftype = op.attributes.get("function_type")
    if not isinstance(ftype, FunctionType):
        raise IRError("func.func: missing function_type attribute")
    if op.attributes.get("declaration"):
        if op.body is not None:
            raise IRError("func.func: declaration must not have a body")
        return
    if op.body is None:
        raise IRError("func.func: definition requires a body")
    if tuple(a.type for a in op.body.args) != ftype.inputs:
        raise IRError(f"func.func @{name}: entry block args do not match "
                      f"signature {ftype}")


def _verify_return(op: Operation) -> None:
    func = op.parent.parent if op.parent else None
    if func is None or func.name != "func.func":
        return
    ftype = func.attributes["function_type"]
    got = tuple(v.type for v in op.operands)
    if tuple(str(t) for t in got) != tuple(str(t) for t in ftype.results):
        raise IRError(
            f"func.return: returns {[str(t) for t in got]} but function "
            f"signature says {[str(t) for t in ftype.results]}")


def _verify_call(op: Operation) -> None:
    if not isinstance(op.attributes.get("callee"), str):
        raise IRError("func.call: missing callee symbol")


register_op(OpInfo(name="func.func", verify=_verify_func))
register_op(OpInfo(name="func.return", terminator=True, verify=_verify_return))
register_op(OpInfo(name="func.call", verify=_verify_call))


class FuncOp:
    """Structured wrapper over a ``func.func`` operation."""

    def __init__(self, op: Operation):
        self.op = op

    @property
    def sym_name(self) -> str:
        return self.op.attributes["sym_name"]

    @property
    def function_type(self) -> FunctionType:
        return self.op.attributes["function_type"]

    @property
    def entry(self) -> Block:
        return self.op.body

    @property
    def args(self) -> Sequence[Value]:
        return self.entry.args


def func(module_or_builder, sym_name: str,
         inputs: Sequence[IRType], results: Sequence[IRType] = (),
         arg_hints: Sequence[Optional[str]] = (),
         declaration: bool = False) -> FuncOp:
    """Create a function (definition or declaration) in a module."""
    ftype = FunctionType(tuple(inputs), tuple(results))
    attrs = {"sym_name": sym_name, "function_type": ftype}
    body = None
    if declaration:
        attrs["declaration"] = True
    else:
        body = Block(list(inputs), list(arg_hints))
    op = Operation("func.func", [], [], attrs, body=body)
    if isinstance(module_or_builder, Module):
        module_or_builder.append(op)
    else:
        module_or_builder.insert(op)
    return FuncOp(op)


def ret(b: IRBuilder, values: Sequence[Value] = ()) -> Operation:
    return b.create("func.return", list(values), [])


def call(b: IRBuilder, callee: str, operands: Sequence[Value],
         result_types: Sequence[IRType] = ()) -> Operation:
    return b.create("func.call", list(operands), list(result_types),
                    {"callee": callee})
