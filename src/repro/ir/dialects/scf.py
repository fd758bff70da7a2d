"""The ``scf`` dialect: structured control flow (for, yield).

``scf.for`` is the loop over cells, and with loop-carried values
(``iter_args``) the markov_be fixed-point refinement.  There is no
conditional op: the frontend if-converts EasyML conditionals to
``arith.select``, so a kernel body is straight-line code that the vector
engine runs lane-wise.
"""

from __future__ import annotations

from typing import Sequence

from ..core import Block, IRError, OpInfo, Operation, Value, register_op
from ..builder import IRBuilder
from ..types import index


def _verify_for(op: Operation) -> None:
    if len(op.operands) < 3:
        raise IRError("scf.for: needs lower bound, upper bound and step")
    lb, ub, step = op.operands[:3]
    for v, what in ((lb, "lower bound"), (ub, "upper bound"), (step, "step")):
        if not v.type.is_integer:
            raise IRError(f"scf.for: {what} must be integer-like, got {v.type}")
    body = op.body
    if body is None:
        raise IRError("scf.for: expects a body")
    n_iter = len(op.operands) - 3
    if len(body.args) != 1 + n_iter:
        raise IRError("scf.for: body must take induction var + iter_args")
    term = body.terminator
    if term is None or term.name != "scf.yield":
        raise IRError("scf.for: body must end in scf.yield")
    if len(term.operands) != n_iter:
        raise IRError("scf.for: yield arity must match iter_args")


register_op(OpInfo(name="scf.for", verify=_verify_for))
register_op(OpInfo(name="scf.yield", terminator=True))


class ForOp:
    """Structured wrapper over a built ``scf.for`` operation."""

    def __init__(self, op: Operation):
        self.op = op

    @property
    def body(self) -> Block:
        return self.op.body

    @property
    def induction_var(self) -> Value:
        return self.body.args[0]

    @property
    def iter_args(self) -> Sequence[Value]:
        return self.body.args[1:]

    @property
    def step(self) -> Value:
        return self.op.operands[2]

    @property
    def results(self) -> Sequence[Value]:
        return self.op.results


def for_op(b: IRBuilder, lower: Value, upper: Value, step: Value,
           iter_init: Sequence[Value] = (),
           iv_hint: str = "i") -> ForOp:
    """Create an ``scf.for`` and return a wrapper exposing its body.

    The caller positions a builder at ``loop.body`` to fill it in and
    must finish with :func:`yield_op`.
    """
    body = Block([index] + [v.type for v in iter_init],
                 [iv_hint] + [f"iter{i}" for i in range(len(iter_init))])
    op = b.create("scf.for", [lower, upper, step, *iter_init],
                  [v.type for v in iter_init],
                  body=body)
    return ForOp(op)


def yield_op(b: IRBuilder, values: Sequence[Value] = ()) -> Operation:
    return b.create("scf.yield", list(values), [])
