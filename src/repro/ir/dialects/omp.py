"""The ``omp`` dialect: worksharing annotations for the cell loop.

The paper parallelizes the compute stage with
``#pragma omp parallel for schedule(static)``; in the MLIR path this
becomes an ``omp.parallel`` op whose one-block body wraps the
``scf.for``.  Our executor partitions cells across simulated threads
and the machine model charges fork/join + barrier costs per time step
(the effect that makes small models *slower* at 32 threads in Fig.
3/4).
"""

from __future__ import annotations

from ..core import Block, IRError, OpInfo, Operation, register_op
from ..builder import IRBuilder


def _verify_parallel(op: Operation) -> None:
    if op.body is None:
        raise IRError("omp.parallel: expects a body")
    term = op.body.terminator
    if term is None or term.name != "omp.terminator":
        raise IRError("omp.parallel: region must end in omp.terminator")


register_op(OpInfo(name="omp.parallel", verify=_verify_parallel))
register_op(OpInfo(name="omp.terminator", terminator=True))


class ParallelOp:
    """Structured wrapper over an ``omp.parallel`` op and its body."""

    def __init__(self, op: Operation):
        self.op = op

    @property
    def body(self) -> Block:
        return self.op.body

    @property
    def schedule(self) -> str:
        return self.op.attributes.get("schedule", "static")


def parallel(b: IRBuilder, schedule: str = "static") -> ParallelOp:
    """Create ``omp.parallel { ... omp.terminator }``.

    The caller fills the body (before the terminator) with the
    worksharing loop.
    """
    body = Block()
    op = b.create("omp.parallel", [], [], {"schedule": schedule},
                  body=body)
    with b.at_end_of(body):
        b.create("omp.terminator", [], [])
    return ParallelOp(op)


def terminator(b: IRBuilder) -> Operation:
    return b.create("omp.terminator", [], [])
