"""A minimal ``gpu`` dialect for the §7 heterogeneous extension.

"Our ongoing work aims to generalize our approach to enable ionic
models not only to execute efficiently on CPUs, but also on other
heterogeneous hardware supported by MLIR."  This dialect provides the
handful of ops that extension needs: a kernel-launch region, the
thread-id / grid-size queries inside it, and its terminator — the same
slice of MLIR's ``gpu`` dialect the Open Earth Compiler-style flows
lower through.
"""

from __future__ import annotations

from ..core import Block, IRError, OpInfo, Operation, Region, register_op
from ..builder import IRBuilder
from ..types import index


def _verify_launch(op: Operation) -> None:
    if len(op.regions) != 1 or len(op.regions[0].blocks) != 1:
        raise IRError("gpu.launch: expects one single-block region")
    term = op.regions[0].entry.terminator
    if term is None or term.name != "gpu.terminator":
        raise IRError("gpu.launch: region must end in gpu.terminator")
    for key in ("grid_size", "block_size"):
        if not isinstance(op.attributes.get(key), int):
            raise IRError(f"gpu.launch: missing integer {key}")


register_op(OpInfo(name="gpu.launch", verify=_verify_launch))
register_op(OpInfo(name="gpu.terminator", terminator=True))
register_op(OpInfo(name="gpu.global_id", pure=True))
register_op(OpInfo(name="gpu.grid_dim", pure=True))


class LaunchOp:
    """Structured wrapper over a ``gpu.launch`` region."""

    def __init__(self, op: Operation):
        self.op = op

    @property
    def body(self) -> Block:
        return self.op.regions[0].entry

    @property
    def grid_size(self) -> int:
        return self.op.attributes["grid_size"]

    @property
    def block_size(self) -> int:
        return self.op.attributes["block_size"]


def launch(b: IRBuilder, grid_size: int, block_size: int) -> LaunchOp:
    """``gpu.launch grid(G) block(B) { ... gpu.terminator }``."""
    body = Block()
    op = b.create("gpu.launch", [], [],
                  {"grid_size": grid_size, "block_size": block_size},
                  regions=[Region([body])])
    with b.at_end_of(body):
        b.create("gpu.terminator", [], [])
    return LaunchOp(op)


def global_id(b: IRBuilder):
    """The launched thread's global linear id (blockIdx*blockDim+tid)."""
    return b.create("gpu.global_id", [], [index]).result


def grid_dim(b: IRBuilder):
    """Total number of launched threads (for grid-stride loops)."""
    return b.create("gpu.grid_dim", [], [index]).result
