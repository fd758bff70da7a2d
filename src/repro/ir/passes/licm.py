"""Loop invariant code motion over ``scf.for`` loops.

The other in-tree pass the paper names.  In the generated compute
kernels, broadcasts of parameters and arithmetic on them are invariant
across the cell loop and get hoisted out, so they are paid once per
time step instead of once per vector of cells.

Each loop is swept once, front to back: an op is invariant when it is
pure, has no body, and every operand is defined outside the loop or by
an op this sweep already hoisted.
"""

from __future__ import annotations

from typing import List, Set

from ..core import Block, Module, Operation, is_defined_in
from .pass_manager import Pass


def _is_invariant(op: Operation, loop: Operation,
                  hoisted: Set[int]) -> bool:
    if not op.is_pure or op.body is not None:
        return False
    for operand in op.operands:
        if id(operand) in hoisted:
            continue
        if is_defined_in(operand, loop):
            return False
    return True


class LICM(Pass):
    name = "licm"

    def run(self, module: Module) -> bool:
        return self._run_on_block(module.body)

    def _run_on_block(self, block: Block) -> bool:
        """Pre-order, as :meth:`Module.walk`: a loop hoists before its
        body is visited, so an inner loop hoists into the outer body."""
        changed = False
        for op in list(block.ops):
            if op.name == "scf.for":
                changed |= self._hoist_from(op)
            if op.body is not None:
                changed |= self._run_on_block(op.body)
        return changed

    def _hoist_from(self, loop: Operation) -> bool:
        """Hoist ``loop``'s invariant ops in one forward sweep.

        An op's operands are defined before it, so by the time the sweep
        reaches an op it has decided every op that op could depend on:
        a second sweep would hoist nothing.  The hoisted ops keep their
        encounter order and go before the loop in one splice."""
        body: Block = loop.body
        terminator = body.terminator
        hoisted: List[Operation] = []
        hoisted_results: Set[int] = set()
        kept: List[Operation] = []
        for op in body.ops:
            if op is not terminator and _is_invariant(op, loop,
                                                      hoisted_results):
                hoisted.append(op)
                hoisted_results.update(map(id, op.results))
            else:
                kept.append(op)
        if not hoisted:
            return False
        body.ops[:] = kept
        block = loop.parent
        at = block.ops.index(loop)
        block.ops[at:at] = hoisted
        for op in hoisted:
            op.parent = block
        return True
