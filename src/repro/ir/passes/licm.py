"""Loop invariant code motion over ``scf.for`` loops.

The other in-tree pass the paper names.  In the generated compute
kernels, broadcasts of parameters and arithmetic on them are invariant
across the cell loop and get hoisted out, so they are paid once per
time step instead of once per vector of cells.
"""

from __future__ import annotations

from typing import Set

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
        changed = False
        for op in module.walk():
            if op.name == "scf.for":
                changed |= self._hoist_from(op)
        return changed

    def _hoist_from(self, loop: Operation) -> bool:
        body: Block = loop.body
        hoisted_results: Set[int] = set()
        changed = False
        # Iterate to a local fixed point: hoisting one op can make its
        # users invariant too.
        progress = True
        while progress:
            progress = False
            for op in list(body.ops):
                if op is body.terminator:
                    continue
                if _is_invariant(op, loop, hoisted_results):
                    op.move_before(loop)
                    for result in op.results:
                        hoisted_results.add(id(result))
                    progress = True
                    changed = True
        return changed
