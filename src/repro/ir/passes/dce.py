"""Dead code elimination: drop pure ops whose results are never used."""

from __future__ import annotations

from ..core import Block, Module, Operation
from .pass_manager import Pass


def _is_dead(op: Operation) -> bool:
    if not op.is_pure or op.body is not None:
        return False
    return all(not r.uses for r in op.results)


class DCE(Pass):
    name = "dce"

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.ops:
            if func.body is not None:
                changed |= self._run_on_block(func.body)
        return changed

    def _run_on_block(self, block: Block) -> bool:
        changed = False
        for op in block.ops:
            if op.body is not None:
                changed |= self._run_on_block(op.body)
        # Reverse order so a chain of dead ops dies in a single sweep;
        # the dead are detached and the op list rebuilt once.
        dead = False
        for op in reversed(block.ops):
            if _is_dead(op):
                op.detach()
                dead = True
        if dead:
            block.ops[:] = [op for op in block.ops if op.parent is block]
        return changed or dead
