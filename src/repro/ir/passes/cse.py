"""Common subexpression elimination for pure operations.

Ionic models repeat subterms heavily — e.g. ``(ul+u3-Vm)`` occurs four
times in the paper's Listing 2 — so CSE is one of the two in-tree MLIR
passes the paper calls out as beneficial (§3.4.2 closing remark).

Scoped like MLIR's CSE: an op may reuse an equivalent op from its own
block or any enclosing block, never from a sibling op's body.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core import Block, Module, Operation
from .pass_manager import Pass


def _op_key(op: Operation) -> Tuple:
    """A hashable identity for value-numbering pure ops.

    Result types are uniqued, so they key as themselves; attribute values
    key by ``repr``, which keeps ``0.0`` and ``-0.0`` apart."""
    operand_ids: Tuple = tuple(map(id, op.operands))
    if op.info.commutative and len(operand_ids) == 2:
        operand_ids = tuple(sorted(operand_ids))
    attrs = tuple(sorted([(k, repr(v)) for k, v in op.attributes.items()]))
    result_tys = tuple([r.type for r in op.results])
    return (op.name, operand_ids, attrs, result_tys)


class CSE(Pass):
    name = "cse"

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.ops:
            if func.body is not None:
                changed |= self._run_on_block(func.body, {})
        return changed

    def _run_on_block(self, block: Block,
                      outer: Dict[Tuple, Operation]) -> bool:
        changed = False
        known: Dict[Tuple, Operation] = dict(outer)
        for op in list(block.ops):
            if op.is_pure and op.body is None:
                key = _op_key(op)
                existing = known.get(key)
                if existing is not None:
                    for old, new in zip(op.results, existing.results):
                        old.replace_all_uses_with(new)
                    op.erase()
                    changed = True
                    continue
                known[key] = op
            if op.body is not None:
                changed |= self._run_on_block(op.body, known)
        return changed
