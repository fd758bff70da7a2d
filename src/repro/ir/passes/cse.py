"""Common subexpression elimination for pure operations.

Ionic models repeat subterms heavily — e.g. ``(ul+u3-Vm)`` occurs four
times in the paper's Listing 2 — so CSE is one of the two in-tree MLIR
passes the paper calls out as beneficial (§3.4.2 closing remark).

Scoped like MLIR's CSE: an op may reuse an equivalent op from its own
block or any enclosing block, never from a sibling op's body.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..core import Block, Module, Operation
from .pass_manager import Pass


def _op_key(op: Operation) -> Tuple:
    """A hashable identity for value-numbering pure ops.

    Values and the uniqued result types key by identity (a commutative
    pair in ``id`` order); attribute values key by ``repr``, which keeps
    ``0.0`` and ``-0.0`` apart."""
    operands = op.operands
    if (len(operands) == 2 and op.info.commutative
            and id(operands[0]) > id(operands[1])):
        operand_key: Tuple = (operands[1], operands[0])
    else:
        operand_key = tuple(operands)
    attributes = op.attributes
    attrs = (tuple(sorted([(k, repr(v)) for k, v in attributes.items()]))
             if attributes else ())
    results = op.results
    result_tys = ((id(results[0].type),) if len(results) == 1
                  else tuple([id(r.type) for r in results]))
    return (op.name, operand_key, attrs, result_tys)


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
        """Value-number ``block``; a duplicate is detached as it is found
        and the block's op list rebuilt once at the end."""
        known: Dict[Tuple, Operation] = dict(outer)
        kept: List[Operation] = []
        changed = False
        for op in block.ops:
            info = op.info
            if info is not None and info.pure and op.body is None:
                existing = known.setdefault(_op_key(op), op)
                if existing is not op:
                    for old, new in zip(op.results, existing.results):
                        old.replace_all_uses_with(new)
                    op.detach()
                    changed = True
                    continue
            kept.append(op)
            if op.body is not None:
                changed |= self._run_on_block(op.body, known)
        if len(kept) != len(block.ops):
            block.ops[:] = kept
        return changed
