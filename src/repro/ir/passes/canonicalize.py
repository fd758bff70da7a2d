"""Canonicalization: constant folding plus algebraic simplification.

This is the IR-level half of the paper's "preprocessor" (§3.2): values
that are compile-time constants get folded and propagated, and trivial
identities disappear, before CSE/LICM/DCE run.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core import Block, Module, Operation, OpResult, Value
from ..builder import IRBuilder
from .pass_manager import Pass

_ZERO_ABSORBING = {"arith.mulf": 0.0, "arith.muli": 0}
_IDENTITIES = {
    # op -> (identity constant, which side may carry it)
    "arith.addf": (0.0, "either"),
    "arith.addi": (0, "either"),
    "arith.subf": (0.0, "rhs"),
    "arith.subi": (0, "rhs"),
    "arith.mulf": (1.0, "either"),
    "arith.muli": (1, "either"),
    "arith.divf": (1.0, "rhs"),
}


def _constant_value(value: Value) -> Optional[Any]:
    if isinstance(value, OpResult) and value.op.name == "arith.constant":
        return value.op.attributes["value"]
    return None


class Canonicalize(Pass):
    name = "canonicalize"

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.ops:
            if func.body is not None:
                changed |= self._run_on_block(func.body)
        return changed

    def _run_on_block(self, block: Block) -> bool:
        """Rewrite ``block`` front to back while rebuilding its op list:
        an op that survives is appended again, and a fold's constants,
        built at the end of the list so far, land just before the op
        they replace."""
        changed = False
        builder = IRBuilder(block)
        ops = list(block.ops)
        block.ops.clear()
        for op in ops:
            if op.body is not None:
                changed |= self._run_on_block(op.body)
            if self._try_rewrite(op, builder):
                changed = True
            else:
                block.ops.append(op)
        return changed

    def _try_rewrite(self, op: Operation, builder: IRBuilder) -> bool:
        """True when ``op`` was rewritten away (and detached)."""
        if self._try_fold(op, builder):
            return True
        if self._try_select(op):
            return True
        return self._try_identity(op)

    def _try_select(self, op: Operation) -> bool:
        """select with a constant condition forwards the chosen operand."""
        if op.name != "arith.select":
            return False
        cond = _constant_value(op.operands[0])
        if cond is None:
            return False
        chosen = op.operands[1] if cond else op.operands[2]
        op.result.replace_all_uses_with(chosen)
        op.detach()
        return True

    def _try_fold(self, op: Operation, builder: IRBuilder) -> bool:
        info = op.info
        if (info is None or info.fold is None or not info.pure
                or op.name == "arith.constant" or op.body is not None):
            return False
        operand_values = [_constant_value(v) for v in op.operands]
        folded = info.fold(op, operand_values)
        if folded is None:
            return False
        for result, value in zip(op.results, folded):
            const = builder.constant(_normalize(value, result.type),
                                     result.type)
            result.replace_all_uses_with(const)
        op.detach()
        return True

    def _try_identity(self, op: Operation) -> bool:
        absorber = _ZERO_ABSORBING.get(op.name)
        rule = _IDENTITIES.get(op.name)
        if ((absorber is None and rule is None) or len(op.operands) != 2
                or len(op.results) != 1):
            return False
        lhs_const = _constant_value(op.operands[0])
        rhs_const = _constant_value(op.operands[1])
        if absorber is not None:
            # x * 0 -> 0 (valid here: ionic model values are finite reals;
            # the generated code never multiplies by an infinite constant).
            for const, zero_operand in ((lhs_const, op.operands[0]),
                                        (rhs_const, op.operands[1])):
                if const is not None and const == absorber:
                    op.result.replace_all_uses_with(zero_operand)
                    op.detach()
                    return True
        if rule is None:
            return False
        identity, side = rule
        if rhs_const == identity and rhs_const is not None:
            op.result.replace_all_uses_with(op.operands[0])
            op.detach()
            return True
        if side == "either" and lhs_const == identity and lhs_const is not None:
            op.result.replace_all_uses_with(op.operands[1])
            op.detach()
            return True
        return False


def _normalize(value: Any, ty) -> Any:
    """Coerce a folded python value to the natural host type for ``ty``."""
    from ..types import element_type
    elem = element_type(ty)
    if elem.is_float:
        return float(value)
    if str(elem) == "i1":
        return bool(value)
    if elem.is_integer:
        return int(value)
    return value
