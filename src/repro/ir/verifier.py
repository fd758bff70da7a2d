"""Structural and SSA verification.

Checks the invariants MLIR's verifier would: registered ops only,
per-op invariants via :class:`OpInfo.verify`, terminators at block
ends, and define-before-use visibility (values are visible in the block
that defines them after their definition, and in any nested body).

Visibility is one scope per module: a dict of the values visible at
the current op, in the order they became visible.  A block adds its
arguments and its ops' results, and takes them out again (newest first)
when it is left, so a nested block sees its ancestors' values and none of a
sibling body's, without a copy of the set per block.
"""

from __future__ import annotations

from typing import Dict, List

from .core import Block, IRError, Module, Operation, Value


class VerificationError(IRError):
    """Raised when a module violates an IR invariant."""


def verify_module(module: Module, allow_unregistered: bool = False) -> None:
    """Verify ``module``; raises :class:`VerificationError` on failure."""
    _verify_ops(module.ops, {}, allow_unregistered, False)


def _verify_block(block: Block, visible: Dict[Value, None],
                  allow_unregistered: bool) -> None:
    outer = len(visible)
    for arg in block.args:
        visible[arg] = None
    _verify_ops(block.ops, visible, allow_unregistered, True)
    while len(visible) > outer:
        visible.popitem()


def _verify_ops(ops: List[Operation], visible: Dict[Value, None],
                allow_unregistered: bool, in_block: bool) -> None:
    """Verify ``ops`` in order, one loop per block rather than one call
    per op (every compile verifies after each pass); ``in_block`` adds
    the terminator-placement check a block's op list needs."""
    last = len(ops) - 1
    for i, op in enumerate(ops):
        info = op.info
        if info is None:
            if not allow_unregistered:
                raise VerificationError(f"unregistered operation: {op.name}")
        elif in_block and info.terminator and i != last:
            raise VerificationError(
                f"{op.name}: terminator is not the last op in its block")
        for operand in op.operands:
            if operand not in visible:
                raise VerificationError(
                    f"{op.name}: operand #{op.operands.index(operand)} "
                    f"(%{operand.name_hint or '?'}: {operand.type}) is not "
                    f"visible at its use (define-before-use violation)")
        if info is not None and info.verify is not None:
            try:
                info.verify(op)
            except IRError as err:
                if isinstance(err, VerificationError):
                    raise
                raise VerificationError(str(err)) from err
        if op.body is not None:
            _verify_block(op.body, visible, allow_unregistered)
        for result in op.results:
            visible[result] = None


def verify_op_isolated(op: Operation) -> None:
    """Verify a single op's own invariants (not SSA visibility)."""
    if op.info is not None and op.info.verify is not None:
        op.info.verify(op)
