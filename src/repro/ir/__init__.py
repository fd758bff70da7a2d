"""An MLIR-style SSA IR: types, ops, dialects, passes, printer/parser.

This package stands in for the MLIR C++ infrastructure the paper builds
on (see DESIGN.md §2 for the substitution rationale).  Importing it
registers all dialects.
"""

from . import dialects  # noqa: F401  (registers all op definitions)
from .core import (Block, IRError, Module, OpInfo, Operation, Value,
                   op_info, register_op)
from .builder import IRBuilder, build_module
from .printer import print_module, print_op
from .parser import parse_module, ParseError
from .verifier import VerificationError, verify_module
from .passes import PassManager, default_pipeline
from . import types

__all__ = [
    "Block", "IRError", "Module", "OpInfo", "Operation", "Value",
    "op_info", "register_op", "IRBuilder", "build_module", "print_module",
    "print_op", "parse_module", "ParseError", "VerificationError",
    "verify_module", "PassManager", "default_pipeline", "types", "dialects",
]
