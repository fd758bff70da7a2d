"""Parser for the generic textual form produced by :mod:`repro.ir.printer`.

Round-tripping IR through text is used by the test suite (property:
``parse(print(m))`` is structurally identical to ``m``) and lets pass
pipelines be exercised on hand-written fixtures, the way MLIR's own
``mlir-opt`` tests work.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple

from .core import Block, IRError, Module, Operation, Region
from .types import FunctionType, parse_type


class ParseError(IRError):
    """Raised on malformed IR text, with a line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


_FUNC_DEF = re.compile(r"func\.func @([\w$.]+)\((.*)\) -> \((.*)\) \{$")
_FUNC_DECL = re.compile(r"func\.func private @([\w$.]+) (.+)$")
_BLOCK_LABEL = re.compile(r"\^(\w+)\((.*)\):$")
_OP_LINE = re.compile(
    r"(?:(?P<results>%[^=]*)= )?"
    r"(?P<name>[\w.]+)\((?P<operands>[^)]*)\)"
    r"(?: \{(?P<attrs>.*)\})?"
    r" : \((?P<in_tys>.*?)\) -> \((?P<out_tys>.*?)\)"
    r"(?P<open> \{)?$")


def _split_commas(text: str) -> List[str]:
    """Split on top-level commas (ignoring commas inside <>, (), [])."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "<([":
            depth += 1
        elif ch in ">)]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def _parse_function_type(text: str) -> FunctionType:
    text = text.strip()
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    match = re.match(r"\((.*)\) -> (.*)$", text)
    if not match:
        raise ValueError(f"bad function type: {text!r}")
    ins = tuple(parse_type(t) for t in _split_commas(match.group(1)))
    out_text = match.group(2).strip()
    if out_text.startswith("("):
        outs = tuple(parse_type(t) for t in _split_commas(out_text[1:-1]))
    elif out_text:
        outs = (parse_type(out_text),)
    else:
        outs = ()
    return FunctionType(ins, outs)


class Parser:
    def __init__(self, text: str):
        self.lines = [ln.rstrip() for ln in text.splitlines()]
        self.pos = 0
        self.values: Dict[str, Any] = {}
        self.block_labels: Dict[str, Block] = {}
        self.block_fixups: List[Tuple[Operation, str, str]] = []

    # -- line cursor -----------------------------------------------------------

    def _peek(self) -> Optional[str]:
        while self.pos < len(self.lines):
            line = self.lines[self.pos].strip()
            if line and not line.startswith("//"):
                return line
            self.pos += 1
        return None

    def _next(self) -> str:
        line = self._peek()
        if line is None:
            raise ParseError("unexpected end of input", self.pos + 1)
        self.pos += 1
        return line

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    # -- entry -----------------------------------------------------------------

    def parse_module(self) -> Module:
        line = self._next()
        match = re.match(r"module @([\w$.]+) \{$", line)
        if not match:
            raise self._error(f"expected module header, got {line!r}")
        module = Module(match.group(1))
        while True:
            line = self._peek()
            if line is None:
                raise self._error("unterminated module")
            if line == "}":
                self.pos += 1
                break
            module.append(self.parse_top_level())
        self._apply_block_fixups()
        return module

    def parse_top_level(self) -> Operation:
        line = self._peek()
        assert line is not None
        decl = _FUNC_DECL.match(line)
        if decl:
            self.pos += 1
            ftype = _parse_function_type(decl.group(2))
            return Operation("func.func", [], [], {
                "sym_name": decl.group(1), "function_type": ftype,
                "declaration": True}, [Region()])
        match = _FUNC_DEF.match(line)
        if match:
            return self.parse_func(match)
        return self.parse_op()

    # -- functions ---------------------------------------------------------------

    def parse_func(self, match: re.Match) -> Operation:
        self.pos += 1
        sym_name, args_text, rets_text = match.groups()
        entry = Block()
        arg_types = []
        for arg in _split_commas(args_text):
            name, _, ty_text = arg.partition(":")
            ty = parse_type(ty_text)
            arg_types.append(ty)
            value = entry.add_argument(ty, name.strip().lstrip("%"))
            self.values[name.strip().lstrip("%")] = value
        results = tuple(parse_type(t) for t in _split_commas(rets_text))
        region = Region([entry])
        self._parse_block_body(region, entry)
        ftype = FunctionType(tuple(arg_types), results)
        return Operation("func.func", [], [],
                         {"sym_name": sym_name, "function_type": ftype},
                         [region])

    def _parse_block_body(self, region: Region, block: Block) -> str:
        """Parse ops into ``block`` until '}' or '} {'; handles new labels."""
        while True:
            line = self._peek()
            if line is None:
                raise self._error("unterminated region")
            if line in ("}", "} {"):
                self.pos += 1
                return line
            label = _BLOCK_LABEL.match(line)
            if label:
                self.pos += 1
                block = Block()
                for arg in _split_commas(label.group(2)):
                    name, _, ty_text = arg.partition(":")
                    value = block.add_argument(parse_type(ty_text),
                                               name.strip().lstrip("%"))
                    self.values[name.strip().lstrip("%")] = value
                self.block_labels[label.group(1)] = block
                region.add_block(block)
                continue
            block.append(self.parse_op())

    # -- generic ops ---------------------------------------------------------------

    def parse_op(self) -> Operation:
        line = self._next()
        match = _OP_LINE.match(line)
        if not match:
            raise self._error(f"cannot parse op: {line!r}")
        name = match.group("name")
        operand_names = [t.strip().lstrip("%")
                         for t in _split_commas(match.group("operands") or "")]
        operands = []
        for op_name in operand_names:
            if op_name not in self.values:
                raise self._error(f"use of undefined value %{op_name}")
            operands.append(self.values[op_name])
        out_tys = [parse_type(t)
                   for t in _split_commas(match.group("out_tys") or "")]
        attrs, fixups = self._parse_attrs(match.group("attrs"))
        result_hints = []
        if match.group("results"):
            result_hints = [t.strip().lstrip("%")
                            for t in _split_commas(match.group("results"))]
        # all-digit names are the printer's own numbering, not hints
        op = Operation(name, operands, out_tys, attrs, result_hints=[
            None if h.isdigit() else h for h in result_hints])
        for key, label in fixups:
            self.block_fixups.append((op, key, label))
        for hint, result in zip(result_hints, op.results):
            self.values[hint] = result
        if match.group("open"):
            region = Region()
            op.take_region(region)
            # The printer always emits a labelled entry block.
            while True:
                first = self._peek()
                if first is None:
                    raise self._error("unterminated region")
                block = Block()
                region.add_block(block)
                closer = self._parse_region_blocks(region, block)
                if closer == "}":
                    break
                region = Region()
                op.take_region(region)
        return op

    def _parse_region_blocks(self, region: Region, placeholder: Block) -> str:
        """Parse blocks of one region; the placeholder entry gets its label."""
        line = self._peek()
        label = _BLOCK_LABEL.match(line) if line else None
        if label:
            self.pos += 1
            for arg in _split_commas(label.group(2)):
                name, _, ty_text = arg.partition(":")
                value = placeholder.add_argument(parse_type(ty_text),
                                                 name.strip().lstrip("%"))
                self.values[name.strip().lstrip("%")] = value
            self.block_labels[label.group(1)] = placeholder
        return self._parse_block_body(region, placeholder)

    def _parse_attrs(self, text: Optional[str]):
        attrs: Dict[str, Any] = {}
        fixups: List[Tuple[str, str]] = []
        if not text:
            return attrs, fixups
        for item in _split_commas(text):
            key, _, value_text = item.partition("=")
            key = key.strip()
            value_text = value_text.strip()
            if value_text.startswith("^"):
                fixups.append((key, value_text[1:]))
                continue
            attrs[key] = self._parse_attr_value(value_text)
        return attrs, fixups

    def _parse_attr_value(self, text: str) -> Any:
        if text == "true":
            return True
        if text == "false":
            return False
        if text.startswith('"') and text.endswith('"'):
            return text[1:-1]
        if text.startswith("<"):
            return _parse_function_type(text)
        if text.startswith("["):
            return [self._parse_attr_value(t)
                    for t in _split_commas(text[1:-1])]
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return float(text)
        except ValueError:
            pass
        raise self._error(f"cannot parse attribute value {text!r}")

    def _apply_block_fixups(self) -> None:
        for op, key, label in self.block_fixups:
            block = self.block_labels.get(label)
            if block is None:
                raise IRError(f"undefined block label ^{label}")
            op.attributes[key] = block


def parse_module(text: str) -> Module:
    """Parse a module from generic textual form."""
    return Parser(text).parse_module()
