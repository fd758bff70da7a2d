#!/usr/bin/env python3
"""Byte-identity matrix of the kernel generators' printed IR.

The stores key a compiled kernel by its compile request (model text
digest, target, width, layout, ... and ``GENERATOR_VERSION``), not by its
IR.  That is sound only while one request always generates one module, so
this tool records one sha256 per ``model/variant`` over the spec
coordinates plus the *pre-pipeline* printed module, for 47 models x
{baseline x lut linear/spline/off; limpet_mlir x w 2/4/8 x aosoa/aos/soa x
lut linear/spline/off; icc_simd w8; gpu; plugin w8} plus the
promoted-parameter variants (Courtemanche ``GKr``), and a refusal
(``UnsupportedModelError`` for the foreign models) as the exception's type
name — together with the ``GENERATOR_VERSION`` they were recorded under.

    python tools/ir_fingerprints.py --check   # full matrix against the record
    python tools/ir_fingerprints.py --write   # re-record (a deliberate IR change)

The rule both modes enforce: **a cell that moved needs a new
GENERATOR_VERSION** (``src/repro/codegen/common.py``), or every cache
entry stored under the old one is served for IR it was not built from.
``--check`` says so, ``--write`` refuses to re-record moved cells under
the recorded version.

Tier-1 (``tests/test_ir_fingerprints.py``) checks :func:`entries` with
``subset=True`` and that the record's version is the code's; CI runs the
full ``--check`` and a drill of the rule.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict, Iterator, Tuple

from repro.codegen import (UnsupportedModelError, generate_baseline,
                           generate_gpu, generate_icc_simd,
                           generate_limpet_mlir, generate_plugin)
from repro.codegen.common import GENERATOR_VERSION
from repro.ir.printer import print_module
from repro.models import all_model_files, load_model
from repro.population.runner import load_promoted_model

RECORD = (pathlib.Path(__file__).resolve().parents[1]
          / "tests" / "data" / "ir_fingerprints.json")

#: models whose every variant is checked in tier-1: one per size class,
#: the population model, and a foreign (refused) one
TIER1_FULL = ("FitzHughNagumo", "LuoRudy91", "Courtemanche", "OHara",
              "Campbell")
#: what tier-1 checks for every other model
TIER1_VARIANTS = ("baseline/lut=linear", "limpet_mlir/w8/aosoa/lut=linear")

_LUT = {"linear": dict(use_lut=True, lut_interpolation="linear"),
        "spline": dict(use_lut=True, lut_interpolation="spline"),
        "off": dict(use_lut=False)}

Build = Callable[[object], object]


def variants() -> Dict[str, Build]:
    """Variant name -> ``build(model)`` for one model's row of the matrix."""
    table: Dict[str, Build] = {}
    for lut, kwargs in _LUT.items():
        table[f"baseline/lut={lut}"] = \
            lambda m, k=kwargs: generate_baseline(m, **k)
        for width in (2, 4, 8):
            for layout in ("aosoa", "aos", "soa"):
                table[f"limpet_mlir/w{width}/{layout}/lut={lut}"] = \
                    lambda m, w=width, l=layout, k=kwargs: \
                    generate_limpet_mlir(m, width=w, layout=l, **k)
    table["icc_simd/w8"] = lambda m: generate_icc_simd(m, 8)
    table["gpu"] = generate_gpu
    table["plugin/w8"] = lambda m: generate_plugin(m, 8)
    return table


def entries(subset: bool = False) -> Iterator[Tuple[str, Callable[[], object]]]:
    """``(key, thunk)`` per matrix cell; the thunk generates the kernel."""
    table = variants()
    for name in all_model_files():
        for variant, build in table.items():
            if subset and name not in TIER1_FULL \
                    and variant not in TIER1_VARIANTS:
                continue
            yield (f"{name}/{variant}",
                   lambda n=name, b=build: b(load_model(n)))
    for variant in TIER1_VARIANTS:
        yield (f"Courtemanche+GKr/{variant}",
               lambda b=table[variant]:
               b(load_promoted_model("Courtemanche", ("GKr",))))


def fingerprint(thunk: Callable[[], object]) -> str:
    """sha256 of the kernel's spec coordinates and printed module."""
    try:
        generated = thunk()
    except UnsupportedModelError as err:
        return f"refused:{type(err).__name__}"
    spec = generated.spec
    text = "\n".join([
        f"mode={spec.mode.value}", f"width={spec.width}",
        f"layout={generated.layout}", f"use_lut={spec.use_lut}",
        f"lut_interpolation={spec.lut_interpolation}",
        f"function={spec.function_name}",
        "module:", print_module(generated.module)])
    return hashlib.sha256(text.encode()).hexdigest()


def read_record() -> Tuple[int, Dict[str, str]]:
    """``(generator_version, cells)`` as recorded."""
    record = json.loads(RECORD.read_text())
    return record["generator_version"], record["cells"]


def mismatches(subset: bool = False) -> Dict[str, Tuple[str, str]]:
    """``key -> (recorded, now)`` for every cell that moved."""
    _, recorded = read_record()
    moved = {}
    for key, thunk in entries(subset):
        now = fingerprint(thunk)
        if recorded.get(key) != now:
            moved[key] = (recorded.get(key, "<unrecorded>"), now)
    return moved


def verdict(moved: int, recorded_version: int) -> str:
    """What the rule says about ``moved`` cells; empty when all is well."""
    if moved and recorded_version == GENERATOR_VERSION:
        return (f"{moved} cell(s) moved under GENERATOR_VERSION = "
                f"{GENERATOR_VERSION}: the same compile request now "
                f"generates other IR, so bump GENERATOR_VERSION in "
                f"src/repro/codegen/common.py (stale kernel-cache entries "
                f"would be served otherwise), then re-record with --write")
    if recorded_version != GENERATOR_VERSION:
        return (f"the record is for GENERATOR_VERSION {recorded_version}, "
                f"the code says {GENERATOR_VERSION}: re-record with --write")
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"record the full matrix into {RECORD.name}")
    mode.add_argument("--check", action="store_true",
                      help="compare the full matrix against the record")
    args = parser.parse_args(argv)
    recorded_version, recorded = read_record() if RECORD.exists() \
        else (None, {})
    if args.write:
        cells = {key: fingerprint(thunk) for key, thunk in entries()}
        moved = sum(recorded[key] != now for key, now in cells.items()
                    if key in recorded)
        if moved and recorded_version == GENERATOR_VERSION:
            print("refusing to write: " + verdict(moved, recorded_version))
            return 1
        RECORD.parent.mkdir(parents=True, exist_ok=True)
        RECORD.write_text(json.dumps(
            {"generator_version": GENERATOR_VERSION, "cells": cells},
            indent=0, sort_keys=True) + "\n")
        refused = sum(v.startswith("refused:") for v in cells.values())
        print(f"wrote {len(cells) - refused} module digests and "
              f"{refused} refusals to {RECORD} under GENERATOR_VERSION = "
              f"{GENERATOR_VERSION}")
        return 0
    moved = mismatches()
    for key, (was, now) in sorted(moved.items()):
        print(f"MOVED {key}: {was[:16]} -> {now[:16]}")
    print(f"{len(moved)} of {sum(1 for _ in entries())} cells moved")
    problem = verdict(len(moved), recorded_version)
    if problem:
        print(problem)
    return 1 if problem else 0


if __name__ == "__main__":
    sys.exit(main())
