#!/usr/bin/env python3
"""Byte-identity matrix of the generators' printed IR and the lowered source.

The stores key a compiled kernel by its compile request (model text
digest, target, width, layout, ... and ``GENERATOR_VERSION``), not by its
IR.  That is sound only while one request always generates one module, so
this tool records one sha256 per ``model/variant`` over the spec
coordinates plus the *pre-pipeline* printed module, for 47 models x
{baseline x lut linear/spline/off; limpet_mlir x w 2/4/8 x aosoa/aos/soa x
lut linear/spline/off; icc_simd w8; plugin w8} plus the
promoted-parameter variants (Courtemanche ``GKr``), and a refusal
(``UnsupportedModelError`` for the foreign models) as the exception's type
name — together with the ``GENERATOR_VERSION`` they were recorded under.

    python tools/ir_fingerprints.py --check   # full matrix against the record
    python tools/ir_fingerprints.py --write   # re-record (a deliberate IR change)

The rule both modes enforce: **a cell that moved needs a new
GENERATOR_VERSION** (``src/repro/codegen/common.py``), or every cache
entry stored under the old one is served for IR it was not built from.
``--check`` says so, ``--write`` refuses to re-record moved cells under
the recorded version.  A recorded key the matrix no longer yields (a
retired variant) pins nothing, so ``--check`` fails on it too and asks
for a ``--write``, which drops it; no version moves, since no request
generates that key any more.

The same key embeds ``LOWERING_VERSION``, so the lowered NumPy source is
pinned the same way: one sha256 of ``lower_function(...).source`` after
the default pipeline for both ``TIER1_VARIANTS`` of every model, every
variant of the ``TIER1_FULL`` models and ``fuse=False`` /
``profile=True`` of those five's default kernel, recorded with the
``LOWERING_VERSION`` (``src/repro/runtime/lowering.py``) they were lowered
under.  A digest that moves under the recorded version needs it bumped.
The third pin, versioned by the same constant, is the profiled kernel's
``provenance``: one sha256 of the canonical JSON of its records (without
``source``) for the ``TIER1_FULL`` models' ``profile=True`` default
kernel.

Tier-1 (``tests/test_ir_fingerprints.py``) checks :func:`entries` with
``subset=True``, the ``TIER1_FULL`` models' default kernels and the
non-default lowerings of :func:`source_entries`, every provenance
digest and that the record's versions are the code's; CI runs the full
``--check`` and a drill of each rule.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
from typing import Callable, Dict, Iterator, List, NamedTuple, Tuple

from repro.codegen import (UnsupportedModelError, generate_baseline,
                           generate_icc_simd, generate_limpet_mlir,
                           generate_plugin)
from repro.codegen.common import GENERATOR_VERSION
from repro.ir.passes import default_pipeline
from repro.ir.printer import print_module
from repro.models import all_model_files, load_model
from repro.population.runner import load_promoted_model
from repro.runtime import lowering

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


#: non-default ``lower_function`` options, pinned on the ``TIER1_FULL``
#: models' default kernel
LOWERINGS = {"fuse=False": dict(fuse=False),
             "profile=True": dict(profile=True)}


def _lowered_digest(thunk: Callable[[], object],
                    text: Callable[[object], str], **options) -> str:
    """sha256 of ``text(kernel)`` for the kernel lowered with ``options``
    after the default pipeline."""
    try:
        generated = thunk()
    except UnsupportedModelError as err:
        return f"refused:{type(err).__name__}"
    module = generated.module
    default_pipeline(verify_each=False).run(module, fixed_point=True)
    kernel = lowering.lower_function(module, generated.spec.function_name,
                                     **options)
    return hashlib.sha256(text(kernel).encode()).hexdigest()


def source_fingerprint(thunk: Callable[[], object], **options) -> str:
    """sha256 of the kernel's lowered source after the default pipeline."""
    return _lowered_digest(thunk, lambda kernel: kernel.source, **options)


def provenance_fingerprint(thunk: Callable[[], object]) -> str:
    """sha256 of the canonical JSON of the profiled kernel's provenance
    records, without their ``source`` key."""
    def records(kernel) -> str:
        return json.dumps([{k: v for k, v in entry.items() if k != "source"}
                           for entry in kernel.provenance],
                          sort_keys=True, separators=(",", ":"))
    return _lowered_digest(thunk, records, profile=True)


def _profiled_kernel(key: str) -> bool:
    """True for a ``TIER1_FULL`` model's default vector kernel: the one
    the non-default lowerings and the provenance pin cover."""
    model, variant = key.split("/", 1)
    return model in TIER1_FULL and variant == TIER1_VARIANTS[1]


def source_entries(subset: bool = False
                   ) -> Iterator[Tuple[str, Callable[[], str]]]:
    """``(key, thunk)`` per pinned lowering; the thunk returns the digest.

    The subset is the ``TIER1_FULL`` models' default kernels and the
    non-default lowerings of their default vector kernel."""
    for key, thunk in entries(subset=True):
        model, variant = key.split("/", 1)
        if subset and (model not in TIER1_FULL
                       or variant not in TIER1_VARIANTS):
            continue
        yield key, lambda t=thunk: source_fingerprint(t)
        if _profiled_kernel(key):
            for name, options in LOWERINGS.items():
                yield (f"{key}+{name}",
                       lambda t=thunk, o=options: source_fingerprint(t, **o))


def provenance_entries(subset: bool = False
                       ) -> Iterator[Tuple[str, Callable[[], str]]]:
    """``(key, thunk)`` per pinned provenance (tier-1 checks them all)."""
    for key, thunk in entries(subset=True):
        if _profiled_kernel(key):
            yield (f"{key}+profile=True",
                   lambda t=thunk: provenance_fingerprint(t))


class Pin(NamedTuple):
    """One pinned artefact and the version constant that moves with it."""

    section: str                      # record key of the digests
    version_key: str                  # ... and of the version they are for
    constant: str                     # the constant's name and file
    where: str
    noun: str
    moved_means: str
    #: read at call time: tests and the CI drills change all three
    version: Callable[[], int]
    entries: Callable[[bool], Iterator[Tuple[str, Callable[[], object]]]]
    digest: Callable[[Callable[[], object]], str]


IR = Pin("cells", "generator_version", "GENERATOR_VERSION",
         "src/repro/codegen/common.py", "cell",
         "the same compile request now generates other IR",
         lambda: GENERATOR_VERSION, lambda subset: entries(subset),
         lambda thunk: fingerprint(thunk))
SOURCE = Pin("sources", "lowering_version", "LOWERING_VERSION",
             "src/repro/runtime/lowering.py", "lowered source",
             "the same module now lowers to other source",
             lambda: lowering.LOWERING_VERSION,
             lambda subset: source_entries(subset), lambda thunk: thunk())
PROVENANCE = Pin("provenances", "lowering_version", "LOWERING_VERSION",
                 "src/repro/runtime/lowering.py", "provenance",
                 "the same module now profiles to other records",
                 lambda: lowering.LOWERING_VERSION,
                 lambda subset: provenance_entries(subset),
                 lambda thunk: thunk())
PINS = (IR, SOURCE, PROVENANCE)


def read_record(pin: Pin = IR) -> Tuple[int, Dict[str, str]]:
    """``(version, digests)`` of one pinned artefact as recorded."""
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    return record.get(pin.version_key), record.get(pin.section, {})


def mismatches(subset: bool = False,
               pin: Pin = IR) -> Dict[str, Tuple[str, str]]:
    """``key -> (recorded, now)`` for every digest that moved."""
    _, recorded = read_record(pin)
    moved = {}
    for key, thunk in pin.entries(subset):
        now = pin.digest(thunk)
        if recorded.get(key) != now:
            moved[key] = (recorded.get(key, "<unrecorded>"), now)
    return moved


def orphans(pin: Pin = IR) -> List[str]:
    """Recorded keys the full matrix no longer yields: pins nothing checks."""
    _, recorded = read_record(pin)
    return sorted(set(recorded) - {key for key, _ in pin.entries(False)})


def verdict(moved: int, recorded_version: int, pin: Pin = IR) -> str:
    """What the rule says about ``moved`` digests; empty when all is well."""
    version = pin.version()
    if moved and recorded_version == version:
        return (f"{moved} {pin.noun}(s) moved under {pin.constant} = "
                f"{version}: {pin.moved_means}, so bump {pin.constant} in "
                f"{pin.where} (stale kernel-cache entries "
                f"would be served otherwise), then re-record with --write")
    if recorded_version != version:
        return (f"the record is for {pin.constant} {recorded_version}, "
                f"the code says {version}: re-record with --write")
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true",
                      help=f"record every pin into {RECORD.name}")
    mode.add_argument("--check", action="store_true",
                      help="compare every pin against the record")
    args = parser.parse_args(argv)
    if args.write:
        record = {}
        for pin in PINS:
            recorded_version, recorded = read_record(pin)
            digests = {key: pin.digest(thunk)
                       for key, thunk in pin.entries(False)}
            moved = sum(recorded[key] != now for key, now in digests.items()
                        if key in recorded)
            if moved and recorded_version == pin.version():
                print("refusing to write: "
                      + verdict(moved, recorded_version, pin))
                return 1
            record[pin.version_key] = pin.version()
            record[pin.section] = digests
        RECORD.parent.mkdir(parents=True, exist_ok=True)
        RECORD.write_text(json.dumps(record, indent=0, sort_keys=True) + "\n")
        for pin in PINS:
            digests = record[pin.section]
            refused = sum(v.startswith("refused:") for v in digests.values())
            print(f"wrote {len(digests) - refused} {pin.noun} digests and "
                  f"{refused} refusals to {RECORD} under {pin.constant} = "
                  f"{pin.version()}")
        return 0
    status = 0
    for pin in PINS:
        moved = mismatches(pin=pin)
        for key, (was, now) in sorted(moved.items()):
            print(f"MOVED {pin.noun} {key}: {was[:16]} -> {now[:16]}")
        print(f"{len(moved)} of {sum(1 for _ in pin.entries(False))} "
              f"{pin.noun}s moved")
        problem = verdict(len(moved), read_record(pin)[0], pin)
        if problem:
            print(problem)
            status = 1
        orphaned = orphans(pin)
        for key in orphaned:
            print(f"ORPHANED {pin.noun} {key}")
        if orphaned:
            print(f"{len(orphaned)} recorded {pin.noun}(s) no longer in the "
                  f"matrix pin nothing: re-record with --write")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
