"""The generators' printed IR and the lowered source are pinned.

The stores key a kernel by its compile request, with ``GENERATOR_VERSION``
and ``LOWERING_VERSION``, not by its IR or source; that is sound only
while one request always yields one module and one lowering.
``tests/data/ir_fingerprints.json`` holds three sections:

* ``cells``: sha256 of the spec coordinates and the *pre-pipeline*
  printed module per ``model/variant`` of 47 models x {baseline x lut
  linear/spline/off; limpet_mlir x w 2/4/8 x aosoa/aos x lut
  linear/spline/off; icc_simd w8; plugin w8} plus the promoted
  Courtemanche ``GKr`` kernels, a refusal as the exception's type name;
  recorded under ``GENERATOR_VERSION``;
* ``sources``: sha256 of ``lower_function(...).source`` after the
  default pipeline for both ``TIER1_VARIANTS`` of every model, every
  variant of the ``TIER1_MODELS`` and ``fuse=False`` / ``profile=True``
  of those five's default kernel; recorded under ``LOWERING_VERSION``;
* ``provenances``: sha256 of the canonical JSON of the profiled default
  kernel's ``provenance`` (without ``source``) for the ``TIER1_MODELS``;
  recorded under ``LOWERING_VERSION``.

Tier-1 checks the ``TIER1_MODELS``' every variant and lowering, the two
default kernels of the other 42, and that the record's versions are the
code's.  The full matrix is checked (CI), and re-recorded after the bump
the version rule asks for, with
``PYTHONPATH=src python -m tests.pins --check | --write --only
ir_fingerprints`` (see ``tests/pins.py``).
"""

import hashlib
import json
from typing import Callable, Dict, Iterator, Tuple

from repro.codegen import (UnsupportedModelError, common, generate_baseline,
                           generate_icc_simd, generate_limpet_mlir,
                           generate_plugin)
from repro.ir.passes import default_pipeline
from repro.ir.printer import print_module
from repro.models import all_model_files, load_model
from repro.population.runner import load_promoted_model
from repro.runtime import lowering

from . import pins

#: what tier-1 checks for every model outside ``TIER1_MODELS``
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
            for layout in ("aosoa", "aos"):
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
            if subset and name not in pins.TIER1_MODELS \
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


#: non-default ``lower_function`` options, pinned on the ``TIER1_MODELS``'
#: default kernel
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
    """True for a ``TIER1_MODELS`` default vector kernel: the one the
    non-default lowerings and the provenance pin cover."""
    model, variant = key.split("/", 1)
    return model in pins.TIER1_MODELS and variant == TIER1_VARIANTS[1]


def source_entries(subset: bool = False
                   ) -> Iterator[Tuple[str, Callable[[], str]]]:
    """``(key, thunk)`` per pinned lowering; the thunk returns the digest.

    The subset is the ``TIER1_MODELS``' default kernels and the
    non-default lowerings of their default vector kernel."""
    for key, thunk in entries(subset=True):
        model, variant = key.split("/", 1)
        if subset and (model not in pins.TIER1_MODELS
                       or variant not in TIER1_VARIANTS):
            continue
        yield key, lambda t=thunk: source_fingerprint(t)
        if _profiled_kernel(key):
            for name, options in LOWERINGS.items():
                yield (f"{key}+{name}",
                       lambda t=thunk, o=options: source_fingerprint(t, **o))


def provenance_entries() -> Iterator[Tuple[str, Callable[[], str]]]:
    """``(key, thunk)`` per pinned provenance (tier-1 checks them all)."""
    for key, thunk in entries(subset=True):
        if _profiled_kernel(key):
            yield (f"{key}+profile=True",
                   lambda t=thunk: provenance_fingerprint(t))


def record() -> dict:
    return {"generator_version": common.GENERATOR_VERSION,
            "cells": {key: fingerprint(thunk) for key, thunk in entries()},
            "lowering_version": lowering.LOWERING_VERSION,
            "sources": {key: thunk() for key, thunk in source_entries()},
            "provenances": {key: thunk()
                            for key, thunk in provenance_entries()}}


def moved(section: str, pinned, digest=lambda thunk: thunk()):
    """``key -> (recorded, now)`` for every ``pinned`` digest that moved."""
    recorded = pins.read("ir_fingerprints")[section]
    now = {key: digest(thunk) for key, thunk in pinned}
    return {key: (recorded.get(key), value) for key, value in now.items()
            if recorded.get(key) != value}


def test_subset_matches_the_record():
    assert moved("cells", entries(subset=True), fingerprint) == {}


def test_lowered_source_subset_matches_the_record():
    assert moved("sources", source_entries(subset=True)) == {}


def test_provenance_matches_the_record():
    assert moved("provenances", provenance_entries()) == {}


def test_record_is_for_this_generator_version():
    """Cells that move need a bump, and a bump needs a re-record."""
    assert pins.read("ir_fingerprints")["generator_version"] \
        == common.GENERATOR_VERSION


def test_record_is_for_this_lowering_version():
    assert pins.read("ir_fingerprints")["lowering_version"] \
        == lowering.LOWERING_VERSION


def test_record_covers_the_full_matrix():
    record = pins.read("ir_fingerprints")
    recorded = record["cells"]
    assert set(recorded) == {key for key, _ in entries()}
    refusals = {k for k, v in recorded.items() if v.startswith("refused:")}
    assert len(recorded) == 47 * 23 + 2 and len(refusals) == 4 * 20
    assert all(v == "refused:UnsupportedModelError"
               for k, v in recorded.items() if k in refusals)
    assert set(record["sources"]) == {key for key, _ in source_entries()}
    # both default kernels of all 47 (+ the promoted model), the other
    # 21 variants and two lowering options of the five
    assert len(record["sources"]) == 2 * 48 + 5 * 21 + 5 * 2
    assert set(record["provenances"]) \
        == {key for key, _ in provenance_entries()}
    assert len(record["provenances"]) == 5


def test_fingerprint_sees_spec_and_module_changes():
    recorded = pins.read("ir_fingerprints")["cells"]
    model = load_model("FitzHughNagumo")
    key = "FitzHughNagumo/baseline/lut=linear"
    assert fingerprint(lambda: generate_baseline(model)) == recorded[key]
    renamed = fingerprint(
        lambda: generate_baseline(model, function_name="other"))
    unlutted = fingerprint(lambda: generate_baseline(model, use_lut=False))
    assert len({recorded[key], renamed, unlutted}) == 3
