"""One registry of the identity pins in ``tests/data/``.

The stores serve a kernel by its compile request plus
``GENERATOR_VERSION``, ``LOWERING_VERSION`` and the two format versions,
which is sound only while the same request yields the same IR, lowered
source and final state.  Each corpus below pins one such identity; its
``record()`` lives in the test module that replays its tier-1 slice, and
this module writes and checks every corpus the one way:

    PYTHONPATH=src python -m tests.pins --check | --write [--only NAME]

``--check`` rebuilds each record in full and compares the whole of it
with the file: a value that moved, a key the file lacks and a recorded
key nothing yields any more (an orphan, which pins nothing) all fail,
reported by path.  A section recorded under a version constant follows
one more rule: if it moved while the recorded version is the code's,
the stores would serve stale entries, so ``--check`` says "bump X" and
``--write`` refuses until the constant moved.  ``--write`` writes
``json.dumps(record, indent=1, sort_keys=True)`` plus a newline, and so
drops orphans with no bump: no request yields their keys.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import sys
from typing import Callable, Dict, List, NamedTuple, Tuple

from repro.codegen import common
from repro.runtime import lowering

DATA = pathlib.Path(__file__).parent / "data"

#: the five models every tier-1 slice replays: one per size class, the
#: population model and a foreign (refused) one
TIER1_MODELS = ("FitzHughNagumo", "LuoRudy91", "Courtemanche", "OHara",
                "Campbell")


class Version(NamedTuple):
    """The constant a section of a record is pinned under."""

    key: str                          # record key of the version
    constant: str                     # the constant's name ...
    where: str                        # ... and file
    value: Callable[[], int]          # read at call time: tests patch it


GENERATOR = Version("generator_version", "GENERATOR_VERSION",
                    "src/repro/codegen/common.py",
                    lambda: common.GENERATOR_VERSION)
LOWERING = Version("lowering_version", "LOWERING_VERSION",
                   "src/repro/runtime/lowering.py",
                   lambda: lowering.LOWERING_VERSION)


class Pin(NamedTuple):
    """One corpus: ``tests/data/<name>.json`` holds ``record()``."""

    name: str
    record: Callable[[], object]
    #: section -> the version it is recorded under
    versions: Dict[str, Version] = {}
    #: top-level keys that say what the record was taken with: written,
    #: printed by ``--check``, not compared
    context: Tuple[str, ...] = ()

    @property
    def path(self) -> pathlib.Path:
        return DATA / f"{self.name}.json"


def recorder(module: str, function: str = "record") -> Callable[[], object]:
    """``tests.<module>.<function>``, imported when a record is built."""
    return lambda: getattr(importlib.import_module(f"tests.{module}"),
                           function)()


PINS = (
    Pin("ir_fingerprints", recorder("test_ir_fingerprints"),
        {"cells": GENERATOR, "sources": LOWERING, "provenances": LOWERING}),
    Pin("store_corpus", recorder("test_store_corpus")),
    Pin("kernel_state_corpus", recorder("test_kernel_state_corpus"),
        context=("numpy",)),
    Pin("fold_corpus", recorder("test_fold_identity")),
    Pin("easyml_streams", recorder("test_easyml_streams")),
    Pin("verifier_corpus", recorder("test_ir_verifier")),
    Pin("kernel_profiles", recorder("test_op_table", "default_profiles")),
)


def serialise(record) -> str:
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def recorded(pin: Pin):
    return json.loads(pin.path.read_text()) if pin.path.exists() else {}


def read(name: str):
    """The record of pin ``name`` as written."""
    [pin] = [p for p in PINS if p.name == name]
    return recorded(pin)


class Difference(NamedTuple):
    kind: str                         # "moved", "missing" or "orphaned"
    path: Tuple[str, ...]
    was: object
    now: object


def differences(was, now, path=()) -> List[Difference]:
    """Every leaf where ``was`` and ``now`` differ: ``missing`` is in
    ``now`` only, ``orphaned`` in ``was`` only."""
    if isinstance(was, list) and isinstance(now, list):
        was, now = dict(enumerate(was)), dict(enumerate(now))
    if not (isinstance(was, dict) and isinstance(now, dict)):
        return [] if was == now else [Difference("moved", path, was, now)]
    found = []
    for key in sorted(set(was) | set(now), key=str):
        where = path + (str(key),)
        if key not in was:
            found.append(Difference("missing", where, None, now[key]))
        elif key not in now:
            found.append(Difference("orphaned", where, was[key], None))
        else:
            found.extend(differences(was[key], now[key], where))
    return found


def leaves(value) -> int:
    if isinstance(value, dict):
        value = list(value.values())
    return sum(map(leaves, value)) if isinstance(value, list) else 1


def bumps(pin: Pin, was, found: List[Difference]) -> List[str]:
    """The version rule: what to bump for each section that moved under
    its recorded version."""
    said = []
    for section, version in pin.versions.items():
        moved = sum(d.kind == "moved" and d.path[:1] == (section,)
                    for d in found)
        if moved and was.get(version.key) == version.value():
            said.append(
                f"{moved} {section} moved under {version.constant} = "
                f"{version.value()}: bump {version.constant} in "
                f"{version.where} (stale store entries would be served "
                f"otherwise), then re-record with --write")
    return said


def check(pin: Pin) -> bool:
    """Print what moved in ``pin``; True when the record holds."""
    was, now = recorded(pin), pin.record()
    found = [d for d in differences(was, now)
             if not (d.path and d.path[0] in pin.context)]
    for d in found:
        print(f"{d.kind.upper()} {pin.name} {'/'.join(d.path)}"
              + (f": {d.was} -> {d.now}" if d.kind == "moved" else ""))
    counts = ", ".join(f"{sum(d.kind == kind for d in found)} {kind}"
                       for kind in ("moved", "missing", "orphaned"))
    context = "".join(f", {key} {was.get(key)} recorded / {now[key]} "
                      f"running" for key in pin.context)
    print(f"{pin.name}: {leaves(now)} values, {counts}{context}")
    for line in bumps(pin, was, found) or \
            (["re-record with --write"] if found else []):
        print(f"{pin.name}: {line}")
    return not found


def write(pin: Pin) -> bool:
    """Re-record ``pin`` unless the version rule refuses; True if written."""
    was, now = recorded(pin), pin.record()
    refused = bumps(pin, was, differences(was, now))
    for line in refused:
        print(f"refusing to write {pin.name}: {line}")
    if not refused:
        pin.path.write_text(serialise(now))
        print(f"wrote {pin.path}")
    return not refused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="rebuild every record and compare it")
    mode.add_argument("--write", action="store_true",
                      help="re-record (a deliberate change)")
    parser.add_argument("--only", choices=[p.name for p in PINS],
                        help="one pin instead of all")
    args = parser.parse_args(argv)
    chosen = [p for p in PINS if args.only in (None, p.name)]
    failed = [p.name for p in chosen
              if not (check(p) if args.check else write(p))]
    print(f"{len(chosen) - len(failed)} of {len(chosen)} pins "
          f"{'hold' if args.check else 'written'}"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
