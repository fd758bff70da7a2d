"""The one perf record: ``{schema, machine, sections}``.

Every measured report of this repository — ``perf``, ``sweep``,
``coldstart`` — is one *section* of the same shape::

    {"config":   the keyword arguments of the section's measurer,
     "variants": [{"name": ..., timed numbers ...}, ...],
     "ratios":   {name: dimensionless higher-is-better number},
     "evidence": everything else the run proved or observed}

and a record is any set of named sections stamped with the machine that
measured them.  ``BENCH.json`` at the repository root is the committed
record holding all three; a single command's ``--json`` output is a
record holding one.  The gate (:mod:`repro.bench.regress`) reads nothing
but this shape.

Machine identity decides whether two *absolute* numbers are comparable:
CPU model, ISA flags, core count and the Python/NumPy versions.  The
kernel build string (``platform``) is recorded for the reader and never
compared — it changes with every host image.
"""

from __future__ import annotations

import json
import os
import platform
from typing import Dict

import numpy as np

__all__ = ["SCHEMA", "IDENTITY_KEYS", "machine_identity", "same_machine",
           "make_section", "make_record", "load_record", "write_record"]

SCHEMA = "limpet-bench-record/1"

#: the machine fields two records must share for absolute gating
IDENTITY_KEYS = ("cpu_model", "isa_flags", "cores", "python", "numpy")

#: ISA extensions that change which NumPy inner loops run
_ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq",
              "avx512bw", "avx512vl", "neon", "asimd", "sve")

_SECTION_KEYS = ("config", "variants", "ratios", "evidence")


def machine_identity() -> Dict:
    """This machine: the :data:`IDENTITY_KEYS` plus the informational
    ``platform`` string."""
    model, flags = platform.processor() or platform.machine(), []
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name":
                    model = value.strip()
                elif key in ("flags", "Features"):
                    present = set(value.split())
                    flags = [f for f in _ISA_FLAGS if f in present]
                    break
    except OSError:
        pass
    return {"cpu_model": model, "isa_flags": flags,
            "cores": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform()}


def same_machine(a: Dict, b: Dict) -> bool:
    """Do two ``machine`` blocks name the same machine?"""
    return all(key in a and a[key] == b.get(key) for key in IDENTITY_KEYS)


def make_section(config: Dict, variants, ratios: Dict,
                 evidence: Dict) -> Dict:
    """One section; ``config`` must be the measurer's own kwargs."""
    return {"config": config, "variants": list(variants),
            "ratios": ratios, "evidence": evidence}


def make_record(sections: Dict[str, Dict]) -> Dict:
    """Stamp ``sections`` with the schema and this machine."""
    return {"schema": SCHEMA, "machine": machine_identity(),
            "sections": sections}


def load_record(path) -> Dict:
    """Read and validate a record; ``ValueError`` names what is wrong."""
    with open(path) as handle:
        try:
            record = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(record, dict) or record.get("schema") != SCHEMA:
        found = record.get("schema") if isinstance(record, dict) else None
        raise ValueError(f"{path}: schema {found!r} is not {SCHEMA!r}")
    sections = record.get("sections")
    if not isinstance(record.get("machine"), dict) or \
            not isinstance(sections, dict) or not sections:
        raise ValueError(f"{path}: a record needs a machine block and "
                         f"at least one section")
    for name, section in sections.items():
        missing = [key for key in _SECTION_KEYS
                   if not isinstance(section, dict) or key not in section]
        if missing:
            raise ValueError(f"{path}: section {name!r} lacks "
                             f"{', '.join(missing)}")
    return record


def write_record(record: Dict, path) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
