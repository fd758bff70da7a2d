"""The 43-model suite: names, files, size classes, provenance.

The paper splits its 43 openCARP models into three sets by baseline
execution time (§4.1): **small** — 8 models running under a minute on
the testbed, **medium** — 22 models at 1–5 minutes, **large** — 13
models over 5 minutes ("usually the most precise and close to the
physiology ... the most relevant ones for many practical applications").
"""

from __future__ import annotations

import hashlib
import pathlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

from ..frontend import IonicModel, load_model_file

MODEL_DIR = pathlib.Path(__file__).resolve().parent / "easyml"

SMALL_MODELS = [
    "Plonsey",
    "FitzHughNagumo",
    "AlievPanfilov",
    "MitchellSchaeffer",
    "IKChCheng",
    "ISAC_Hu",
    "StressLumens",
    "Pathmanathan",
]

MEDIUM_MODELS = [
    "HodgkinHuxley",
    "DrouhardRoberge",
    "BeelerReuter",
    "Noble62",
    "LuoRudy91",
    "Stress_Niederer",
    "LuoRudy94",
    "McAllisterNobleTsien",
    "DiFrancescoNoble",
    "EarmNoble",
    "DemirClarkGiles",
    "Nygren",
    "LindbladAtrial",
    "Maleckar",
    "Courtemanche",
    "RamirezNattel",
    "FoxMcHargGilmour",
    "PanditGiles",
    "KurataSANode",
    "ShannonBers",
    "MahajanShiferaw",
    "StewartPurkinje",
]

LARGE_MODELS = [
    "TenTusscherNNP",
    "TenTusscherPanfilov",
    "OHara",
    "GrandiPanditVoigt",
    "GrandiBers",
    "WangSobie",
    "IyerMazhariWinslow",
    "BondarenkoSzigeti",
    "HundRudy",
    "TomekORd",
    "TrovatoPurkinje",
    "HeijmanRudy",
    "KoivumakiAtrial",
]

ALL_MODELS = SMALL_MODELS + MEDIUM_MODELS + LARGE_MODELS

#: the 4 models that call foreign (external C) functions and therefore
#: cannot be vectorized by limpetMLIR — "43 out of 47 ionic models for
#: cardiac cell simulation are supported" (§3.3.2).  They compile and
#: run on the baseline backend.
UNSUPPORTED_MODELS = ["ARPF", "Campbell", "Tong", "UCLA_RAB"]

SIZE_CLASS: Dict[str, str] = {}
for _name in UNSUPPORTED_MODELS:
    SIZE_CLASS[_name] = "small"
for _name in SMALL_MODELS:
    SIZE_CLASS[_name] = "small"
for _name in MEDIUM_MODELS:
    SIZE_CLASS[_name] = "medium"
for _name in LARGE_MODELS:
    SIZE_CLASS[_name] = "large"

#: hand-written from the literature vs. structurally synthesized
HAND_WRITTEN = {
    "Plonsey", "FitzHughNagumo", "AlievPanfilov", "MitchellSchaeffer",
    "IKChCheng", "ISAC_Hu", "StressLumens", "Pathmanathan",
    "HodgkinHuxley", "DrouhardRoberge", "BeelerReuter", "Noble62",
    "LuoRudy91", "Stress_Niederer",
}


@dataclass(frozen=True)
class ModelEntry:
    """Registry record for one ionic model."""

    name: str
    size_class: str
    path: pathlib.Path
    hand_written: bool


def all_model_files():
    """Every shipped model, supported or not: 47 files like openCARP."""
    return ALL_MODELS + UNSUPPORTED_MODELS


def model_entry(name: str) -> ModelEntry:
    if name not in SIZE_CLASS:
        raise KeyError(f"unknown ionic model {name!r}; "
                       f"see repro.models.ALL_MODELS")
    return ModelEntry(name=name, size_class=SIZE_CLASS[name],
                      path=MODEL_DIR / f"{name}.model",
                      hand_written=name in HAND_WRITTEN)


def model_source_hash(model_name: str) -> str:
    """sha256 of the model's EasyML source file bytes."""
    return hashlib.sha256(
        model_entry(model_name).path.read_bytes()).hexdigest()


def list_models(size_class: Optional[str] = None) -> List[ModelEntry]:
    """All registry entries, optionally filtered by size class."""
    names = ALL_MODELS if size_class is None else \
        [n for n in ALL_MODELS if SIZE_CLASS[n] == size_class]
    return [model_entry(n) for n in names]


@lru_cache(maxsize=None)
def load_model(name: str) -> IonicModel:
    """Parse + analyze a registered model (cached)."""
    entry = model_entry(name)
    return load_model_file(entry.path)


def verify_registry() -> None:
    """Check the 47-model inventory and the paper's 8/22/13 split."""
    assert len(SMALL_MODELS) == 8, len(SMALL_MODELS)
    assert len(MEDIUM_MODELS) == 22, len(MEDIUM_MODELS)
    assert len(LARGE_MODELS) == 13, len(LARGE_MODELS)
    assert len(ALL_MODELS) == 43
    assert len(UNSUPPORTED_MODELS) == 4
    assert len(set(all_model_files())) == 47, "duplicate model names"
    for name in all_model_files():
        path = MODEL_DIR / f"{name}.model"
        if not path.exists():
            raise FileNotFoundError(path)
