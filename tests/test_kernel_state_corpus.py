"""Final states of the generated kernels are pinned bit for bit.

``tests/data/kernel_state_corpus.json`` holds, per kernel and cell
count, the sha256 of the final ``state.snapshot()`` after ``STEPS``
steps of ``KernelRunner.run`` (compute stage and solver stage) from a
seeded perturbed state.  The cell counts are 37, which is no whole
number of vector blocks, so padding lanes are stepped too, 64, and 600,
a mesh large enough that a kernel takes the paths it takes for large
meshes.  The corpus covers:

* every zoo model's default kernel (limpetMLIR at width 8, the
  baseline for the four foreign models);
* the ``TIER1_MODELS`` at widths 2 / 4 / 8 x layouts aosoa / aos
  (a foreign model's refusal is recorded as such);
* the promoted Courtemanche population kernel, ``GKr`` set per cell.

A lowering change that keeps each kernel's arithmetic (fusion,
addressing, packing, ...) must replay the corpus bit for bit, and a
change that mixes up two cells, two states or two constants cannot.
Tier-1 replays the ``TIER1_MODELS``; the rest of the zoo is checked with

    PYTHONPATH=src python -m tests.pins --check --only kernel_state_corpus

and the corpus is re-recorded, only for a deliberate numerics change,
with ``--write`` (see ``tests/pins.py``).
"""

import functools
import hashlib

import numpy as np
import pytest

from repro.aot.build import default_kernel
from repro.codegen import UnsupportedModelError, generate_limpet_mlir
from repro.models import all_model_files, load_model
from repro.population.runner import load_promoted_model
from repro.runtime.executor import KernelRunner

from . import pins

CELLS = (37, 64, 600)
STEPS = 20
DT = 0.01
SEED = 20231
PERTURBATION = 0.01
POPULATION = ("Courtemanche", "GKr")


def kernels(tier1_only=False):
    """``(key, build, population)`` per pinned kernel."""
    for name in all_model_files():
        if tier1_only and name not in pins.TIER1_MODELS:
            continue
        yield (f"{name}/default",
               lambda n=name: default_kernel(load_model(n)), False)
        if name in pins.TIER1_MODELS:
            for width in (2, 4, 8):
                for layout in ("aosoa", "aos"):
                    yield (f"{name}/w{width}/{layout}",
                           lambda n=name, w=width, l=layout:
                           generate_limpet_mlir(load_model(n), w, layout=l),
                           False)
    model, param = POPULATION
    yield (f"{model}+{param}/population",
           lambda: default_kernel(load_promoted_model(model, (param,))),
           True)


def snapshot_digest(snapshot):
    """sha256 over the snapshot's keys and little-endian float64 bytes."""
    digest = hashlib.sha256()
    for key in sorted(snapshot):
        digest.update(key.encode() + b"\0")
        digest.update(np.ascontiguousarray(snapshot[key],
                                           dtype="<f8").tobytes())
    return digest.hexdigest()


def final_states(build, population):
    """``{"cells=N": digest}`` of the kernel ``build`` generates."""
    try:
        generated = build()
    except UnsupportedModelError as err:
        return {f"cells={n}": f"refused:{type(err).__name__}"
                for n in CELLS}
    runner = KernelRunner(generated, artifacts=False)
    digests = {}
    for n_cells in CELLS:
        params = None
        if population:
            model, param = generated.spec.model, POPULATION[1]
            params = {param: np.linspace(0.1, 1.0, n_cells)
                      * model.params[param]}
        state = runner.make_state(n_cells, perturbation=PERTURBATION,
                                  rng=np.random.default_rng(SEED),
                                  param_values=params)
        runner.run(state, STEPS, DT)
        digests[f"cells={n_cells}"] = snapshot_digest(state.snapshot())
    return digests


def record():
    return {"numpy": np.__version__,
            "states": {key: final_states(build, population)
                       for key, build, population in kernels()}}


@functools.lru_cache(maxsize=None)
def recorded():
    return pins.read("kernel_state_corpus")


def test_record_covers_the_zoo_and_the_tier1_matrix():
    keys = set(recorded()["states"])
    assert keys == {key for key, _, _ in kernels()}
    assert len(keys) == 47 + 6 * len(pins.TIER1_MODELS) + 1


@pytest.mark.parametrize(
    "key,build,population",
    [pytest.param(*entry, id=entry[0]) for entry in kernels(True)])
def test_final_state_replays_bit_for_bit(key, build, population):
    assert final_states(build, population) == recorded()["states"][key]
