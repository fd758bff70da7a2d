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
* the ``TIER1`` models at widths 2 / 4 / 8 x layouts aosoa / aos / soa
  (a foreign model's refusal is recorded as such);
* the promoted Courtemanche population kernel, ``GKr`` set per cell.

A lowering change that keeps each kernel's arithmetic (fusion,
addressing, packing, ...) must replay the corpus bit for bit, and a
change that mixes up two cells, two states or two constants cannot.
Tier-1 replays the ``TIER1`` models; the rest of the zoo is checked with

    python -m tests.test_kernel_state_corpus --check

and the corpus is re-recorded, only for a deliberate numerics change,
with ``--write``.
"""

import argparse
import functools
import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.codegen import (UnsupportedModelError, backend_for, generate,
                           generate_limpet_mlir)
from repro.models import all_model_files, load_model
from repro.population.runner import load_promoted_model
from repro.runtime.executor import KernelRunner

RECORD = pathlib.Path(__file__).parent / "data" / "kernel_state_corpus.json"

#: one model per size class, the population model and a foreign one
TIER1 = ("FitzHughNagumo", "LuoRudy91", "Courtemanche", "OHara",
         "Campbell")
CELLS = (37, 64, 600)
STEPS = 20
DT = 0.01
SEED = 20231
PERTURBATION = 0.01
POPULATION = ("Courtemanche", "GKr")


def default_kernel(model):
    """The kernel ``build-all`` builds for ``model``."""
    return generate(model, backend_for("limpet_mlir", 8,
                                       bool(model.foreign_functions)),
                    width=8, use_lut=True)


def kernels(tier1_only=False):
    """``(key, build, population)`` per pinned kernel."""
    for name in all_model_files():
        if tier1_only and name not in TIER1:
            continue
        yield (f"{name}/default",
               lambda n=name: default_kernel(load_model(n)), False)
        if name in TIER1:
            for width in (2, 4, 8):
                for layout in ("aosoa", "aos", "soa"):
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
    return {key: final_states(build, population)
            for key, build, population in kernels()}


@functools.lru_cache(maxsize=None)
def recorded():
    return json.loads(RECORD.read_text())


def test_record_covers_the_zoo_and_the_tier1_matrix():
    keys = set(recorded()["states"])
    assert keys == {key for key, _, _ in kernels()}
    assert len(keys) == 47 + 9 * len(TIER1) + 1


@pytest.mark.parametrize(
    "key,build,population",
    [pytest.param(*entry, id=entry[0]) for entry in kernels(True)])
def test_final_state_replays_bit_for_bit(key, build, population):
    assert final_states(build, population) == recorded()["states"][key]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="replay every pinned kernel against the record")
    mode.add_argument("--write", action="store_true",
                      help=f"re-record {RECORD.name}")
    args = parser.parse_args(argv)
    if args.write:
        RECORD.write_text(json.dumps(
            {"numpy": np.__version__, "states": record()},
            indent=1, sort_keys=True) + "\n")
        print(f"wrote {RECORD}")
        return 0
    states = recorded()["states"]
    moved = [key for key, build, population in kernels()
             if final_states(build, population) != states.get(key)]
    for key in moved:
        print(f"MOVED {key}")
    print(f"{len(moved)} of {len(states)} kernels' final states moved "
          f"(recorded with NumPy {recorded()['numpy']}, "
          f"running {np.__version__})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
