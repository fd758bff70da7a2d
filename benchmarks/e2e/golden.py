"""The golden check: expected final states from an independent engine.

For every model the committed ``golden/<model>.json`` holds the final state of
8 cells after 20 steps from a fixed seed, computed by
``runtime.interpreter.Interpreter`` walking the *unoptimised scalar*
``generate_baseline`` module.  That engine shares ``easyml``, ``frontend`` and
the LUT tabulation with the program under test, and none of the vector code
generator, the passes, the lowering, the stores, the execution tiers or the
population layer.  (ROADMAP item 4's SciPy oracle, which shares nothing,
replaces it later.)  The solver stage is restated here, not imported.

Every runner the benchmark times replays the same input through its own tier
and must agree at ``compare_trajectories``' default tolerance: loose enough
for a future libm-vs-NumPy ``exp``, tight enough to catch wrong numerics.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List

import numpy as np

from repro.codegen import generate_baseline
from repro.easyml import parse_model
from repro.frontend import analyze
from repro.runtime.interpreter import Interpreter
from repro.runtime.lut_runtime import build_all_luts
from repro.runtime.state import allocate_state

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 20230225
GOLDEN_CELLS = 8
GOLDEN_STEPS = 20
DT = 0.01
PERTURBATION = 1e-3
RTOL, ATOL = 1e-9, 1e-11

#: the population golden: one cell per instance, GKr scaled 0.1 .. 1.0
POPULATION_MODEL = "Courtemanche"
POPULATION_PARAM = "GKr"
POPULATION_RANGE = (0.1, 1.0, 16)
POPULATION_KEY = f"{POPULATION_MODEL}.population"


def reference_final_state(text: str, name: str,
                          population: bool = False) -> Dict[str, np.ndarray]:
    """Final state of the golden input under the reference engine."""
    promote = (POPULATION_PARAM,) if population else ()
    model = analyze(parse_model(text, name), promote_params=promote)
    generated = generate_baseline(model)
    n_cells, param_values = GOLDEN_CELLS, None
    if population:
        lo, hi, n_cells = POPULATION_RANGE
        param_values = {POPULATION_PARAM: np.linspace(lo, hi, n_cells)
                        * model.params[POPULATION_PARAM]}
    state = allocate_state(model, generated.layout, n_cells, width=1,
                           perturbation=PERTURBATION,
                           rng=np.random.default_rng(GOLDEN_SEED),
                           param_values=param_values)
    luts = build_all_luts(model, dt=DT)
    interpreter = Interpreter(generated.module)
    integrates_vm = ({"Vm", "Iion"} <= set(state.externals)
                     and "Iion" in model.outputs)
    for _ in range(GOLDEN_STEPS):
        interpreter.call(
            generated.spec.function_name, 0, state.n_alloc, DT, state.time,
            state.sv, *(state.externals[e] for e in model.externals),
            *(state.params[p] for p in model.promoted_params), *luts)
        if integrates_vm:       # solver stage: dVm/dt = -Iion, no stimulus
            state.externals["Vm"] -= DT * state.externals["Iion"]
        state.time += DT
    return state.snapshot()


def write(key: str, final: Dict[str, np.ndarray]) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    head = {"key": key, "seed": GOLDEN_SEED, "steps": GOLDEN_STEPS,
            "dt": DT, "perturbation": PERTURBATION,
            "engine": "Interpreter over generate_baseline, no passes"}
    # one variable a line, so that a regenerated file diffs by variable
    lines = [f'  {json.dumps(name)}: '
             + json.dumps([float(v).hex() for v in values])
             for name, values in sorted(final.items())]
    (GOLDEN_DIR / f"{key}.json").write_text(
        json.dumps(head)[:-1] + ', "final": {\n' + ",\n".join(lines)
        + "\n}}\n")


def load(key: str) -> Dict[str, np.ndarray]:
    record = json.loads((GOLDEN_DIR / f"{key}.json").read_text())
    return {name: np.array([float.fromhex(v) for v in values])
            for name, values in record["final"].items()}


def mismatches(actual: Dict[str, np.ndarray],
               expected: Dict[str, np.ndarray], tiles: int = 1) -> List[str]:
    """Keys of ``actual`` that miss ``expected`` (repeated ``tiles`` times)."""
    bad = sorted(set(actual) ^ set(expected))
    for name in sorted(set(actual) & set(expected)):
        want = np.tile(expected[name], tiles)
        got = actual[name]
        if got.shape != want.shape or not np.isfinite(got).all() \
                or not np.allclose(got, want, rtol=RTOL, atol=ATOL):
            bad.append(name)
    return bad


def replay(runner, key: str, tiles: int = 1) -> List[str]:
    """Replay the golden input through ``runner``'s own tier; return the
    mismatching keys.  ``tiles`` > 1 repeats the input so that a sharded
    tier really splits it (one vector block per shard).  A population runner
    allocates one cell per instance, as the population golden does.
    """
    cells = 1 if key == POPULATION_KEY else GOLDEN_CELLS
    state = runner.make_state(cells, perturbation=PERTURBATION,
                              rng=np.random.default_rng(GOLDEN_SEED))
    if tiles > 1:
        one = state
        state = runner.make_state(cells * tiles)
        state.set_state(np.tile(one.state_matrix(), (tiles, 1)))
        for name, array in one.externals.items():
            state.externals[name][:cells * tiles] = np.tile(
                array[:cells], tiles)
    runner.run(state, GOLDEN_STEPS, DT)
    return mismatches(state.snapshot(), load(key), tiles)
