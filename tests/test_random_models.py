"""Hypothesis-generated random ionic models: full-pipeline equivalence.

Generates syntactically valid EasyML models with random expression
structure, random gate/method assignments and random LUT usage, then
asserts the repository's core guarantee on each: the scalar baseline
and the vectorized limpetMLIR kernel compute identical trajectories
(NaNs included — instability must be *the same* instability
everywhere).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_baseline, generate_limpet_mlir
from repro.frontend import load_model
from repro.runtime import KernelRunner, compare_trajectories

_SAFE_UNARY = ("exp", "tanh", "square", "cube", "fabs", "cos", "sin")


@st.composite
def random_model_source(draw):
    """A random but analyzable EasyML model over Vm and 1-3 states."""
    n_states = draw(st.integers(1, 3))
    n_intermediates = draw(st.integers(0, 3))
    use_lut = draw(st.booleans())
    rng_consts = st.floats(min_value=-3.0, max_value=3.0,
                           allow_nan=False, allow_infinity=False)

    def small_expr(depth, names):
        if depth == 0 or draw(st.booleans()):
            if names and draw(st.booleans()):
                return draw(st.sampled_from(names))
            return repr(round(draw(rng_consts), 4))
        kind = draw(st.sampled_from(["bin", "call", "ternary"]))
        if kind == "bin":
            op = draw(st.sampled_from(["+", "-", "*"]))
            return (f"({small_expr(depth - 1, names)} {op} "
                    f"{small_expr(depth - 1, names)})")
        if kind == "call":
            fn = draw(st.sampled_from(_SAFE_UNARY))
            return f"{fn}({small_expr(depth - 1, names)})"
        return (f"(({small_expr(depth - 1, names)} > 0) ? "
                f"{small_expr(depth - 1, names)} : "
                f"{small_expr(depth - 1, names)})")

    lines = ["Iion; .external();"]
    lookup = " .lookup(-60,60,0.5);" if use_lut else ""
    lines.insert(0, f"Vm; .external();{lookup}")
    lines.append("Vm_init = -20.0;")
    states = [f"s{i}" for i in range(n_states)]
    inter_names = []
    for i in range(n_intermediates):
        name = f"w{i}"
        expr = small_expr(2, ["Vm"] + inter_names)
        lines.append(f"{name} = {expr};")
        inter_names.append(name)
    usable = ["Vm"] + inter_names
    for i, state in enumerate(states):
        method = draw(st.sampled_from(["", "", "rk2", "rk4", "markov_be"]))
        rhs = small_expr(2, usable + [state])
        # damp toward a bounded attractor so most runs stay finite
        lines.append(f"diff_{state} = 0.01*({rhs}) - 0.1*{state};")
        lines.append(f"{state}_init = "
                     f"{repr(round(draw(rng_consts), 3))};")
        if method:
            lines.append(f"{state}; .method({method});")
    iion = small_expr(2, usable + states)
    lines.append(f"Iion = 0.01*({iion}) + 0.1*(Vm + 20.0);")
    return "\n".join(lines)


def _same_instability(a, b) -> bool:
    """True when both runs diverged with the same NaN/inf footprint.

    ``compare_trajectories`` refuses to call two NaN-containing runs
    equal (the watchdog depends on that), but for *backend
    equivalence* an unstable random model is fine as long as every
    backend blows up in the same cells of the same keys.  Padding may
    differ between backends, so masks are compared on the common
    prefix (the logical cells come first)."""
    sa, sb = a.snapshot(), b.snapshot()
    if set(sa) != set(sb):
        return False
    for key in sa:
        ma = ~np.isfinite(np.asarray(sa[key], dtype=float).ravel())
        mb = ~np.isfinite(np.asarray(sb[key], dtype=float).ravel())
        n = min(ma.size, mb.size)
        if not (ma[:n] == mb[:n]).all():
            return False
    return True


def _assert_equivalent(reference, other, source,
                       rtol: float = 1e-9) -> None:
    comparison = compare_trajectories(reference, other, rtol=rtol)
    if comparison:
        return
    only_nan = (not comparison.missing_keys
                and comparison.nan_keys
                and set(comparison.mismatches)
                <= set(comparison.nan_keys))
    assert only_nan and _same_instability(reference, other), \
        f"{comparison.describe()}\n{source}"


class TestRandomModelEquivalence:
    @given(random_model_source(), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_baseline_and_vector_agree(self, source, seed):
        model = load_model(source, "Random")
        runners = [
            KernelRunner(generate_baseline(model)),
            KernelRunner(generate_limpet_mlir(model, 4)),
        ]
        states = []
        for runner in runners:
            rng = np.random.default_rng(seed)
            state = runner.make_state(6, perturbation=0.02, rng=rng)
            runner.run(state, 40, 0.01)
            states.append(state)
        _assert_equivalent(states[0], states[1], source)

    @given(random_model_source())
    @settings(max_examples=15, deadline=None)
    def test_pass_pipeline_semantics_preserved(self, source):
        model = load_model(source, "Random")
        raw = KernelRunner(generate_limpet_mlir(model, 4), optimize=False)
        opt = KernelRunner(generate_limpet_mlir(model, 4), optimize=True)
        s1 = raw.make_state(4, perturbation=0.01)
        s2 = opt.make_state(4, perturbation=0.01)
        raw.run(s1, 25, 0.01)
        opt.run(s2, 25, 0.01)
        _assert_equivalent(s1, s2, source, rtol=1e-12)

    @given(random_model_source())
    @settings(max_examples=10, deadline=None)
    def test_ir_round_trips_through_text(self, source):
        from repro.ir import parse_module, print_module, verify_module
        model = load_model(source, "Random")
        kernel = generate_limpet_mlir(model, 4)
        text = print_module(kernel.module)
        reparsed = parse_module(text)
        verify_module(reparsed)
        assert print_module(reparsed) == text
