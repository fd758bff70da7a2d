"""Tests for the §A.5/§A.6 artifact workflow scripts and state buffers."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name,
                                                  TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tools(tmp_path_factory):
    evaluation = load_tool("evaluation")
    res = load_tool("res")
    out = tmp_path_factory.mktemp("artifact_output")
    evaluation.OUTPUT_DIR = out
    res.OUTPUT_DIR = out
    return evaluation, res, out


class TestArtifactWorkflow:
    def test_default_runs_fig3(self, tools, capsys):
        evaluation, _, out = tools
        assert evaluation.main([]) == 0
        assert (out / "fig3_avx512_32t.txt").exists()

    def test_fig2_then_res(self, tools, capsys):
        evaluation, res, out = tools
        assert evaluation.main(["-fig2", "true"]) == 0
        assert res.main(["-fig2", "true"]) == 0
        table = (out / "fig2.txt").read_text()
        assert "geomean overall" in table
        assert table.count("\n") > 43

    def test_res_without_evaluation_explains(self, tools, tmp_path):
        _, res, _ = tools
        saved = res.OUTPUT_DIR
        res.OUTPUT_DIR = tmp_path
        try:
            with pytest.raises(SystemExit, match="evaluation"):
                res.main(["-fig2", "true"])
        finally:
            res.OUTPUT_DIR = saved

    def test_nothing_selected_errors(self, tools, capsys):
        _, res, _ = tools
        assert res.main([]) == 1

    def test_output_rows_cover_all_models(self, tools):
        evaluation, _, out = tools
        evaluation.main(["-fig3", "true"])
        lines = (out / "fig3_avx512_32t.txt").read_text().splitlines()
        assert len(lines) == 44  # header + 43 models


class TestSimulationStateDetails:
    @pytest.fixture
    def runner(self, gate_model):
        from repro.codegen import generate_limpet_mlir
        from repro.runtime import KernelRunner
        return KernelRunner(generate_limpet_mlir(gate_model, 8))

    def test_padding_replicates_last_cell(self, runner):
        state = runner.make_state(10, perturbation=0.05)
        from repro.codegen.layout import unpack_state
        full = unpack_state(state.sv, state.layout, state.n_alloc)
        np.testing.assert_array_equal(full[10], full[9])
        np.testing.assert_array_equal(full[15], full[9])

    def test_vm_init_override(self, runner):
        state = runner.make_state(4, vm_init=-33.0)
        assert (state.external("Vm") == -33.0).all()

    def test_state_of_unknown_raises(self, runner):
        state = runner.make_state(4)
        with pytest.raises(ValueError):
            state.state_of("not_a_state")

    def test_snapshot_is_a_copy(self, runner):
        state = runner.make_state(4)
        snap = state.snapshot()
        snap["Vm"][:] = 999.0
        assert not (state.external("Vm") == 999.0).any()

    def test_set_state_pads(self, runner):
        state = runner.make_state(5)
        matrix = state.state_matrix()
        matrix[:, 0] = np.arange(5.0)
        state.set_state(matrix)
        assert state.state_of(state.model.states[0])[4] == 4.0
        from repro.codegen.layout import unpack_state
        full = unpack_state(state.sv, state.layout, state.n_alloc)
        assert full[7, 0] == 4.0  # padding mirrors the last real cell
