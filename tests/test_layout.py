"""Data-layout tests (§3.4.1): addressing, padding, packing."""

import numpy as np
import pytest

from repro.codegen import generate, generate_limpet_mlir
from repro.codegen.layout import (Layout, LayoutKind, aos, aosoa, pack_state,
                                  unpack_state)
from repro.models import load_model
from repro.population import PopulationRunner, PopulationSpec


class TestAddressing:
    def test_aos_offsets(self):
        layout = aos(n_states=3)
        # cell-major: [c0s0 c0s1 c0s2 c1s0 ...]
        assert layout.offset(0, 0) == 0
        assert layout.offset(0, 2) == 2
        assert layout.offset(1, 0) == 3
        assert layout.offset(4, 1) == 13

    def test_aosoa_offsets(self):
        layout = aosoa(n_states=3, block=4)
        # block 0: s0 lanes 0-3, s1 lanes 0-3, s2 lanes 0-3, block 1...
        assert layout.offset(0, 0) == 0
        assert layout.offset(3, 0) == 3
        assert layout.offset(0, 1) == 4
        assert layout.offset(4, 0) == 12   # second block starts
        assert layout.offset(5, 2) == 21

    def test_vectorized_offsets_match_scalar(self):
        for layout in (aos(5), aosoa(5, 8)):
            cells = np.arange(16)
            for slot in range(5):
                vectorized = layout.offsets(cells, slot)
                scalar = [layout.offset(int(c), slot) for c in cells]
                assert list(vectorized) == scalar, str(layout)

    def test_slot_out_of_range(self):
        with pytest.raises(IndexError):
            aos(2).offset(0, 2)

    def test_offsets_within_buffer(self):
        for layout in (aos(4), aosoa(4, 8)):
            size = layout.buffer_size(10)
            cells = np.arange(10)
            for slot in range(4):
                offs = layout.offsets(cells, slot)
                assert offs.max() < size


class TestPadding:
    def test_aosoa_pads_to_blocks(self):
        layout = aosoa(3, block=8)
        assert layout.padded_cells(10) == 16
        assert layout.padded_cells(16) == 16

    def test_aos_needs_no_padding(self):
        assert aos(3).padded_cells(10) == 10

    def test_buffer_size(self):
        assert aos(3).buffer_size(10) == 30
        assert aosoa(3, 8).buffer_size(10) == 48


class TestPackUnpack:
    @pytest.mark.parametrize("make", [lambda: aos(4), lambda: aosoa(4, 8),
                                      lambda: aosoa(4, 4)])
    def test_round_trip(self, make):
        layout = make()
        rng = np.random.default_rng(7)
        values = rng.normal(size=(13, 4))
        padded = np.zeros((layout.padded_cells(13), 4))
        padded[:13] = values
        buffer = pack_state(padded, layout)
        recovered = unpack_state(buffer, layout, layout.padded_cells(13))
        np.testing.assert_array_equal(recovered[:13], values)

    def test_pack_shape_mismatch(self):
        with pytest.raises(ValueError):
            pack_state(np.zeros((4, 3)), aos(5))

    def test_aosoa_blocks_are_physically_contiguous(self):
        """The whole point: one slot's lanes sit side by side."""
        layout = aosoa(2, block=4)
        values = np.arange(8.0).reshape(4, 2)  # 4 cells, 2 states
        buffer = pack_state(values, layout)
        # slot 0 of cells 0..3 at positions 0..3
        np.testing.assert_array_equal(buffer[0:4], values[:, 0])
        np.testing.assert_array_equal(buffer[4:8], values[:, 1])

    def test_str_forms(self):
        assert str(aos(3)) == "aos"
        assert str(aosoa(3, 8)) == "aosoa(block=8)"

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Layout(LayoutKind.AOSOA, 3, 0)
        with pytest.raises(ValueError):
            Layout(LayoutKind.AOS, -1)

    def test_aos_is_the_blocked_layout_at_block_1(self):
        """The emitter addresses AoS as the blocked layout at block 1
        (``i*n_states + slot*block``); an AoS layout with another block
        would place (cell, slot) where no emitted kernel looks."""
        with pytest.raises(ValueError, match="block 1"):
            Layout(LayoutKind.AOS, 3, 8)
        cells = np.arange(10)
        for slot in range(3):
            np.testing.assert_array_equal(aos(3).offsets(cells, slot),
                                          aosoa(3, 1).offsets(cells, slot))


class TestLayoutChoice:
    """``layout=`` takes the paper's two layouts (§3.4.1) and no other."""

    @pytest.mark.parametrize("build", [
        lambda m, layout: generate_limpet_mlir(m, 8, layout=layout),
        lambda m, layout: generate(m, "limpet_mlir", 8, layout=layout),
        lambda m, layout: PopulationRunner(
            m, PopulationSpec.from_ranges(m, {"GK": "0.5:1.0:2"}),
            layout=layout),
    ], ids=["generate_limpet_mlir", "generate", "PopulationRunner"])
    def test_soa_is_refused(self, build):
        with pytest.raises(ValueError) as refused:
            build(load_model("LuoRudy91"), "soa")
        assert "'aos'" in str(refused.value)
        assert "'aosoa'" in str(refused.value)
