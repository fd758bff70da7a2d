"""State-variable data layouts (paper §3.4.1).

openCARP stores each cell's state variables contiguously (an
array-of-structures, AoS).  limpetMLIR's data-layout transformation
rearranges the same state variable of ``block`` successive cells
consecutively — array-of-structures-of-arrays (AoSoA) — so a vector of
cells is loaded with one contiguous hardware load instead of a gather.

The layout object answers one question for both the code generators and
the runtime: *where does (cell i, state slot s) live in the flat state
buffer?*
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class LayoutKind(enum.Enum):
    AOS = "aos"
    AOSOA = "aosoa"


@dataclass(frozen=True)
class Layout:
    """A concrete layout for ``n_states`` state variables.

    Both layouts are blocked: ``block`` successive cells store each slot
    side by side, (cell i, slot s) at
    ``(i // block)*n_states*block + s*block + i % block``.  AoSoA's
    ``block`` is the SIMD width in limpetMLIR's transformation; AoS is
    the same formula at ``block`` 1 (Listing 2's ``sv_base + i``), as
    the emitter addresses it, and takes no other block.
    """

    kind: LayoutKind
    n_states: int
    block: int = 1

    def __post_init__(self) -> None:
        if self.n_states < 0:
            raise ValueError("n_states must be >= 0")
        if self.kind is LayoutKind.AOS and self.block != 1:
            raise ValueError(f"AoS is the blocked layout at block 1, "
                             f"not {self.block}")
        if self.block < 1:
            raise ValueError("AoSoA requires a positive block size")

    # -- size -------------------------------------------------------------------

    def padded_cells(self, n_cells: int) -> int:
        """Cell count rounded up to a whole number of blocks."""
        blocks = -(-n_cells // self.block)
        return blocks * self.block

    def buffer_size(self, n_cells: int) -> int:
        return self.padded_cells(n_cells) * self.n_states

    # -- addressing ----------------------------------------------------------------

    def offset(self, cell: int, slot: int) -> int:
        """Flat index of (cell, slot)."""
        if not 0 <= slot < max(self.n_states, 1):
            raise IndexError(f"state slot {slot} out of range")
        block_idx, lane = divmod(cell, self.block)
        return (block_idx * self.n_states * self.block
                + slot * self.block + lane)

    def offsets(self, cells: np.ndarray, slot: int) -> np.ndarray:
        """Vectorized :meth:`offset` for an array of cell indices."""
        cells = np.asarray(cells, dtype=np.int64)
        block_idx, lane = np.divmod(cells, self.block)
        return (block_idx * self.n_states * self.block
                + slot * self.block + lane)

    def __str__(self) -> str:
        if self.kind is LayoutKind.AOSOA:
            return f"aosoa(block={self.block})"
        return self.kind.value


def aos(n_states: int) -> Layout:
    """openCARP's original array-of-structures layout."""
    return Layout(LayoutKind.AOS, n_states)


def aosoa(n_states: int, block: int) -> Layout:
    """limpetMLIR's array-of-structures-of-blocks layout (§3.4.1)."""
    return Layout(LayoutKind.AOSOA, n_states, block)


def pack_state(values: np.ndarray, layout: Layout) -> np.ndarray:
    """Pack a (n_cells, n_states) matrix into a flat buffer per ``layout``."""
    n_cells, n_states = values.shape
    if n_states != layout.n_states:
        raise ValueError(f"expected {layout.n_states} states, got {n_states}")
    buffer = np.zeros(layout.buffer_size(n_cells), dtype=np.float64)
    cells = np.arange(n_cells)
    for slot in range(n_states):
        buffer[layout.offsets(cells, slot)] = values[:, slot]
    return buffer


def unpack_state(buffer: np.ndarray, layout: Layout,
                 n_cells: int) -> np.ndarray:
    """Inverse of :func:`pack_state`: recover the (n_cells, n_states) view."""
    values = np.empty((n_cells, layout.n_states), dtype=np.float64)
    cells = np.arange(n_cells)
    for slot in range(layout.n_states):
        values[:, slot] = buffer[layout.offsets(cells, slot)]
    return values
