"""Numerical watchdog: periodic NaN/Inf scans with checkpoint-and-retry.

Explicit (forward-Euler / Rush-Larsen) integration of stiff ionic
models diverges when ``dt`` is too large — state blows up to Inf then
NaN, and without a guard the run completes "successfully" with garbage.
The watchdog scans state and externals every ``check_interval`` steps
and applies a configurable policy on divergence:

* ``raise`` — fail fast with :class:`NumericalDivergenceError`;
* ``halve_dt`` — roll back to the last healthy checkpoint and retry
  the segment with ``dt * dt_factor``, up to ``max_retries`` times and
  never below ``min_dt`` (bounded backoff);
* ``abort_cell_report`` — stop the run, keeping the last healthy
  checkpoint, and report which cells diverged.

The ``halve_dt`` backoff is doubly bounded — a per-run retry budget
(``max_retries``) and a dt floor (``min_dt``) — and when either runs
out the run fails with :class:`NumericalDivergenceError`, whose
report counts the retries taken.  A run that must end with data
instead of an exception uses ``abort_cell_report``.

Every decision lands in a :class:`~repro.resilience.diagnostics
.HealthReport` attached to the run's result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .diagnostics import HealthReport

#: valid watchdog policies
POLICIES = ("raise", "halve_dt", "abort_cell_report")


class NumericalDivergenceError(RuntimeError):
    """A run diverged and the policy said to fail (or backoff ran out)."""

    def __init__(self, message: str, report: HealthReport):
        super().__init__(message)
        self.report = report


@dataclass
class WatchdogConfig:
    """Tunables of the numerical watchdog."""

    policy: str = "halve_dt"
    check_interval: int = 25        # steps between NaN/Inf scans
    max_retries: int = 4            # per-run retry budget (rollbacks)
    dt_factor: float = 0.5          # dt multiplier per retry
    min_dt: float = 1e-9            # dt floor: never retry below this

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"unknown watchdog policy {self.policy!r}; "
                             f"one of {POLICIES}")
        if self.check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        if not 0.0 < self.dt_factor < 1.0:
            raise ValueError("dt_factor must be in (0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.min_dt <= 0.0:
            raise ValueError("min_dt must be > 0 (the dt floor)")


class NumericalWatchdog:
    """Scans a simulation state for non-finite values."""

    def __init__(self, config: WatchdogConfig = None):
        self.config = config or WatchdogConfig()

    def scan(self, state) -> List[str]:
        """Names of arrays containing NaN/Inf (empty list = healthy)."""
        bad: List[str] = []
        if not np.isfinite(state.sv).all():
            bad.append("sv")
        for name, array in state.externals.items():
            if not np.isfinite(array[:state.n_cells]).all():
                bad.append(name)
        return bad

    def diverged_cells(self, state) -> List[int]:
        """Indices of cells whose state or externals are non-finite."""
        finite = np.isfinite(state.state_matrix()).all(axis=1)
        for array in state.externals.values():
            finite &= np.isfinite(array[:state.n_cells])
        return np.flatnonzero(~finite).tolist()

    def new_report(self, dt: float) -> HealthReport:
        return HealthReport(policy=self.config.policy, initial_dt=dt,
                            final_dt=dt)
