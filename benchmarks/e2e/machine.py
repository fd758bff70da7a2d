"""Machine identity, a calibration probe, and a gauge of the machine's speed.

Identity is what decides whether two absolute numbers are comparable: CPU
model, ISA flags, core count and the Python/NumPy versions, never the kernel
build string.  The probe is a fixed ``np.exp`` over 4096 doubles, sampled
before and after each workload, so "the box got slower" can be told from
"the code got slower".

The gauge exists because on a shared host the box does get slower, and
faster, for 5 to 60 seconds at a time and by 15 to 25 %: whole runs land in
such a phase, and no statistic inside one run can see that.  So the untraced
run brackets every operation with the probe and reports its metrics from the
operations that ran at the machine's usual speed (README, "Steadiness").
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import time
from typing import Dict, List

import numpy as np

#: ISA extensions that change which NumPy inner loops run
_ISA_FLAGS = ("sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq",
              "avx512bw", "avx512vl", "neon", "asimd", "sve")


def identity() -> Dict:
    """CPU model, ISA flags, cores, Python and NumPy versions."""
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
            "numpy": np.__version__}


def calib_exp_ns_per_elem(n: int = 4096, repeats: int = 200) -> float:
    """Median ns per element of ``np.exp`` over ``n`` doubles."""
    x = np.linspace(-4.0, 4.0, n)
    out = np.empty_like(x)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.exp(x, out=out)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) / n * 1e9


class SpeedGauge:
    """Was the machine at its usual speed around an operation?

    The usual speed is the median probe of the recent runs, kept in a small
    history file beside the benchmark's other output, so that a run which
    falls entirely into a slow phase still knows what usual means.  Until
    the history holds ``MIN_HISTORY`` runs the run's own probes stand in.
    """

    #: a probe this close to the usual speed counts as undisturbed
    TOLERANCE = 0.08
    MIN_HISTORY = 5
    KEPT_RUNS = 40

    def __init__(self, history: pathlib.Path) -> None:
        self.history = history
        self.now: List[float] = []
        try:
            self.past: List[float] = [
                float(v) for v in json.loads(history.read_text())["runs"]]
        except (OSError, ValueError, KeyError, TypeError):
            self.past = []

    def probe(self) -> float:
        value = calib_exp_ns_per_elem(repeats=400)    # about 1.5 ms
        self.now.append(value)
        return value

    def usual(self) -> float:
        known = self.past if len(self.past) >= self.MIN_HISTORY else self.now
        return statistics.median(known)

    def undisturbed(self, *probes: float) -> bool:
        usual = self.usual()
        return all(abs(p / usual - 1.0) <= self.TOLERANCE for p in probes)

    def save(self) -> None:
        """Add this run's median probe to the history."""
        runs = (self.past + [statistics.median(self.now)])[-self.KEPT_RUNS:]
        self.history.parent.mkdir(parents=True, exist_ok=True)
        scratch = self.history.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps({"runs": runs}))
        os.replace(scratch, self.history)
