"""Population specification: which params vary, and how, per instance.

A :class:`PopulationSpec` maps promoted parameter names to length-N
value arrays — instance ``i`` of the population runs with
``values[name][i]`` in place of the model's declared constant.  The
*shape* of a population (parameter names + N, never the values) is
what keys compilation: every sweep of the same shape reuses one
compiled kernel.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from ..frontend.model import IonicModel


class PopulationSpec:
    """Per-instance values for one or more promoted parameters.

    ``values`` maps parameter name -> array-like of length N (equal
    for every parameter).  Order is preserved: it defines the kernel's
    ``param_*`` argument order via the promoted model.
    """

    def __init__(self, values: Mapping[str, Iterable[float]]):
        if not values:
            raise ValueError("PopulationSpec needs at least one parameter")
        self.values: Dict[str, np.ndarray] = {}
        n: Optional[int] = None
        for name, vals in values.items():
            array = np.atleast_1d(np.asarray(vals, dtype=np.float64))
            if array.ndim != 1 or array.size == 0:
                raise ValueError(
                    f"param {name!r}: values must be a non-empty 1-D "
                    f"sequence, got shape {array.shape}")
            if not np.isfinite(array).all():
                raise ValueError(f"param {name!r}: non-finite value in "
                                 f"the population")
            if n is None:
                n = array.size
            elif array.size != n:
                raise ValueError(
                    f"param {name!r} has {array.size} values but the "
                    f"population has {n} instances")
            self.values[name] = array
        self.n_instances: int = int(n or 0)

    # -- identity ----------------------------------------------------------------

    @property
    def param_names(self):
        """Promoted parameter names, in declaration order."""
        return tuple(self.values)

    def fingerprint(self) -> str:
        """The population *shape*: sorted names + N, never the values.

        Two sweeps with the same fingerprint share one compiled kernel
        — that is the whole point of promoting the parameters instead
        of baking them in.
        """
        return f"params={','.join(sorted(self.values))};" \
               f"n={self.n_instances}"

    def __repr__(self) -> str:
        return (f"PopulationSpec({self.n_instances} instances, "
                f"params={list(self.values)})")

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def from_ranges(cls, model: IonicModel, ranges: Mapping[str, str],
                    absolute: bool = False) -> "PopulationSpec":
        """Build a spec from ``"lo:hi:N"`` range strings.

        By default the endpoints are *scale factors* of the model's
        declared value (``GKr=0.1:1.0:16`` sweeps a 90%→0% IKr block);
        with ``absolute=True`` they are raw parameter values.
        """
        values: Dict[str, np.ndarray] = {}
        n: Optional[int] = None
        for name, text in ranges.items():
            if name not in model.params:
                raise ValueError(
                    f"{name!r} is not a declared .param() of "
                    f"{model.name} (params: "
                    f"{', '.join(sorted(model.params)) or '(none)'})")
            lo, hi, count = parse_range(text)
            if n is None:
                n = count
            elif count != n:
                raise ValueError(
                    f"param {name!r} asks for {count} instances but the "
                    f"population has {n}")
            grid = np.linspace(lo, hi, count)
            values[name] = grid if absolute else grid * model.params[name]
        return cls(values)


def parse_range(text: str):
    """Parse ``"lo:hi:N"`` -> (lo, hi, N).  ``"lo:hi"`` defaults N=16."""
    parts = str(text).split(":")
    if len(parts) not in (2, 3):
        raise ValueError(
            f"range {text!r}: expected lo:hi:N (e.g. 0.1:1.0:16)")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2]) if len(parts) == 3 else 16
    except ValueError:
        raise ValueError(f"range {text!r}: expected numbers in lo:hi:N")
    if count < 1:
        raise ValueError(f"range {text!r}: N must be >= 1")
    return lo, hi, count
