"""§7 extension — one of the paper's future-work items, implemented.

"An efficient spline interpolation method to replace or complement in
some cases the currently used linear interpolation": the Catmull-Rom
LUT mode, traded against table size and cycle cost.
"""

import numpy as np
import pytest

from repro.codegen import generate_limpet_mlir
from repro.frontend import load_model
from repro.ir.passes import default_pipeline
from repro.machine import AVX512, CostModel, profile_kernel
from repro.models import load_model as load_reg
from repro.runtime.lut_runtime import (build_all_luts, lut_interp_row_vec,
                                       lut_interp_row_spline_vec)

COARSE = """
Vm; .external(); .lookup(-100,100,STEP);
r1 = exp(Vm/25);
r2 = 1/(1+exp(-(Vm+40)/7));
r3 = 0.1 + 2*exp(-square((Vm+40)/30));
diff_x = r1*r2/r3 - x; x_init = 0;
"""


@pytest.mark.figure("sec7-spline")
def test_spline_accuracy_vs_table_size(benchmark):
    """Spline at a 8x coarser step beats linear: the memory trade §7
    is after."""
    def accuracy(step, spline):
        model = load_model(COARSE.replace("STEP", str(step)), "C")
        lut = build_all_luts(model)[0]
        keys = np.linspace(-95, 95, 381) + step / 3.0
        interp = lut_interp_row_spline_vec if spline else \
            lut_interp_row_vec
        approx = interp(lut, keys)[0]
        exact = np.exp(keys / 25)
        return np.abs(approx - exact).max(), lut.memory_bytes()

    rows = benchmark(lambda: {
        ("linear", 0.05): accuracy(0.05, False),
        ("linear", 0.4): accuracy(0.4, False),
        ("spline", 0.4): accuracy(0.4, True),
    })
    print("\n§7 spline vs linear (first column of a 3-column table):")
    for (kind, step), (err, nbytes) in rows.items():
        print(f"  {kind:<7} step {step:<5} max err {err:.2e}  "
              f"table {nbytes / 1024:.0f} KiB")
    err_lin_fine, bytes_lin_fine = rows[("linear", 0.05)]
    err_spline_coarse, bytes_spline_coarse = rows[("spline", 0.4)]
    # spline on the 8x smaller table is at least as accurate as the
    # paper's fine linear table
    assert err_spline_coarse < err_lin_fine * 2.0
    assert bytes_spline_coarse < bytes_lin_fine / 7


@pytest.mark.figure("sec7-spline")
def test_spline_cycle_overhead_bounded(gate_cycles=None):
    """The spline's extra gathers cost < 2.5x the linear interp, far
    less than refining the linear table 8x would cost in cache traffic."""
    cost = CostModel()
    model = load_reg("Courtemanche")
    cycles = {}
    for mode in ("linear", "spline"):
        kernel = generate_limpet_mlir(model, 8, lut_interpolation=mode)
        default_pipeline(verify_each=False).run(kernel.module,
                                                fixed_point=True)
        profile = profile_kernel(kernel.module, kernel.spec.function_name)
        cycles[mode] = cost.cycles_per_iteration(profile, AVX512)
    print(f"\nCourtemanche cycles/iter: linear {cycles['linear']:.0f}, "
          f"spline {cycles['spline']:.0f}")
    assert cycles["linear"] < cycles["spline"] < cycles["linear"] * 2.5
