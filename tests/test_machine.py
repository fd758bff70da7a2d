"""Machine-model tests: instrumentation, cost model, roofline."""

import pytest

from repro.codegen import (BackendMode, generate_baseline, generate_icc_simd,
                           generate_limpet_mlir)
from repro.ir.passes import default_pipeline
from repro.machine import (AVX2, AVX512, CASCADE_LAKE, SSE, CostModel,
                           isa_for_width, machine_ceilings, profile_kernel,
                           roofline_point)


def profiled(model, variant="mlir", width=8):
    if variant == "base":
        kernel = generate_baseline(model)
    elif variant == "icc":
        kernel = generate_icc_simd(model, width)
    elif variant == "aos":
        kernel = generate_limpet_mlir(model, width, layout="aos")
    else:
        kernel = generate_limpet_mlir(model, width)
    default_pipeline(verify_each=False).run(kernel.module, fixed_point=True)
    return profile_kernel(kernel.module, kernel.spec.function_name)


class TestInstrumentation:
    def test_width_and_layout_detected(self, gate_model):
        p = profiled(gate_model, "mlir", 8)
        assert p.width == 8
        assert p.layout.startswith("aosoa")
        assert p.parallel

    def test_baseline_width_one(self, gate_model):
        p = profiled(gate_model, "base")
        assert p.width == 1 and p.layout == "aos"

    def test_memory_ops_counted(self, gate_model):
        p = profiled(gate_model, "mlir", 8)
        # 3 states + Vm loaded (the unused Iion load is DCE'd away),
        # 3 states + Iion stored
        assert p.contiguous_loads == 4
        assert p.contiguous_stores == 4

    def test_aos_counts_gathers(self, gate_model):
        p = profiled(gate_model, "aos", 8)
        assert p.gathers == 3 and p.scatters == 3

    def test_lut_columns_split_by_call_kind(self, gate_model):
        vec = profiled(gate_model, "mlir", 8)
        assert vec.lut_calls_vector == 1
        assert vec.lut_columns_vector >= 4
        icc = profiled(gate_model, "icc", 8)
        assert icc.lut_calls_scalar == 8       # one per lane
        assert icc.lut_columns_scalar == icc.lut_calls_scalar * \
            vec.lut_columns_vector

    def test_markov_inner_loop_multiplies_counts(self):
        from repro.frontend import load_model
        model = load_model("""
            diff_p = 0.5*(0.3 - p)*q; q = 2.0 + 0.0*p;
            p_init = 0; p; .method(markov_be);
        """, "BE")
        p = profiled(model, "base")
        # refinement loop runs 3 more evaluations of the diff chain
        assert p.simple_fp > 8

    def test_flops_per_cell_backend_invariant(self, gate_model):
        """Roofline flops must not depend on how the code is generated."""
        f_base = profiled(gate_model, "base").flops_per_cell
        f_vec = profiled(gate_model, "mlir", 8).flops_per_cell
        assert f_vec == pytest.approx(f_base, rel=0.15)

    def test_operational_intensity_positive(self, luo_rudy):
        p = profiled(luo_rudy, "mlir", 8)
        assert 0.05 < p.operational_intensity < 50


class TestCostModel:
    @pytest.fixture(scope="class")
    def cost(self):
        return CostModel()

    def test_vector_cheaper_than_baseline_per_cell(self, luo_rudy, cost):
        base = cost.cycles_per_iteration(profiled(luo_rudy, "base"), AVX512)
        vec = cost.cycles_per_iteration(profiled(luo_rudy, "mlir", 8),
                                        AVX512) / 8
        assert vec < base / 3

    def test_wider_isa_lowers_per_cell_cost(self, luo_rudy, cost):
        per_cell = {}
        for width in (2, 4, 8):
            profile = profiled(luo_rudy, "mlir", width)
            isa = isa_for_width(width)
            per_cell[width] = cost.cycles_per_iteration(profile,
                                                        isa) / width
        assert per_cell[8] < per_cell[4] < per_cell[2]

    def test_icc_between_baseline_and_mlir(self, luo_rudy, cost):
        t = {}
        for variant, mode in (("base", BackendMode.BASELINE),
                              ("icc", BackendMode.ICC_SIMD),
                              ("mlir", BackendMode.LIMPET_MLIR)):
            profile = profiled(luo_rudy, variant, 8)
            t[variant] = cost.total_time(profile, AVX512, 1, 8192, 1000,
                                         mode)
        assert t["mlir"] < t["icc"] < t["base"]

    def test_aos_slower_than_aosoa(self, luo_rudy, cost):
        aos = cost.total_time(profiled(luo_rudy, "aos", 8), AVX512, 1,
                              8192, 1000, BackendMode.LIMPET_MLIR)
        aosoa = cost.total_time(profiled(luo_rudy, "mlir", 8), AVX512, 1,
                                8192, 1000, BackendMode.LIMPET_MLIR)
        assert aosoa < aos

    def test_threads_reduce_time_until_overheads(self, luo_rudy, cost):
        profile = profiled(luo_rudy, "mlir", 8)
        t1 = cost.total_time(profile, AVX512, 1, 8192, 100,
                             BackendMode.LIMPET_MLIR)
        t8 = cost.total_time(profile, AVX512, 8, 8192, 100,
                             BackendMode.LIMPET_MLIR)
        assert t8 < t1

    def test_thread_count_clamped_to_cores(self, luo_rudy, cost):
        profile = profiled(luo_rudy, "mlir", 8)
        t32 = cost.step_time(profile, AVX512, 32, 8192)
        t64 = cost.step_time(profile, AVX512, 64, 8192)
        assert t64.seconds == t32.seconds

    def test_step_time_components(self, luo_rudy, cost):
        profile = profiled(luo_rudy, "mlir", 8)
        point = cost.step_time(profile, AVX512, 32, 8192)
        assert point.seconds >= max(point.compute_seconds,
                                    point.memory_seconds)
        assert point.overhead_seconds > 0

    def test_baseline_has_no_vector_overhead(self, luo_rudy, cost):
        profile = profiled(luo_rudy, "base")
        p_base = cost.step_time(profile, AVX512, 1, 8192,
                                BackendMode.BASELINE)
        assert p_base.overhead_seconds == 0.0

    def test_isa_for_width_rejects_odd_width(self):
        with pytest.raises(ValueError):
            isa_for_width(3)

    def test_machine_bandwidth_saturates(self):
        m = CASCADE_LAKE
        assert m.memory_bandwidth_gbs(32, 1e9) == m.dram_bw_gbs
        assert m.memory_bandwidth_gbs(1, 1e9) < m.dram_bw_gbs

    def test_cache_resident_gets_more_bandwidth(self):
        m = CASCADE_LAKE
        assert m.memory_bandwidth_gbs(32, 1e6) > \
            m.memory_bandwidth_gbs(32, 1e9)

    def test_omp_overhead_grows_with_threads(self):
        m = CASCADE_LAKE
        assert m.omp_overhead_seconds(1) == 0.0
        assert m.omp_overhead_seconds(32) > m.omp_overhead_seconds(2)


class TestRoofline:
    def test_ceilings_match_paper(self):
        c = machine_ceilings()
        assert c.peak_gflops == 760.0
        assert c.dram_bw_gbs == 199.0
        assert c.l1_bw_gbs == 1052.0
        assert c.dram_bw_spec_gbs == 140.8

    def test_ridge_point_near_four(self):
        """§4.5: 'around 4 Flops/Byte'."""
        assert 3.0 < machine_ceilings().ridge_point < 4.5

    def test_attainable_follows_roofline(self):
        c = machine_ceilings()
        assert c.attainable_gflops(0.1) == pytest.approx(19.9)
        assert c.attainable_gflops(100.0) == c.peak_gflops

    def test_point_below_roofline(self, luo_rudy):
        profile = profiled(luo_rudy, "mlir", 8)
        point = roofline_point("LuoRudy91", profile)
        ceilings = machine_ceilings()
        attainable = ceilings.attainable_gflops(
            point.operational_intensity)
        # cache effects may push slightly above the DRAM line (like
        # OHara in the paper) but never above peak
        assert point.gflops <= ceilings.peak_gflops

    def test_format_table(self, luo_rudy):
        profile = profiled(luo_rudy, "mlir", 8)
        from repro.machine import format_roofline_table
        text = format_roofline_table(
            [roofline_point("LuoRudy91", profile, size_class="medium")])
        assert "LuoRudy91" in text and "760" in text
