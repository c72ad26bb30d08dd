"""Quantization, sparsity, in-memory-compute and Amdahl transforms."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roofline_lab import (
    OUTPUT,
    ComputeArray,
    ImcMacro,
    QuantConfig,
    SparsityConfig,
    UnsupportedConfigError,
    amdahl_bound,
    apply_imc,
    apply_quantization,
    analyze_mapping,
    apply_sparsity,
    imc_dynamic_range,
    imc_mapping_tradeoff,
    task_latency,
)
from roofline_lab.analysis import scenario_traffic
from roofline_lab.config_io import fixture_path, parse_scenario
from roofline_lab.report import load_scenario
from roofline_lab.transforms import (
    SparsityConfigError,
    quantized_bytes_per_element,
)

from conftest import gemm, plain_mapping, unroll


@pytest.fixture
def setup(fig3_arch):
    wl = gemm(16, 8, 8)
    mapping = plain_mapping(
        [[("C", 2), ("B", 4)], [("B", 4)], []],
        spatial=[unroll("row", "C", 4), unroll("col", "K", 8)],
    )
    return fig3_arch, wl, mapping


class TestQuantization:
    def test_halving_weight_bits_doubles_peak_and_weight_traffic(self, setup):
        arch, wl, mapping = setup
        q = QuantConfig(precision_bits={"W": 4})
        arch2, wl2 = apply_quantization(arch, wl, q)
        assert arch2.array.a_op == 2 * arch.array.a_op
        assert wl2.operand("W").bytes_per_element == 0.5
        assert wl2.operand("I").bytes_per_element == 1.0

    def test_halving_everything_doubles_ai_everywhere(self, setup):
        arch, wl, mapping = setup
        q = QuantConfig(precision_bits={"W": 4, "I": 4, "O": 4})
        arch2, wl2 = apply_quantization(arch, wl, q)
        ai1 = analyze_mapping(arch, wl, mapping).ai
        ai2 = analyze_mapping(arch2, wl2, mapping).ai
        for li in ai1:
            assert ai2[li] == 2 * ai1[li]

    def test_superlinear_energy_scaling(self, setup):
        arch, wl, _ = setup
        q = QuantConfig(precision_bits={"W": 4}, compute_scaling_exponent=1.5)
        arch2, _ = apply_quantization(arch, wl, q)
        assert arch2.array.energy_per_op == pytest.approx(
            0.5 * (4 / 8) ** 1.5, rel=1e-12
        )

    def test_block_format_bytes_per_element(self):
        # 32-element blocks sharing one 8-bit exponent on 4-bit data
        assert quantized_bytes_per_element(4, 32, 8) == 0.53125

    def test_bit_serial_cycles_scale_with_weight_width(self, setup):
        arch, wl, _ = setup
        a8, _ = apply_quantization(
            arch, wl, QuantConfig(precision_bits={"W": 8},
                                  throughput_scaling_mode="bit-serial-weights")
        )
        a2, _ = apply_quantization(
            arch, wl, QuantConfig(precision_bits={"W": 2},
                                  throughput_scaling_mode="bit-serial-weights")
        )
        # cycles scale as 1 / peak throughput for a fixed op count
        assert a2.array.a_op / a8.array.a_op == 4.0
        assert a8.array.energy_per_op / a2.array.energy_per_op == 4.0

    def test_bit_serial_overhead_softens_energy_scaling(self, setup):
        arch, wl, _ = setup
        mk = lambda bits: QuantConfig(
            precision_bits={"W": bits},
            throughput_scaling_mode="bit-serial-weights",
            bit_serial_fixed_overhead=2.0,
        )
        a8, _ = apply_quantization(arch, wl, mk(8))
        a2, _ = apply_quantization(arch, wl, mk(2))
        assert a8.array.energy_per_op / a2.array.energy_per_op < 4.0

    def test_bit_serial_rejects_narrow_activations(self, setup):
        arch, wl, _ = setup
        q = QuantConfig(precision_bits={"W": 4, "I": 4},
                        throughput_scaling_mode="bit-serial-weights")
        with pytest.raises(UnsupportedConfigError):
            apply_quantization(arch, wl, q)


class TestSparsity:
    def test_dense_recovery_identity(self, setup):
        arch, wl, _ = setup
        cfg = SparsityConfig(mode="unstructured",
                             density={"W": 1.0, "I": 1.0},
                             index_bits=0, utilization_penalty=1.0)
        model = apply_sparsity(wl, cfg)
        assert model.effective_ops == float(wl.n_op)
        assert all(s == 1.0 for s in model.byte_scale.values())
        assert model.bandwidth_penalty == 1.0

    def test_2_of_4_structured_weight_traffic_ratio(self, setup):
        arch, wl, _ = setup
        cfg = SparsityConfig(mode="structured-NM", density={"W": 0.5},
                             n=2, m=4)
        model = apply_sparsity(wl, cfg)
        # per 4-element block: 2 data bytes + 2 * 2 metadata bits
        assert model.byte_scale["W"] == 0.625
        assert model.effective_ops == 0.5 * wl.n_op

    def test_intersection_op_count(self, setup):
        arch, wl, _ = setup
        cfg = SparsityConfig(mode="unstructured",
                             density={"W": 0.5, "I": 0.25})
        assert apply_sparsity(wl, cfg).effective_ops == wl.n_op * 0.5 * 0.25

    def test_structured_density_mismatch_is_config_error(self, setup):
        arch, wl, _ = setup
        cfg = SparsityConfig(mode="structured-NM", density={"W": 0.3},
                             n=2, m=4)
        with pytest.raises(SparsityConfigError):
            apply_sparsity(wl, cfg)

    def test_sparse_operand_traffic_ratio_condition(self, setup):
        # the compressed stream beats the dense one exactly when the
        # index overhead stays below the skipped-zero saving:
        # d * (b + x) < b  <=>  x/b < (1 - d)/d
        arch, wl, _ = setup
        b = 8
        for d, x in [(0.5, 4), (0.5, 8), (0.5, 12), (0.1, 64), (0.9, 1)]:
            cfg = SparsityConfig(mode="unstructured", density={"W": d},
                                 index_bits=x)
            model = apply_sparsity(wl, cfg)
            saves = x / b < (1 - d) / d
            assert (model.byte_scale["W"] < 1.0) == saves, (d, x)

    def test_effective_ai_never_exceeds_dense_ai_with_indices(self, setup):
        # ops shrink by d, sparse bytes by d*(b+x)/b >= d: intensity can
        # only drop once indices cost anything
        arch, wl, mapping = setup
        dense = analyze_mapping(arch, wl, mapping)
        profile, dense_ai = dense.profile, dense.ai
        cfg = SparsityConfig(mode="unstructured", density={"W": 0.25},
                             index_bits=16)
        model = apply_sparsity(wl, cfg)
        sparse = profile.scaled(model.byte_scale)
        for li in dense_ai:
            assert model.effective_ops / sparse.n_bytes[li] < dense_ai[li]


class TestImc:
    def test_dynamic_range_binary_256_rows(self):
        dr = imc_dynamic_range(ImcMacro(rows=256, cols=256,
                                        input_bits=1, weight_bits=1))
        assert dr.levels == 768 and dr.output_bits == 10

    def test_dynamic_range_minimal(self):
        dr = imc_dynamic_range(ImcMacro(rows=1, cols=1,
                                        input_bits=1, weight_bits=1))
        assert dr.levels == 3 and dr.output_bits == 2

    def test_dynamic_range_4b_operands_1024_rows(self):
        dr = imc_dynamic_range(ImcMacro(rows=1024, cols=1,
                                        input_bits=4, weight_bits=4))
        assert dr.levels == 31744 and dr.output_bits == 15

    def test_levels_monotone_in_each_parameter(self):
        base = ImcMacro(rows=64, cols=1, input_bits=2, weight_bits=3)
        levels = imc_dynamic_range(base).levels
        assert imc_dynamic_range(base._replace(rows=65)).levels > levels
        assert imc_dynamic_range(base._replace(input_bits=3)).levels > levels
        assert imc_dynamic_range(base._replace(weight_bits=4)).levels > levels

    @staticmethod
    def _apply_imc_keeping_the_rest(arch, mapping, m):
        """``apply_imc``, checking that it changes only the array, the
        pinned operand and the reload cost."""
        arch2, mapping2 = apply_imc(arch, mapping, m)
        assert (arch2.levels, arch2.clock, arch2.latency_overlap) == (
            arch.levels, arch.clock, arch.latency_overlap)
        assert (mapping2.spatial, mapping2.temporal) == (mapping.spatial, mapping.temporal)
        assert arch2.array.dims == (("row", m.rows), ("col", m.cols))
        return arch2, mapping2

    def test_macro_bundle_reload_cost_and_adc_energy(self, setup):
        arch, _, mapping = setup
        m = ImcMacro(rows=256, cols=256, energy_per_op=0.01, adc_overhead=0.25)
        arch2, mapping2 = self._apply_imc_keeping_the_rest(arch, mapping, m)
        assert mapping2.reload_cycles_per_tile == 256
        assert arch2.array.energy_per_op == 0.01 * 1.25
        assert mapping2.pinned_operand == "W"

    def test_overlapped_reload_removes_the_stall(self, setup):
        arch, _, mapping = setup
        m = ImcMacro(rows=256, cols=256, reload_overlapped=True)
        _, mapping2 = self._apply_imc_keeping_the_rest(arch, mapping, m)
        assert mapping2.reload_cycles_per_tile is None

    def test_storage_vs_compute_tradeoff_two_layers(self):
        t = imc_mapping_tradeoff([(1000, 1.0), (1000, 16.0)])
        assert t.storage_optimal_compute_utilization == 0.53125
        assert t.compute_optimal_replication == (1.0, 16.0)
        assert t.compute_optimal_storage_utilization == 2 / 17

    def test_uniform_reuse_keeps_both_utilizations_at_one(self):
        t = imc_mapping_tradeoff([(512, 8.0), (2048, 8.0), (64, 8.0)])
        assert t.storage_optimal_compute_utilization == 1.0
        assert t.compute_optimal_storage_utilization == 1.0
        assert set(t.compute_optimal_replication) == {1.0}

    def test_single_layer_has_no_conflict(self):
        t = imc_mapping_tradeoff([(4096, 3.0)])
        assert t.storage_optimal_compute_utilization == 1.0
        assert t.compute_optimal_storage_utilization == 1.0

    def test_tradeoff_duality(self):
        # storage-optimal utilization hits 1 exactly when no replication
        # is needed, i.e. uniform ops per weight
        cases = [
            [(10, 2.0), (20, 2.0)],
            [(10, 2.0), (20, 4.0)],
            [(5, 1.0), (5, 1.0), (5, 1.0)],
        ]
        for layers in cases:
            t = imc_mapping_tradeoff(layers)
            uniform = t.storage_optimal_compute_utilization == 1.0
            no_replication = all(r == 1.0 for r in t.compute_optimal_replication)
            assert uniform == no_replication


class TestAmdahl:
    @pytest.mark.parametrize("f,expected", [(0.5, 2.0), (1.0, 1.0), (0.01, 100.0)])
    def test_bound(self, f, expected):
        assert amdahl_bound(f) == expected

    @pytest.mark.parametrize("f", [0.0, -0.5, 1.5])
    def test_domain(self, f):
        with pytest.raises(ValueError):
            amdahl_bound(f)


PASSES = (
    *(QuantConfig(precision_bits={"W": bits}) for bits in (2, 4, 16)),
    *(SparsityConfig(mode="unstructured", density={"W": d}, utilization_penalty=p)
      for d in (0.25, 0.5) for p in (1.0, 0.5)),
    ImcMacro(rows=32, cols=32),
)


class TestOneIdentityPerPassKind:
    """Appending one pass to a chain over gemm_dense.scenario moves the
    traffic stage's result only as that pass kind states.  Densities,
    widths and penalties are powers of two or small dyadic rationals,
    so every identity holds exactly."""

    @staticmethod
    def _check_quantization(before, after, t):
        # events, elements and access factor stay; only the widths move
        assert {key: entry._replace(bytes_per_element=0.0)
                for key, entry in after.profile.traffic.items()} == {
            key: entry._replace(bytes_per_element=0.0)
            for key, entry in before.profile.traffic.items()}
        assert (after.effective_ops, after.bandwidth_penalty) == (
            before.effective_ops, before.bandwidth_penalty)

    @staticmethod
    def _check_sparsity(before, after, t):
        wl = before.workload
        densities = math.prod(t.density.get(op.name, 1.0) for op in wl.operands
                              if op.role != OUTPUT)
        assert after.effective_ops == before.effective_ops * densities
        assert after.bandwidth_penalty == before.bandwidth_penalty * t.utilization_penalty
        byte_scale = apply_sparsity(wl, t).byte_scale
        assert after.profile.traffic == {
            key: entry._replace(
                bytes_per_element=entry.bytes_per_element * byte_scale.get(key[1], 1.0))
            for key, entry in before.profile.traffic.items()}

    @staticmethod
    def _check_imc(before, after, t):
        w = after.profile.traffic[(1, "W")]
        assert w.bytes == 0.0
        assert after.arch.array == ComputeArray(
            (("row", t.rows), ("col", t.cols)), t.energy_per_op * (1.0 + t.adc_overhead))
        latency = task_latency(after.arch, after.workload, after.profile, after.mapping,
                               after.bandwidth_penalty)
        assert dict(latency.terms)["reload"] == w.events * math.ceil(
            t.rows / t.weight_write_rows_per_cycle)

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(PASSES), min_size=1, max_size=3))
    def test_appending_a_pass_moves_only_what_it_states(self, chain):
        start = load_scenario(parse_scenario(fixture_path("gemm_dense.scenario")))
        check = {QuantConfig: self._check_quantization, SparsityConfig: self._check_sparsity,
                 ImcMacro: self._check_imc}
        applied: tuple = ()
        before = scenario_traffic(start)
        for t in chain:
            loaded = start._replace(transforms=applied + (t,))
            if isinstance(t, ImcMacro) and before.arch.array != start.arch.array:
                # a quantization or a first macro changed the array the macro replaces
                with pytest.raises(ValueError, match=(
                        rf"^transforms\[{len(applied)}\] \(imc\) would replace the array "
                        r"transforms\[\d\] \((quantization|imc)\) changed")):
                    scenario_traffic(loaded)
                continue
            after = scenario_traffic(loaded)
            check[type(t)](before, after, t)
            applied, before = loaded.transforms, after
