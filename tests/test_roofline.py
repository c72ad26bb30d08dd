"""Task cost equations and the two ceilings: values pinned by direct
arithmetic on the reference constants."""

import bisect
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roofline_lab import (
    MappingSpec,
    analyze_intensities,
    analyze_mapping,
    energy_roofline,
    task_energy,
    task_latency,
    throughput_roofline,
)
from roofline_lab import report
from roofline_lab.config_io import fixture_path, parse_scenario
from roofline_lab.mapping import AccessProfile
from roofline_lab.roofline import CHORD_TOL_DECADES, REL_TOL
from roofline_lab.svgchart import emit_svg

from conftest import gemm, make_arch, plain_mapping, unroll

# reference per-level intensities: AI_L2 = 16, one-sixteenth at L1,
# sixteen-fold at L3
REF_AI = {1: 1.0, 2: 16.0, 3: 256.0}


@pytest.fixture
def ref_profile():
    return AccessProfile.from_intensities(2048, REF_AI)


@pytest.fixture
def ref_workload():
    return gemm(16, 8, 8)  # N_op = 2048


class TestTaskEnergy:
    def test_reference_point(self, fig3_arch, ref_workload, ref_profile):
        # 2048*0.5 + 2048*0.1 + 128*3 + 8*100 = 2412.8 pJ
        assert task_energy(fig3_arch, ref_workload, ref_profile) == pytest.approx(
            2412.8, rel=1e-12
        )

    def test_zero_traffic_leaves_compute_term(self, fig3_arch, ref_workload):
        from roofline_lab import OperandTraffic

        profile = AccessProfile(
            (1, 2, 3), {(li, "all"): OperandTraffic(0, 0, 0.0, 1) for li in (1, 2, 3)})
        assert task_energy(fig3_arch, ref_workload, profile) == 2048 * 0.5

    def test_memory_term_is_linear_in_traffic(self, fig3_arch, ref_workload,
                                               ref_profile):
        doubled = AccessProfile.from_intensities(
            2048, {li: ai / 2 for li, ai in REF_AI.items()}
        )
        e1 = task_energy(fig3_arch, ref_workload, ref_profile)
        e2 = task_energy(fig3_arch, ref_workload, doubled)
        compute = 2048 * 0.5
        assert e2 - compute == pytest.approx(2 * (e1 - compute), rel=1e-12)


class TestTaskLatency:
    def test_reference_point_is_l1_bound_at_16_cycles(self, fig3_arch,
                                                      ref_workload, ref_profile):
        lat = task_latency(fig3_arch, ref_workload, ref_profile)
        assert lat.cycles == pytest.approx(16.0, rel=1e-12)
        assert lat.limiter == "L1"
        assert lat.seconds == pytest.approx(16e-9, rel=1e-12)

    def test_compute_limited_single_level(self, ref_workload):
        arch = make_arch([(10**9, 0.1)], dims=(("row", 4), ("col", 4)))
        profile = AccessProfile.from_intensities(ref_workload.n_op, {1: 1.0})
        lat = task_latency(arch, ref_workload, profile)
        assert lat.limiter == "compute"
        assert lat.cycles == ref_workload.n_op / 32

    def test_serialized_at_least_overlapped(self, fig3_arch, ref_workload,
                                            ref_profile):
        o = task_latency(fig3_arch, ref_workload, ref_profile)
        s = task_latency(fig3_arch._replace(latency_overlap="serialized"), ref_workload,
                         ref_profile)
        assert s.cycles >= o.cycles
        assert s.cycles == pytest.approx(16 + 4 + 1 + 1, rel=1e-12)


class TestThroughputRoofline:
    def test_reference_knee_and_plateau(self, fig3_arch):
        ratios = {1: 1 / 16, 2: 1.0, 3: 16.0}
        curve = throughput_roofline(fig3_arch, ratios)
        # slopes 8 < 32 < 128: the innermost level limits the whole
        # memory-bound region; knee where 8*ai meets the 2048 plateau
        assert curve.knees == ((256.0, "L1"),)
        assert curve.asymptote == 2048.0
        assert curve.value_at(256.0) == pytest.approx(2048.0, rel=REL_TOL)
        assert curve.bound_at(100.0) == "memory-bound(L1)"
        assert curve.bound_at(1000.0) == "compute-bound"

    def test_single_level_knee_at_aop_over_bandwidth(self):
        arch = make_arch([(32, 0.1)], dims=(("row", 8), ("col", 8)))
        curve = throughput_roofline(arch, {1: 1.0})
        assert curve.knees[0][0] == arch.array.a_op / 32

    def test_unbounded_bandwidth_is_flat(self, fig3_arch):
        ratios = {1: math.inf, 2: math.inf, 3: math.inf}
        curve = throughput_roofline(fig3_arch, ratios)
        assert curve.value_at(0.001) == 2048.0
        assert not curve.knees

    def test_samples_nondecreasing_and_constant_after_knee(self, fig3_arch):
        curve = throughput_roofline(fig3_arch, {1: 1 / 16, 2: 1.0, 3: 16.0})
        values = [v for _, v in curve.samples]
        assert all(b >= a * (1 - REL_TOL) for a, b in zip(values, values[1:]))
        past = [v for ai, v in curve.samples if ai >= 256.0]
        assert all(v == 2048.0 for v in past)

    def test_knee_abscissa_independent_of_clock(self, fig3_arch):
        ratios = {1: 1 / 16, 2: 1.0, 3: 16.0}
        fast = fig3_arch._replace(clock=fig3_arch.clock * 7)
        assert (throughput_roofline(fig3_arch, ratios).knees
                == throughput_roofline(fast, ratios).knees)


class TestEnergyRoofline:
    def test_reference_value_at_ai16(self, fig3_arch):
        curve = energy_roofline(fig3_arch, {1: 1 / 16, 2: 1.0, 3: 16.0})
        expected = 1.0 / (0.5 + 0.1 / 1.0 + 3.0 / 16.0 + 100.0 / 256.0)
        assert curve.value_at(16.0) == pytest.approx(expected, rel=REL_TOL)

    def test_asymptote_is_inverse_op_energy(self, fig3_arch):
        curve = energy_roofline(fig3_arch, {1: 1 / 16, 2: 1.0, 3: 16.0})
        assert curve.asymptote == 2.0
        assert curve.value_at(1e12) == pytest.approx(2.0, rel=1e-9)

    def test_free_memory_is_flat_at_inverse_op_energy(self):
        arch = make_arch([(128, 0.0), (32, 0.0)], e_op=0.5)
        curve = energy_roofline(arch, {1: 1.0, 2: 1.0})
        for ai in (0.01, 1.0, 100.0):
            assert curve.value_at(ai) == 2.0

    def test_samples_strictly_increase(self, fig3_arch):
        curve = energy_roofline(fig3_arch, {1: 1 / 16, 2: 1.0, 3: 16.0})
        values = [v for _, v in curve.samples]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_bend_points_at_energy_ratio(self, fig3_arch):
        curve = energy_roofline(fig3_arch, {1: 1.0, 2: 1.0, 3: 1.0})
        # flat intensity ratios: each level bends at E_Li / E_op
        assert dict((name, ai) for ai, name in curve.knees) == {
            "L1": 0.1 / 0.5, "L2": 3.0 / 0.5, "L3": 100.0 / 0.5
        }


SCENARIOS = ("fig3_ai16", "gemm_2to4", "gemm_dense", "imc256")


def _scenario(name):
    return report.load_scenario(parse_scenario(fixture_path(f"{name}.scenario")))


def _serialized(loaded):
    """The scenario on serialized hardware, as ``--overlap serialized``
    writes it."""
    return loaded._replace(arch=loaded.arch._replace(latency_overlap="serialized"))


class TestSamples:
    """Roofs are closed-form; samples exist only for charts, are built
    on first read, and lie exactly on the roof."""

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_samples_not_built_by_analysis(self, name, monkeypatch):
        results = [report.run_scenario(_scenario(name))]
        evaluate = report._evaluate

        def recording(*args, **kwargs):
            results.append(evaluate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(report, "_evaluate", recording)
        report.run_sweep(_scenario(name), "E_op", [0.25, 0.5])
        for r in results:
            assert "samples" not in vars(r.throughput_curve)
            assert "samples" not in vars(r.energy_curve)

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_samples_after_emit_svg_lie_on_the_roof(self, name, tmp_path):
        r = report.run_scenario(_scenario(name))
        for curve in (r.throughput_curve, r.energy_curve):
            emit_svg([("roof", curve)], [], tmp_path / f"{curve.kind}.svg")
            assert "samples" in vars(curve)
            assert all(v == curve.value_at(ai) for ai, v in curve.samples)

    def test_energy_roof_without_compute_energy(self, tmp_path):
        # no knees and an infinite asymptote: the golden corpus has none
        loaded = report.apply_sweep_value(_scenario("gemm_dense"), "E_op", 0.0)
        r = report.run_scenario(loaded)
        assert r.energy_curve.knees == () and r.energy_curve.asymptote == math.inf
        charts = [(r.throughput_curve, r.point.ops_per_cycle),
                  (r.energy_curve, r.point.attained_efficiency)]
        for curve, attained in charts:
            assert curve.samples == tuple(
                (ai, curve.value_at(ai)) for ai, _ in curve.samples)
            path = tmp_path / f"{curve.kind}.svg"
            emit_svg([("roof", curve)], [("p", r.point.ai_ref, attained)], path)
            root = ET.parse(path).getroot()
            assert root.tag.endswith("svg")
            assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 1

    @pytest.mark.parametrize("ratios", [{1: 1 / 16, 2: 1.0, 3: 16.0},
                                        {1: 1.0, 2: 1.0, 3: 1.0},
                                        {1: math.inf, 2: math.inf, 3: math.inf}])
    def test_samples_grid_spans_whole_decades_around_the_knees(self, fig3_arch,
                                                               ratios):
        for curve in (throughput_roofline(fig3_arch, ratios),
                      energy_roofline(fig3_arch, ratios)):
            ais = [ai for ai, _ in curve.samples]
            for end in (ais[0], ais[-1]):
                assert end == float(f"1e{round(math.log10(end))}")
            knee_ais = [ai for ai, _ in curve.knees] or [1.0]
            assert ais[0] <= min(knee_ais) / 100 < ais[0] * 10
            assert ais[-1] / 10 < max(knee_ais) * 100 <= ais[-1]
            assert_chart_vertices(curve)


def _drawn_at(curve, ai: float) -> float:
    """The chart polyline's value at ``ai``, read off straight log-log
    segments between the vertices."""
    ais = [a for a, _ in curve.samples]
    i = min(max(bisect.bisect_right(ais, ai), 1), len(ais) - 1)
    (a, va), (b, vb) = curve.samples[i - 1], curve.samples[i]
    t = math.log10(ai / a) / math.log10(b / a)
    return 10.0 ** (math.log10(va) + t * math.log10(vb / va))


def _chord_tol(curve) -> float:
    """Decades the drawn polyline may stray from the roof: the
    throughput roof's is exact, the energy roof's is bisected."""
    return 1e-12 if curve.kind == "throughput" else 2 * CHORD_TOL_DECADES


def assert_chart_vertices(curve) -> None:
    """The polyline's geometry: vertices on the roof, increasing x, ends
    on the whole decades two beyond the outer knees (by log10, as the
    chart's axes always placed them), every knee drawn, and every chord
    within ``_chord_tol`` of the roof on a 64-per-decade grid."""
    ais = [ai for ai, _ in curve.samples]
    assert all(v == curve.value_at(ai) for ai, v in curve.samples)
    assert all(b > a for a, b in zip(ais, ais[1:]))
    assert {ai for ai, _ in curve.knees} <= set(ais)
    knee_ais = [ai for ai, _ in curve.knees] or [1.0]
    assert ais[0] == 10.0 ** math.floor(math.log10(min(knee_ais) / 100))
    assert ais[-1] == 10.0 ** math.ceil(math.log10(max(knee_ais) * 100))
    if curve.kind == "throughput":
        assert len(ais) <= 3
    lo, hi = round(math.log10(ais[0])), round(math.log10(ais[-1]))
    for i in range((hi - lo) * 64 + 1):
        ai = 10.0 ** (lo + i / 64)
        assert abs(math.log10(_drawn_at(curve, ai) / curve.value_at(ai))) <= _chord_tol(curve)


class TestDuality:
    @pytest.mark.parametrize("ai2", [0.5, 4.0, 16.0, 300.0, 5000.0])
    def test_throughput_ceiling_equals_nop_over_latency(self, fig3_arch,
                                                        ref_workload, ai2):
        ai = {1: ai2 / 16, 2: ai2, 3: ai2 * 16}
        r = analyze_intensities(fig3_arch, ref_workload, ai, ref_level=2)
        assert r.throughput_curve.value_at(r.point.ai_ref) == pytest.approx(
            ref_workload.n_op / r.latency.cycles, rel=REL_TOL
        )


class TestRegimeDivergence:
    def test_compute_bound_throughput_with_memory_dominated_energy(self):
        # pinned regression scenario: reference energies, outer
        # bandwidth raised to 32 B/cycle, flat per-level intensities.
        # At AI 100 the throughput roof is already the compute plateau
        # (knee 2048/32 = 64) while memory still burns 103.1/100 pJ/op,
        # more than double the 0.5 pJ/op compute term.
        arch = make_arch(
            [(128, 0.1), (32, 3.0), (32, 100.0)],
            dims=(("row", 32), ("col", 32)),
        )
        ratios = {1: 1.0, 2: 1.0, 3: 1.0}
        tp = throughput_roofline(arch, ratios)
        en = energy_roofline(arch, ratios)
        ai = 100.0
        assert tp.bound_at(ai) == "compute-bound"
        assert en.memory_share(ai) > arch.array.energy_per_op
        assert en.bound_at(ai).startswith("memory-bound")
        # and the divergence closes once AI clears the last energy bend
        assert en.bound_at(1000.0) == "compute-bound"


class TestOperatingPoint:
    def test_perfect_fit_lands_on_the_roofline(self):
        arch = make_arch(
            [(1024, 0.1), (256, 1.0)], dims=(("row", 8), ("col", 8))
        )
        wl = gemm(64, 8, 8)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 8), unroll("col", "K", 8)),
            temporal=((("B", 8),), (("B", 8),)),
        )
        point = analyze_mapping(arch, wl, mapping).point
        assert point.ops_per_cycle == pytest.approx(
            point.throughput_ceiling, rel=1e-9
        )

    def test_serialized_mode_falls_below_roofline(self):
        arch = make_arch(
            [(64, 0.1), (16, 1.0)], dims=(("row", 8), ("col", 8)),
            overlap="serialized",
        )
        wl = gemm(64, 8, 8)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 8), unroll("col", "K", 8)),
            temporal=((("B", 8),), (("B", 8),)),
        )
        point = analyze_mapping(arch, wl, mapping).point
        assert point.ops_per_cycle < point.throughput_ceiling * (1 - 1e-9)

    def test_half_filled_array_attains_half_the_ceiling(self):
        # the IMC geometry with reloads double buffered: the only loss
        # left is the half-empty column axis
        arch = make_arch(
            [(4096, 0.05), (1024, 1.0)], dims=(("row", 256), ("col", 256)),
            e_op=0.0125,
        )
        wl = gemm(1024, 256, 128)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 256), unroll("col", "K", 128)),
            temporal=((("B", 1024),),),
            pinned_operand="W",
            reload_cycles_per_tile=None,  # overlapped reload
        )
        point = analyze_mapping(arch, wl, mapping).point
        assert point.ops_per_cycle == 0.5 * point.throughput_ceiling

    def test_core_split_compute_bound_point_sits_on_the_cores_plateau(self):
        r = _core_split_result("cs-compute")
        a_op = r.arch.array.a_op
        assert r.throughput_curve.asymptote == 2 * a_op
        assert r.point.throughput_ceiling == 2 * a_op
        assert r.point.ops_per_cycle == pytest.approx(2 * a_op, rel=REL_TOL)
        assert r.point.throughput_bound == "compute-bound"

    def test_attained_never_exceeds_ceiling(self, fig3_arch):
        wl = gemm(16, 8, 8)
        mapping = plain_mapping(
            [[("C", 2), ("B", 4)], [("B", 4)], []],
            spatial=[unroll("row", "C", 4), unroll("col", "K", 8)],
        )
        point = analyze_mapping(fig3_arch, wl, mapping).point
        assert point.ops_per_cycle <= point.throughput_ceiling * (1 + 1e-9)
        assert point.attained_efficiency <= point.efficiency_ceiling * (1 + 1e-9)


# Core-split mappings of gemm 64x32x32 on an 8x8 array with two cores:
# (arch levels as (B/cycle, pJ/B), temporal loops per level, split dim).
CORE_SPLITS = {
    "cs-l1-narrow": ([(16, 0.1), (64, 2.0), (32, 50.0)],
                     [[("C", 4), ("B", 8)], [("K", 4), ("B", 4)], []], "B"),
    "cs-compute": ([(4096, 0.1), (2048, 2.0), (1024, 50.0)],
                   [[("B", 16), ("C", 4)], [("K", 2)], [("B", 4)]], "K"),
    "cs-l3-narrow": ([(256, 0.1), (64, 2.0), (2, 50.0)],
                     [[("C", 4)], [("B", 16)], [("K", 2), ("B", 4)]], "K"),
}


def _core_split_result(name, overlap="overlapped"):
    levels, nest, split = CORE_SPLITS[name]
    arch = make_arch(levels, dims=(("row", 8), ("col", 8)), overlap=overlap)
    mapping = plain_mapping(nest, spatial=[unroll("row", "C", 8), unroll("col", "K", 8)],
                            cores=2, core_split=(split, 2))
    return analyze_mapping(arch, gemm(64, 32, 32), mapping, label=name)


def _swept(name, param, value):
    return report.run_scenario(report.apply_sweep_value(_scenario(name), param, value))


def _pinned_with_reloads():
    loaded = _scenario("gemm_dense")
    return loaded._replace(
        mapping=loaded.mapping._replace(pinned_operand="W", reload_cycles_per_tile=3))


CASES = {
    **{n: (lambda n=n: report.run_scenario(_scenario(n))) for n in SCENARIOS},
    **{f"{n}-serialized": (lambda n=n: report.run_scenario(_serialized(_scenario(n))))
       for n in SCENARIOS},
    **{n: (lambda n=n: _core_split_result(n)) for n in CORE_SPLITS},
    **{f"{n}-serialized": (lambda n=n: _core_split_result(n, "serialized"))
       for n in CORE_SPLITS},
    "gemm_dense-A_op-32": lambda: _swept("gemm_dense", "A_op", 32.0),
    "gemm_dense-A_op-96": lambda: _swept("gemm_dense", "A_op", 96.0),
    "gemm_dense-12-bit": lambda: _swept("gemm_dense", "precision", 12),
    "gemm_dense-16-bit": lambda: _swept("gemm_dense", "precision", 16),
    "gemm_2to4-A_op-32": lambda: _swept("gemm_2to4", "A_op", 32.0),
    "pinned-reloads": lambda: report.run_scenario(_pinned_with_reloads()),
    "pinned-reloads-serialized":
        lambda: report.run_scenario(_serialized(_pinned_with_reloads())),
}


class TestOneLatencyModel:
    """L_task, the attained point, the temporal utilization and the
    drawn roof all come from one latency term list, so they agree."""

    @pytest.mark.parametrize("case", CASES)
    def test_report_agrees_with_itself(self, case):
        r = CASES[case]()
        lat, p, curve = r.latency, r.point, r.throughput_curve
        assert lat.cycles * p.ops_per_cycle == pytest.approx(r.effective_ops, rel=1e-12)
        assert p.ops_per_cycle <= curve.value_at(p.ai_ref) * (1 + REL_TOL)
        assert p.throughput_ceiling == curve.value_at(p.ai_ref)
        assert p.throughput_bound == curve.bound_at(p.ai_ref)
        limiting = max(c for name, c in lat.terms if name != "reload")
        assert dict(lat.terms)[lat.limiter] == limiting
        assert r.utilization.temporal == pytest.approx(limiting / lat.cycles, rel=1e-12)
        assert r.arch.latency_overlap == (
            "serialized" if case.endswith("serialized") else "overlapped")
        assert p.ai_ref == r.ai[p.ref_level]

    def test_serialized_gemm_dense_temporal_utilization(self):
        r = report.run_scenario(_serialized(_scenario("gemm_dense")))
        # L3 limits at 40 cycles of 32 compute + 13 + 10 + 40 transfer
        assert r.latency.cycles == 95
        assert f"{r.utilization.temporal:.10g}" == "0.4210526316"

    def test_unmapped_latency_keeps_the_ideal_numbers(self, fig3_arch, ref_workload,
                                                      ref_profile):
        lat = task_latency(fig3_arch, ref_workload, ref_profile)
        assert lat.terms == (("L1", 16.0), ("L2", 4.0), ("L3", 1.0), ("compute", 1.0))

    def test_reloads_add_to_the_mapped_latency(self):
        # imc256: 1024 compute steps plus one 256-row weight load
        r = report.run_scenario(_scenario("imc256"))
        assert r.latency.cycles == 1280
        assert r.latency.limiter == "compute"
        assert dict(r.latency.terms)["reload"] == 256


@st.composite
def roofs(draw):
    """An arbitrary architecture's two roofs over 1-4 levels, with
    unbounded AI ratios and free levels or free compute among them."""
    n = draw(st.integers(1, 4))
    magnitude = st.floats(-3, 3).map(lambda e: 10.0 ** e)
    energy = st.one_of(st.just(0.0), magnitude)
    levels = [(draw(magnitude), draw(energy)) for _ in range(n)]
    e_op = draw(energy)
    ratios = {li: draw(st.one_of(st.just(math.inf), magnitude)) for li in range(1, n + 1)}
    assume(e_op > 0 or any(e > 0 and math.isfinite(ratios[li])
                           for li, (_, e) in enumerate(levels, 1)))
    dims = (("row", draw(st.integers(1, 64))), ("col", draw(st.integers(1, 64))))
    arch = make_arch(levels, dims=dims, e_op=e_op)
    return arch, throughput_roofline(arch, ratios), energy_roofline(arch, ratios)


def _named(arch, *names):
    return arch._replace(levels=tuple(
        lvl._replace(name=name) for lvl, name in zip(arch.levels, names)))


class TestBoundLabels:
    """Knee and bound labels name a level of the architecture; on a tie
    the level nearer the array wins.  The nearer level's name sorts
    last here, so neither name order nor dict order alone can pass."""

    def test_tied_slopes_name_the_nearer_level(self):
        arch = _named(make_arch([(32, 0.1), (32, 1.0)]), "Z", "A")
        curve = throughput_roofline(arch, {1: 1.0, 2: 1.0})
        assert curve.knees == ((arch.array.a_op / 32, "Z"),)
        assert curve.bound_at(0.01) == "memory-bound(Z)"

    def test_tied_energy_terms_name_the_nearer_level(self):
        arch = _named(make_arch([(128, 1.0), (32, 1.0)]), "Z", "A")
        curve = energy_roofline(arch, {1: 1.0, 2: 1.0})
        assert curve.bound_at(1.0) == "memory-bound(Z)"

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(roofs())
    def test_generated_labels_name_a_level(self, case):
        arch, *pair = case
        names = {lvl.name for lvl in arch.levels}
        for curve in pair:
            assert {label for _, label in curve.knees} <= names
            for ai, _ in curve.samples:
                bound = curve.bound_at(ai)
                assert bound == "compute-bound" or (
                    bound.startswith("memory-bound(") and bound.endswith(")")
                    and bound[len("memory-bound("):-1] in names), bound


class TestChartVertices:
    """The chart polyline is built from each roof's closed form: exact
    ends and knee for the throughput roof, log-log bisection for the
    energy roof."""

    @pytest.mark.parametrize("case", CASES)
    def test_shipped_roofs_and_the_point_on_them(self, case):
        r = CASES[case]()
        p = r.point
        for curve, ceiling in ((r.throughput_curve, p.throughput_ceiling),
                               (r.energy_curve, p.efficiency_ceiling)):
            assert_chart_vertices(curve)
            assert abs(math.log10(_drawn_at(curve, p.ai_ref) / ceiling)) <= _chord_tol(curve)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(roofs())
    def test_generated_roofs(self, case):
        for curve in case[1:]:
            assert_chart_vertices(curve)
