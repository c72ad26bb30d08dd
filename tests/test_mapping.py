"""Reuse analysis semantics: stationarity, fetch counts, intensity,
utilization.  Expected counts are hand-traced or oracle-verified."""

import math

import pytest
from hypothesis import given, settings

from roofline_lab import (
    InvalidMappingError,
    MappingSpec,
    analyze_mapping,
    count_accesses,
    derive_stationarity,
    enumerate_accesses,
    utilization,
)
from roofline_lab.config_io import fixture_path, parse_scenario
from roofline_lab.mapping import output_bytes_per_element, spatial_utilization, temporal_steps
from roofline_lab.model import OUTPUT, tile_elements, tile_extents
from roofline_lab.report import load_scenario, scenario_traffic

from conftest import conv7, gemm, make_arch, plain_mapping, unroll
from test_oracle import (
    all_trip_one_fixture,
    nests,
    no_moving_loop_fixture,
    single_level,
    trip_one_fixture,
)


def single_level_arch(**kw):
    return make_arch([(64, 0.1)], **kw)


class TestStationarity:
    def test_weight_stationary_when_batch_is_innermost(self):
        # row-parallel core: C and K spatial, b temporal; w[c][k] does not
        # depend on b, so the weights stay resident
        wl = gemm(16, 8, 8)
        mapping = plain_mapping(
            [[("B", 16)]],
            spatial=[unroll("row", "C", 8), unroll("col", "K", 8)],
        )
        assert derive_stationarity(wl, mapping) == {1: "W"}

    def test_output_stationary_when_contraction_is_innermost(self):
        wl = gemm(4, 8, 8)
        mapping = plain_mapping(
            [[("C", 8), ("B", 4)], [("K", 8)]],
        )
        st = derive_stationarity(wl, mapping)
        assert st[1] == "O"

    def test_at_most_one_operand_rests_per_level(self):
        # two operands can never both stay constant across the same
        # innermost loop here: every GEMM dim indexes two of the three
        import itertools

        wl = gemm(4, 4, 4)
        for order in itertools.permutations(["B", "C", "K"]):
            mapping = plain_mapping([[(d, 4) for d in order]])
            st = derive_stationarity(wl, mapping)
            assert all(v is None or isinstance(v, str) for v in st.values())
            inner = order[0]
            expected = [
                op.name for op in wl.operands if inner not in op.relevant_dims
            ]
            assert st[1] == expected[0] and len(expected) == 1

    def test_no_stationarity_when_innermost_indexes_everything(self):
        wl = gemm(4, 2, 2)
        wl = wl.__class__(
            name=wl.name,
            dims=wl.dims,
            operands=tuple(
                op.__class__(op.name, op.role, ("B", "C", "K"))
                for op in wl.operands
            ),
        )
        mapping = plain_mapping([[("B", 4), ("C", 2), ("K", 2)]])
        assert derive_stationarity(wl, mapping) == {1: None}


class TestFetchCounts:
    def test_hand_traced_2x2x2_gemm(self):
        # order b, k, c with c innermost; hand trace of the 8-step nest:
        # (k,c) changes every step -> W 8; (b,c) likewise -> I 8;
        # (b,k) changes on half the steps -> O 4, written once each
        # since the contraction completes inside the k loop
        arch = single_level_arch()
        wl = gemm(2, 2, 2)
        mapping = plain_mapping([[("C", 2), ("K", 2), ("B", 2)]])
        profile = count_accesses(arch, wl, mapping)
        assert profile.traffic[(1, "W")].events == 8
        assert profile.traffic[(1, "I")].events == 8
        assert profile.traffic[(1, "O")].events == 4
        assert profile.traffic[(1, "O")].access_factor == 1  # write-only
        trace = enumerate_accesses(arch, wl, mapping)
        for name in ("W", "I", "O"):
            assert trace.events[(1, name)] == profile.traffic[(1, name)].events

    def test_imc_style_spatial_tile_with_temporal_batch(self):
        # 256x256 array, C on rows, K on cols, b loop of 16 at L1:
        # inputs stream one row-vector per cycle, outputs one column
        # vector at accumulator width, the weight tile loads once
        arch = make_arch([(65536, 0.1)], dims=(("row", 256), ("col", 256)))
        wl = gemm(16, 256, 256)
        mapping = plain_mapping(
            [[("B", 16)]],
            spatial=[unroll("row", "C", 256), unroll("col", "K", 256)],
        )
        profile = count_accesses(arch, wl, mapping)
        cycles = temporal_steps(arch, mapping)
        assert cycles == 16
        i_traffic = profile.traffic[(1, "I")]
        assert i_traffic.events == 16 and i_traffic.elements_per_event == 256
        assert i_traffic.bytes / cycles == 256.0  # bytes/cycle at 8 bit
        o_traffic = profile.traffic[(1, "O")]
        acc_bytes = wl.operand("O").accum_bytes_per_element
        assert o_traffic.bytes / cycles == 256 * acc_bytes
        assert o_traffic.access_factor == 1
        w_traffic = profile.traffic[(1, "W")]
        assert w_traffic.events == 1  # regardless of the b trip count

    def test_fully_spatial_operand_fetches_once(self):
        arch = make_arch([(64, 0.1)], dims=(("row", 4), ("col", 4)))
        wl = gemm(8, 4, 4)
        mapping = plain_mapping(
            [[("B", 8)]],
            spatial=[unroll("row", "C", 4), unroll("col", "K", 4)],
        )
        profile = count_accesses(arch, wl, mapping)
        assert profile.traffic[(1, "W")].events == 1
        assert profile.traffic[(1, "W")].elements_per_event == 16

    def test_partial_sum_bounce_counts_read_plus_write(self):
        # contraction tiled above the output loop: each output tile is
        # revisited, so inner-boundary events pay read+write at the
        # accumulator width
        arch = make_arch([(64, 0.1), (16, 1.0)])
        wl = gemm(1, 8, 8)
        mapping = plain_mapping([[("K", 8), ("C", 2)], [("C", 4)]])
        profile = count_accesses(arch, wl, mapping)
        o1 = profile.traffic[(1, "O")]
        assert o1.access_factor == 2
        assert o1.bytes_per_element == wl.operand("O").accum_bytes_per_element
        trace = enumerate_accesses(arch, wl, mapping)
        assert trace.revisited[(1, "O")]
        assert trace.events[(1, "O")] == o1.events
        assert trace.bytes[(1, "O")] == o1.bytes

    def test_invalid_mapping_is_rejected(self):
        arch = single_level_arch()
        wl = gemm(2, 2, 2)
        bad = plain_mapping([[("B", 2), ("C", 2)]])  # K missing
        with pytest.raises(InvalidMappingError):
            count_accesses(arch, wl, bad)


class TestArithmeticIntensity:
    def test_plain_division(self):
        arch = single_level_arch()
        wl = gemm(4, 4, 4)  # N_op = 128
        mapping = plain_mapping(
            [[("B", 4)]],
            spatial=[unroll("row", "C", 4), unroll("col", "K", 4)],
        )
        arch = make_arch([(64, 0.1)], dims=(("row", 4), ("col", 4)))
        r = analyze_mapping(arch, wl, mapping)
        assert r.ai[1] == wl.n_op / r.profile.n_bytes[1]

    def test_weight_bound_fc_batch1_ai_is_flat(self):
        # fully connected, batch 1: weights index every loop dim, so no
        # level can reuse them; above the register boundary the byte
        # count is pinned at the weight volume and the intensity goes
        # flat (and low), unlike the conv case below
        from roofline_lab import LoopDim, OperandSpec, WorkloadSpec

        wl = WorkloadSpec(
            name="fc64",
            dims=(LoopDim("C", 64), LoopDim("K", 64)),
            operands=(
                OperandSpec("W", "input", ("C", "K")),
                OperandSpec("I", "input", ("C",)),
                OperandSpec("O", "output", ("K",)),
            ),
        )
        arch = make_arch([(64, 0.1), (16, 1.0), (4, 10.0)])
        mapping = plain_mapping([[("C", 64)], [("K", 64)], []])
        ai = analyze_mapping(arch, wl, mapping).ai
        assert ai[2] == ai[3]  # weight volume pins both upper levels
        assert max(ai.values()) / min(ai.values()) < 2.1
        assert max(ai.values()) < 2.0  # low AI throughout

    def test_conv_ai_increases_up_the_hierarchy(self):
        # staggered reuse: weights tile at L1 via an inner batch chunk,
        # outputs finish inside L2, inputs reuse nothing (K is spatial)
        wl = conv7(b=4, k=16, c=16, oy=8, ox=8, fy=3, fx=3)
        arch = make_arch(
            [(256, 0.1), (64, 1.0), (16, 10.0)],
            dims=(("row", 16), ("col", 16)),
        )
        mapping = plain_mapping(
            [
                [("FX", 3), ("B", 2)],
                [("FY", 3), ("OX", 8)],
                [("OY", 8), ("B", 2)],
            ],
            spatial=[unroll("row", "K", 16), unroll("col", "C", 16)],
        )
        ai = analyze_mapping(arch, wl, mapping).ai
        assert ai[3] > ai[2] > ai[1]

    def test_conv_counts_match_oracle_on_small_instance(self):
        wl = conv7(b=2, k=4, c=4, oy=4, ox=4, fy=3, fx=3)
        arch = make_arch(
            [(64, 0.1), (16, 1.0)], dims=(("row", 4), ("col", 4))
        )
        mapping = plain_mapping(
            [[("FX", 3), ("B", 2)], [("FY", 3), ("OX", 4), ("OY", 4)]],
            spatial=[unroll("row", "K", 4), unroll("col", "C", 4)],
        )
        profile = count_accesses(arch, wl, mapping)
        trace = enumerate_accesses(arch, wl, mapping)
        for key, t in profile.traffic.items():
            assert trace.events[key] == t.events, key
            assert trace.bytes[key] == t.bytes, key

    def test_zero_traffic_level_reports_infinite_ai(self):
        arch = make_arch([(64, 0.1)], dims=(("row", 4), ("col", 4)))
        wl = gemm(1, 4, 4)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 4), unroll("col", "K", 4)),
            temporal=((),),
            pinned_operand="W",
        )
        # pin W and shrink I/O to zero-width: only checks the inf path
        r = analyze_mapping(arch, wl, mapping)
        assert r.ai[1] < math.inf  # I and O still move
        assert r.profile.traffic[(1, "W")].bytes == 0.0


class TestCubeRootTrafficScaling:
    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_three_axis_array_moves_3m2_words_for_2m3_ops(self, m):
        # symmetric 3-axis array: every operand unrolls on its two
        # relevant axes, so one cycle consumes 3*M^2 operand words while
        # performing 2*M^3 ops; word-level AI grows linearly in M
        arch = make_arch(
            [(10**9, 0.1)], dims=(("x", m), ("y", m), ("z", m))
        )
        wl = gemm(m, m, m)
        mapping = MappingSpec(
            spatial=(
                unroll("x", "B", m), unroll("y", "C", m), unroll("z", "K", m)
            ),
            temporal=((),),
        )
        profile = count_accesses(arch, wl, mapping)
        words = sum(
            profile.traffic[(1, name)].events
            * profile.traffic[(1, name)].elements_per_event
            for name in ("W", "I", "O")
        )
        assert words == 3 * m * m
        assert wl.n_op == 2 * m**3
        assert wl.n_op / words == pytest.approx(2 * m / 3)


class TestOuterBoundaryOrderInvariance:
    def test_invariant_when_outer_loops_are_all_relevant(self):
        # permuting the outermost level's loops cannot change the outer
        # boundary counts of an operand indexed by all of them
        import itertools

        arch = make_arch([(64, 0.1), (16, 1.0)])
        wl = gemm(4, 2, 2)
        seen = set()
        for order in itertools.permutations([("B", 2), ("C", 2), ("K", 2)]):
            mapping = plain_mapping([[("B", 2)], list(order)])
            profile = count_accesses(arch, wl, mapping)
            w = profile.traffic[(2, "W")]
            seen.add((w.events, w.bytes))
            # W is relevant to C and K only; with B in the mix the count
            # is order-dependent, but never below the relevant product
            assert w.events >= 2 * 2
        # operand relevant to every outer loop: count is the plain trip
        # product for any order
        for order in itertools.permutations([("B", 4), ("C", 2)]):
            mapping = plain_mapping([[("K", 2)], list(order)])
            profile = count_accesses(arch, wl, mapping)
            assert profile.traffic[(2, "I")].events == 8


class TestUtilization:
    def test_half_filled_columns_give_half_spatial_utilization(self):
        arch = make_arch([(4096, 0.1)], dims=(("row", 256), ("col", 256)))
        wl = gemm(16, 256, 128)
        mapping = plain_mapping(
            [[("B", 16)]],
            spatial=[unroll("row", "C", 256), unroll("col", "K", 128)],
        )
        assert spatial_utilization(arch, mapping) == 0.5

    def test_serialized_reload_costs_one_fifth_of_cycles(self):
        # 1024 compute cycles per resident weight tile, 256 reload
        # cycles while the array sits idle -> temporal utilization 0.8
        arch = make_arch([(4096, 0.1)], dims=(("row", 256), ("col", 256)))
        wl = gemm(1024, 256, 256)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 256), unroll("col", "K", 256)),
            temporal=((("B", 1024),),),
            pinned_operand="W",
            reload_cycles_per_tile=256,
        )
        profile = count_accesses(arch, wl, mapping)
        u = utilization(arch, wl, mapping, profile)
        assert u.temporal == 0.8
        assert u.spatial == 1.0

    def test_perfect_fit_total_is_one(self):
        arch = make_arch([(10**6, 0.1)], dims=(("row", 8), ("col", 8)))
        wl = gemm(4, 8, 8)
        mapping = plain_mapping(
            [[("B", 4)]],
            spatial=[unroll("row", "C", 8), unroll("col", "K", 8)],
        )
        profile = count_accesses(arch, wl, mapping)
        u = utilization(arch, wl, mapping, profile)
        assert u.total == 1.0

    def test_fold_averages_partial_final_pass(self):
        # 300 wide onto a 256-wide axis: two passes, second mostly idle
        arch = make_arch([(4096, 0.1)], dims=(("cols", 256),))
        wl = gemm(1, 1, 300)
        mapping = plain_mapping(
            [[("B", 1)]], spatial=[unroll("cols", "K", 300)]
        )
        assert spatial_utilization(arch, mapping) == 300 / 512

    def test_idle_cores_cut_core_utilization(self):
        arch = make_arch([(64, 0.1)], dims=(("row", 2), ("col", 2)))
        wl = gemm(8, 2, 2)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 2), unroll("col", "K", 2)),
            temporal=((("B", 2),),),
            cores=4,
            core_split=("B", 4),
        )
        profile = count_accesses(arch, wl, mapping)
        u = utilization(arch, wl, mapping, profile)
        assert u.core == 1.0
        half = MappingSpec(
            spatial=(unroll("row", "C", 2), unroll("col", "K", 2)),
            temporal=((("B", 4),),),
            cores=4,
            core_split=("B", 2),
        )
        profile = count_accesses(arch, wl, half)
        assert utilization(arch, wl, half, profile).core == 0.5


# ---------------------------------------------------------------------------
# the closed forms one boundary at a time


def reference_fetch_events(loops_inner_first, relevant):
    """Tile fetches across a boundary given the (dim, trip) loops at or
    above it: the product of the trips from the innermost relevant loop
    that iterates outward, or 1 without one."""
    for pos, (dim, trip) in enumerate(loops_inner_first):
        if dim in relevant and trip > 1:
            events = 1
            for _, t in loops_inner_first[pos:]:
                events *= t
            return events
    return 1


def reference_pending_reduction(loops_inner_first, relevant):
    """Whether a reduction loop that iterates encloses the innermost
    relevant loop that iterates."""
    seen_relevant = False
    for dim, trip in loops_inner_first:
        if trip <= 1:
            continue
        if dim in relevant:
            seen_relevant = True
        elif seen_relevant:
            return True
    return False


def reference_n_bytes(levels, traffic):
    """N_Li summed entry by entry in the traffic's order."""
    out = {li: 0.0 for li in levels}
    for (li, _), t in traffic.items():
        out[li] += t.bytes
    return out


def reference_traffic(arch, wl, mapping):
    """``count_accesses``' traffic from the loops at or above each
    boundary and the two functions above, in its key order."""
    extents = tile_extents(mapping, arch.n_levels)
    levels = range(1, arch.n_levels + 1)
    nest = mapping.nest(arch.n_levels)
    loops_ge = {li: tuple((d, t) for lv, d, t in nest if lv >= li) for li in levels}
    traffic = {}
    for op in wl.operands:
        pending = {li: reference_pending_reduction(loops_ge[li], op.relevant)
                   for li in levels}
        for li in levels:
            factor, bpe = 1, op.bytes_per_element
            if op.role == OUTPUT:
                factor = 2 if pending[li] else 1
                bpe = output_bytes_per_element(op, li, pending.get(li - 1, False))
            if mapping.pinned_operand == op.name and li == 1:
                bpe = 0.0
            traffic[(li, op.name)] = (reference_fetch_events(loops_ge[li], op.relevant),
                                      tile_elements(extents[li - 1], op), bpe, factor)
    return traffic


def assert_counts_like_the_reference(arch, wl, mapping):
    profile = count_accesses(arch, wl, mapping)
    expected = reference_traffic(arch, wl, mapping)
    assert list(profile.traffic) == list(expected)
    for key, t in profile.traffic.items():
        assert tuple(t) == expected[key]
    assert list(profile.n_bytes.items()) == list(
        reference_n_bytes(profile.levels, profile.traffic).items())
    return profile


def hand_traced_fixture():
    return single_level(), gemm(2, 2, 2), plain_mapping([[("C", 2), ("K", 2), ("B", 2)]])


class TestOneWalkPerOperand:
    """``count_accesses`` walks each operand's loops once; it must count
    what the closed forms give boundary by boundary."""

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(nests())
    def test_generated_nests(self, nest):
        assert_counts_like_the_reference(*nest[:3])

    @pytest.mark.parametrize("fixture", [trip_one_fixture, no_moving_loop_fixture,
                                         all_trip_one_fixture, hand_traced_fixture])
    def test_fixtures(self, fixture):
        assert_counts_like_the_reference(*fixture())

    @pytest.mark.parametrize("name", ["gemm_dense", "gemm_2to4", "imc256"])
    def test_shipped_scenarios_after_their_transforms(self, name):
        loaded = load_scenario(parse_scenario(fixture_path(f"{name}.scenario")))
        profile = scenario_traffic(loaded, assert_counts_like_the_reference).profile
        # a sparse scenario's profile is rescaled, and N_Li summed again
        assert list(profile.n_bytes.items()) == list(
            reference_n_bytes(profile.levels, profile.traffic).items())
