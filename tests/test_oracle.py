"""The enumeration oracle itself: counts pinned by a hand-traced event
list, determinism, caps, the cycle simulator, a literal
iteration-by-iteration reference walk, and generated nests held equal
to the closed forms."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roofline_lab import (
    IterationCapExceeded,
    MappingSpec,
    count_accesses,
    enumerate_accesses,
    simulate_cycles,
    task_latency,
    validate,
)
from roofline_lab.mapping import fold_passes, output_bytes_per_element
from roofline_lab.model import OUTPUT, tile_elements, tile_extents
from roofline_lab.oracle import CycleSimResult, EnumerationTrace

from conftest import conv7, gemm, gemm_bias, make_arch, plain_mapping, unroll


def single_level():
    return make_arch([(64, 0.1)])


# cycle,level,operand,bytes of every event of the 2x2x2 nest b,k,c:
# W and I on every step, O (at accumulator width) on every other
# step, in operand order
HAND_TRACED_2X2X2 = [
    "0,1,W,1", "0,1,I,1", "0,1,O,4",
    "1,1,W,1", "1,1,I,1",
    "2,1,W,1", "2,1,I,1", "2,1,O,4",
    "3,1,W,1", "3,1,I,1",
    "4,1,W,1", "4,1,I,1", "4,1,O,4",
    "5,1,W,1", "5,1,I,1",
    "6,1,W,1", "6,1,I,1", "6,1,O,4",
    "7,1,W,1", "7,1,I,1",
]


def hand_traced_counts():
    """The events and bytes per (level, operand) of HAND_TRACED_2X2X2."""
    events, nbytes = {}, {}
    for line in HAND_TRACED_2X2X2:
        _, level, operand, size = line.split(",")
        key = (int(level), operand)
        events[key] = events.get(key, 0) + 1
        nbytes[key] = nbytes.get(key, 0.0) + float(size)
    return events, nbytes


class TestEnumeration:
    def test_hand_traced_2x2x2(self):
        # pinned by tracing the 8-iteration nest b,k,c (c innermost) by
        # hand: W touches a new (c,k) every step, I a new (b,c) every
        # step, O a new (b,k) every other step
        arch = single_level()
        wl = gemm(2, 2, 2)
        mapping = plain_mapping([[("C", 2), ("K", 2), ("B", 2)]])
        trace = enumerate_accesses(arch, wl, mapping)
        assert trace.events[(1, "W")] == 8
        assert trace.events[(1, "I")] == 8
        assert trace.events[(1, "O")] == 4
        assert (trace.events, trace.bytes) == hand_traced_counts()
        # B outermost brings each W tile back, K in the middle each I
        # tile; an O tile is finished before the next one starts
        assert trace.revisited == {(1, "W"): True, (1, "I"): True, (1, "O"): False}

    def test_trip_one_innermost_loop_changes_nothing(self):
        # a filler loop of trip 1 never moves, so the counts and the
        # simulated cycles are those of the nest without it
        arch = single_level()
        wl = gemm(2, 2, 2)
        mapping = plain_mapping([[("K", 1), ("C", 2), ("K", 2), ("B", 2)]])
        without = plain_mapping([[("C", 2), ("K", 2), ("B", 2)]])
        trace = enumerate_accesses(arch, wl, mapping)
        assert (trace.events, trace.bytes) == hand_traced_counts()
        assert trace == enumerate_accesses(arch, wl, without)
        for overlap in (True, False):
            assert (simulate_cycles(arch, wl, mapping, overlap=overlap)
                    == simulate_cycles(arch, wl, without, overlap=overlap))
        assert simulate_cycles(arch, wl, mapping).n_tiles == 1

    def test_watcher_without_a_moving_loop_fetches_once(self):
        # C and K run on the array and their temporal loops have trip 1,
        # so no loop that indexes W ever moves: W is fetched on the
        # first step only, while I and O follow B
        arch = make_arch([(64, 0.1), (16, 1.0)], dims=(("row", 2), ("col", 2)))
        wl = gemm(4, 2, 2)
        mapping = plain_mapping(
            [[("C", 1), ("B", 2)], [("K", 1), ("B", 2)]],
            spatial=(unroll("row", "C", 2), unroll("col", "K", 2)),
        )
        trace = enumerate_accesses(arch, wl, mapping)
        for b in (1, 2):
            assert trace.events[(b, "W")] == 1
            assert trace.bytes[(b, "W")] == 4.0  # the whole 2x2 W, once
            assert not trace.revisited[(b, "W")]
        assert trace.events[(1, "I")] == trace.events[(1, "O")] == 4
        assert trace.events[(2, "I")] == trace.events[(2, "O")] == 2
        profile = count_accesses(arch, wl, mapping)
        for key, t in profile.traffic.items():
            assert trace.events[key] == t.events, key
            assert trace.bytes[key] == t.bytes, key

    def test_operand_with_all_loops_below_fetches_once(self):
        arch = make_arch([(64, 0.1), (16, 1.0)])
        wl = gemm(4, 2, 2)
        mapping = plain_mapping([[("B", 4), ("C", 2), ("K", 2)], []])
        trace = enumerate_accesses(arch, wl, mapping)
        for name in ("W", "I", "O"):
            assert trace.events[(2, name)] == 1

    def test_swapping_fully_relevant_adjacent_loops_changes_nothing(self):
        # B and C both index I; with K pinned innermost the B/C order
        # is invisible to every operand's counts except through
        # relevance, which is symmetric here for I
        arch = single_level()
        wl = gemm(2, 2, 2)
        t1 = enumerate_accesses(
            arch, wl, plain_mapping([[("K", 2), ("B", 2), ("C", 2)]])
        )
        t2 = enumerate_accesses(
            arch, wl, plain_mapping([[("K", 2), ("C", 2), ("B", 2)]])
        )
        assert t1.events[(1, "I")] == t2.events[(1, "I")]

    def test_determinism(self):
        arch = make_arch([(64, 0.1), (16, 1.0)])
        wl = gemm(4, 4, 2)
        mapping = plain_mapping([[("C", 2), ("B", 4)], [("K", 2), ("C", 2)]])
        t1 = enumerate_accesses(arch, wl, mapping)
        t2 = enumerate_accesses(arch, wl, mapping)
        assert t1.events == t2.events and t1.bytes == t2.bytes
        assert t1.revisited == t2.revisited
        for overlap in (True, False):
            assert (simulate_cycles(arch, wl, mapping, overlap=overlap)
                    == simulate_cycles(arch, wl, mapping, overlap=overlap))

    def test_cap_refuses_large_spaces(self):
        arch = single_level()
        wl = gemm(64, 64, 64)
        mapping = plain_mapping([[("B", 64), ("C", 64), ("K", 64)]])
        with pytest.raises(IterationCapExceeded):
            enumerate_accesses(arch, wl, mapping, cap=2**10)

    def test_agrees_with_closed_form_under_pinned_weights_and_bounce(self):
        # worst-case mix: spatial unrolls, a pinned weight tile, a
        # contraction loop at L2 wrapping the inner output loops (so
        # partial sums bounce across L1), and trip-1 filler loops
        arch = make_arch([(64, 0.1), (16, 1.0)], dims=(("row", 4), ("col", 4)))
        wl = gemm(4, 8, 8)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 4), unroll("col", "K", 4)),
            temporal=(
                (("K", 2), ("B", 2), ("C", 1)),
                (("C", 2), ("B", 2), ("K", 1)),
            ),
            pinned_operand="W",
            reload_cycles_per_tile=4,
        )
        profile = count_accesses(arch, wl, mapping)
        trace = enumerate_accesses(arch, wl, mapping)
        for key, t in profile.traffic.items():
            assert trace.events[key] == t.events, key
            assert trace.bytes[key] == t.bytes, key
        assert profile.traffic[(1, "W")].bytes == 0.0
        assert trace.revisited[(1, "O")]  # C at L2 wraps the output loops


class TestCycleSimulation:
    def _fixture(self, b=512, l2_bw=16.0):
        arch = make_arch(
            [(64, 0.1), (l2_bw, 1.0)], dims=(("row", 8), ("col", 8))
        )
        wl = gemm(b, 8, 8)
        mapping = MappingSpec(
            spatial=(unroll("row", "C", 8), unroll("col", "K", 8)),
            temporal=((("B", 4),), (("B", b // 4),)),
        )
        return arch, wl, mapping

    def test_overlapped_matches_latency_formula_in_steady_state(self):
        arch, wl, mapping = self._fixture()
        profile = count_accesses(arch, wl, mapping)
        lat = task_latency(arch, wl, profile)
        sim = simulate_cycles(arch, wl, mapping, overlap=True)
        assert sim.n_tiles >= 64
        assert abs(sim.cycles - lat.cycles) / lat.cycles < 0.02

    def test_agreement_improves_with_tile_count(self):
        errors = []
        for b in (64, 256, 1024):
            arch, wl, mapping = self._fixture(b=b)
            profile = count_accesses(arch, wl, mapping)
            lat = task_latency(arch, wl, profile)
            sim = simulate_cycles(arch, wl, mapping, overlap=True)
            errors.append(abs(sim.cycles - lat.cycles) / lat.cycles)
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 0.005

    def test_serialized_equals_busy_cycle_sum(self):
        arch, wl, mapping = self._fixture(b=128)
        sim = simulate_cycles(arch, wl, mapping, overlap=False)
        assert sim.cycles == sum(sim.busy.values())

    def test_serialized_never_beats_overlapped(self):
        arch, wl, mapping = self._fixture(b=128)
        s = simulate_cycles(arch, wl, mapping, overlap=False)
        o = simulate_cycles(arch, wl, mapping, overlap=True)
        assert s.cycles >= o.cycles

    def test_single_resource_dominance_is_pure_transfer_time(self):
        # compute negligible next to a starved outer level: total time
        # collapses to bytes/bandwidth
        arch, wl, mapping = self._fixture(b=128, l2_bw=0.25)
        profile = count_accesses(arch, wl, mapping)
        n2 = profile.n_bytes[2]
        sim = simulate_cycles(arch, wl, mapping, overlap=True)
        assert sim.cycles == pytest.approx(n2 / 0.25, rel=0.02)


# ---------------------------------------------------------------------------
# generated nests

GEMM_DIMS = ("B", "C", "K")
CONV_DIMS = ("B", "K", "C", "OY", "OX", "FY", "FX")


def tile_loops(mapping, level):
    """(dim, trip) of every loop inside one tile at ``level``: the
    unrolls, the core split and the temporal loops at levels <= ``level``."""
    loops = [(u.dim, u.factor) for u in mapping.spatial]
    loops += [mapping.core_split] if mapping.core_split else []
    return loops + [loop for lv in mapping.temporal[:level] for loop in lv]


def footprint_bytes(wl, mapping, level):
    """Summed whole-byte tiles of every operand at ``level``: each dim
    spans the product of the tile's loops over it."""
    loops = tile_loops(mapping, level)
    return sum(math.prod(t for d, t in loops if d in op.relevant_dims)
               * math.ceil(op.precision_bits / 8) for op in wl.operands)


@st.composite
def nests(draw, max_moving=6):
    """A valid (arch, workload, mapping, per-level trips) of 1-4 levels:
    a GEMM, a GEMM+bias or a 7-dim conv whose dim sizes follow from the
    mapping, with trip-1 filler loops, spatial unrolls (some folding the
    array), an optional core split over as many or more cores,
    optionally a pinned W with a reload cost, and some levels bounded at
    their summed tile footprint or one byte above it."""
    kind = draw(st.sampled_from((gemm, gemm_bias, conv7)))
    dims = CONV_DIMS if kind is conv7 else GEMM_DIMS
    n_levels = draw(st.integers(1, 4))
    rows, cols = draw(st.sampled_from((2, 4))), draw(st.sampled_from((2, 4)))
    level = st.integers(1, n_levels)
    moving = draw(st.lists(st.tuples(level, st.sampled_from(dims), st.sampled_from((2, 3))),
                           min_size=1, max_size=max_moving))
    fillers = draw(st.lists(st.tuples(level, st.sampled_from(dims), st.just(1)),
                            max_size=3))
    temporal = []
    for li in range(1, n_levels + 1):
        loops = [(d, t) for lv, d, t in moving + fillers if lv == li]
        temporal.append(draw(st.permutations(loops)))
    spatial = []
    for axis, size, d in zip(("row", "col"), (rows, cols),
                             draw(st.lists(st.sampled_from(dims), min_size=2,
                                           max_size=2, unique=True))):
        factor = draw(st.sampled_from((1, size // 2, size, 2 * size)))
        if factor > 1:
            spatial.append(unroll(axis, d, factor))
    core_split = draw(st.none() | st.tuples(st.sampled_from(dims), st.sampled_from((2, 3))))
    size = {d: 1 for d in dims}
    for u in spatial:
        size[u.dim] *= u.factor
    if core_split:
        size[core_split[0]] *= core_split[1]
    for _, d, t in moving:
        size[d] *= t
    wl = kind(*(size[d] for d in dims))
    pinned = draw(st.booleans())
    mapping = plain_mapping(
        temporal, spatial=spatial,
        cores=core_split[1] + draw(st.integers(0, 1)) if core_split else 1,
        core_split=core_split,
        pinned_operand="W" if pinned else None,
        reload_cycles_per_tile=draw(st.sampled_from((None, 4))) if pinned else None,
    )
    arch = make_arch([(2.0 ** (6 - i), 0.1 * 4**i) for i in range(n_levels)],
                     dims=(("row", rows), ("col", cols)))
    slack = draw(st.lists(st.sampled_from((None, 0, 1)), min_size=n_levels,
                          max_size=n_levels))
    arch = arch._replace(levels=tuple(
        lvl if extra is None
        else lvl._replace(capacity=footprint_bytes(wl, mapping, lvl.level_index) + extra)
        for lvl, extra in zip(arch.levels, slack)))
    return arch, wl, mapping, temporal


def brute_force_tile_elements(wl, mapping, level):
    """Per operand, the distinct index tuples of its relevant dims met
    by literally enumerating one tile at ``level``: every combination
    of the tile's loops, each dim's index a mixed-radix number of its
    loops."""
    loops = tile_loops(mapping, level)
    seen = {op.name: set() for op in wl.operands}
    for counters in itertools.product(*(range(t) for _, t in loops)):
        index = {d.name: 0 for d in wl.dims}
        for (d, t), c in zip(loops, counters):
            index[d] = index[d] * t + c
        for op in wl.operands:
            seen[op.name].add(tuple(index[d] for d in op.relevant_dims))
    return {name: len(tuples) for name, tuples in seen.items()}


class TestGeneratedNests:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(nests())
    def test_walk_agrees_with_the_closed_forms(self, nest):
        arch, wl, mapping, temporal = nest
        profile = count_accesses(arch, wl, mapping)
        trace = enumerate_accesses(arch, wl, mapping)
        assert trace.events == {k: t.events for k, t in profile.traffic.items()}
        assert trace.bytes == {k: t.bytes for k, t in profile.traffic.items()}
        # loops at levels >= 2 delimit the L1 tiles
        upper_trips = math.prod(t for loops in temporal[1:] for _, t in loops)
        assert simulate_cycles(arch, wl, mapping).n_tiles == upper_trips
        serialized = simulate_cycles(arch, wl, mapping, overlap=False)
        assert serialized.cycles == sum(serialized.busy.values())

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(nests(max_moving=3))
    def test_tile_elements_count_the_distinct_indices_of_a_tile(self, nest):
        arch, wl, mapping, _ = nest
        extents = tile_extents(mapping, arch.n_levels)
        for li in range(arch.n_levels + 1):
            counted = brute_force_tile_elements(wl, mapping, li)
            assert {op.name: tile_elements(extents[li], op) for op in wl.operands} == counted
            if li == 0:
                continue
            # a capacity at the counted footprint fits, one byte less does not
            total = sum(counted[op.name] * math.ceil(op.precision_bits / 8)
                        for op in wl.operands)
            levels = [lvl._replace(capacity=None) for lvl in arch.levels]
            for capacity, expected in (
                    (total, []),
                    (total - 1, [f"level L{li}: tile footprint {total} B exceeds "
                                 f"capacity {total - 1} B"])):
                levels[li - 1] = levels[li - 1]._replace(capacity=capacity)
                bounded = arch._replace(levels=tuple(levels))
                assert validate(bounded, wl, mapping) == expected


# ---------------------------------------------------------------------------
# the literal reference walk


def reference_walk(arch, wl, mapping):
    """The oracle's definition stepped one iteration at a time: every
    state of the whole temporal nest (trip-1 loops included, outermost
    level's loops outermost), a fetch for each (operand, boundary) whose
    tile tuple differs from the previous iteration's, the fetches of
    each L1 tile (a state of the loops at levels >= 2).  Returns the
    counted trace and the overlapped and serialized pipeline results."""
    nest = list(reversed(mapping.nest(arch.n_levels)))
    boundaries = range(1, arch.n_levels + 1)
    watchers = [((b, op.name), [j for j, (lv, d, _) in enumerate(nest)
                                if lv >= b and d in op.relevant_dims])
                for op in wl.operands for b in boundaries]
    tile_loops = [j for j, (lv, _, _) in enumerate(nest) if lv >= 2]
    last: dict = {}
    seen: dict = {key: set() for key, _ in watchers}
    revisited = {key: False for key, _ in watchers}
    tiles: list[dict] = []  # per L1 tile, each watcher's fetches
    steps: list[int] = []  # per L1 tile, its iterations
    last_tile = None
    for cycle, counters in enumerate(itertools.product(*(range(t) for _, _, t in nest))):
        tile = [counters[j] for j in tile_loops]
        if tile != last_tile:
            tiles.append(dict.fromkeys(revisited, 0))
            steps.append(0)
            last_tile = tile
        steps[-1] += 1
        for key, positions in watchers:
            tid = tuple(counters[j] for j in positions)
            if cycle and tid == last[key]:
                continue
            last[key] = tid
            tiles[-1][key] += 1
            revisited[key] = revisited[key] or tid in seen[key]
            seen[key].add(tid)

    extents = tile_extents(mapping, arch.n_levels)
    per_event = {}
    for op in wl.operands:
        for b in boundaries:
            if op.role == OUTPUT:
                bpe = output_bytes_per_element(op, b, revisited.get((b - 1, op.name), False))
                bpe *= 2 if revisited[(b, op.name)] else 1
            else:
                bpe = op.bytes_per_element
            if mapping.pinned_operand == op.name and b == 1:
                bpe = 0.0
            per_event[(b, op.name)] = tile_elements(extents[b - 1], op) * bpe
    events = {key: sum(t[key] for t in tiles) for key in revisited}
    trace = EnumerationTrace(
        events=events,
        bytes={key: n * per_event[key] for key, n in events.items()},
        revisited=revisited,
    )

    passes = fold_passes(arch, mapping)
    level_bytes = {b: [0.0] * len(tiles) for b in boundaries}
    for key in revisited:
        for t, counts in enumerate(tiles):
            level_bytes[key[0]][t] += counts[key] * per_event[key]
    bandwidth = {b: arch.level(b).bandwidth for b in boundaries}
    busy = {"compute": float(sum(s * passes for s in steps))}
    for b in boundaries:
        busy[arch.level(b).name] = sum(level_bytes[b]) / bandwidth[b]
    serialized = CycleSimResult(
        busy["compute"] + sum(busy[arch.level(b).name] for b in boundaries), busy, len(tiles))
    ready = {b: 0.0 for b in boundaries if b >= 2}
    finish = 0.0
    for t, s in enumerate(steps):
        for b in ready:
            ready[b] += level_bytes[b][t] / bandwidth[b]
        start = max(max(ready.values()) if ready else 0.0, finish)
        finish = start + max(float(s * passes), level_bytes[1][t] / bandwidth[1])
    return trace, CycleSimResult(finish, busy, len(tiles)), serialized


def assert_walks_like_the_reference(arch, wl, mapping):
    trace, overlapped, serialized = reference_walk(arch, wl, mapping)
    counted = enumerate_accesses(arch, wl, mapping)
    assert counted == trace
    assert simulate_cycles(arch, wl, mapping, overlap=True) == overlapped
    assert simulate_cycles(arch, wl, mapping, overlap=False) == serialized


def trip_one_fixture():
    return single_level(), gemm(2, 2, 2), plain_mapping([[("K", 1), ("C", 2), ("K", 2), ("B", 2)]])


def no_moving_loop_fixture():
    arch = make_arch([(64, 0.1), (16, 1.0)], dims=(("row", 2), ("col", 2)))
    mapping = plain_mapping([[("C", 1), ("B", 2)], [("K", 1), ("B", 2)]],
                            spatial=(unroll("row", "C", 2), unroll("col", "K", 2)))
    return arch, gemm(4, 2, 2), mapping


def all_trip_one_fixture():
    # every loop has trip 1: a one-iteration walk in one tile
    arch = make_arch([(64, 0.1), (16, 1.0)], dims=(("row", 2), ("col", 2)))
    mapping = plain_mapping([[("C", 1)], [("B", 1)]],
                            spatial=(unroll("row", "C", 2), unroll("col", "K", 2)))
    return arch, gemm(1, 2, 2), mapping


class TestReferenceWalk:
    @pytest.mark.parametrize("fixture", [trip_one_fixture, no_moving_loop_fixture,
                                         all_trip_one_fixture])
    def test_fixtures(self, fixture):
        assert_walks_like_the_reference(*fixture())

    def test_hand_traced_nest(self):
        arch, wl = single_level(), gemm(2, 2, 2)
        mapping = plain_mapping([[("C", 2), ("K", 2), ("B", 2)]])
        trace = reference_walk(arch, wl, mapping)[0]
        assert (trace.events, trace.bytes) == hand_traced_counts()
        assert_walks_like_the_reference(arch, wl, mapping)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(nests())
    def test_generated_nests(self, nest):
        arch, wl, mapping, _ = nest
        assert_walks_like_the_reference(arch, wl, mapping)

    # gemm 2x2x2 over two levels; counters outermost first.  No output
    # repeats at L2 but not at L1: a counter the L2 key skips, outside
    # its deepest one, is skipped by the L1 key too.
    @pytest.mark.parametrize("temporal, expected", [
        # B, K, C: O is keyed by every counter it reads, at both levels
        ([[("C", 2)], [("K", 2), ("B", 2)]], {(1, "O"): False, (2, "O"): False}),
        # B, C, K: O's partial sums cross L1 again, and complete above it
        ([[("K", 2), ("C", 2)], [("B", 2)]], {(1, "O"): True, (2, "O"): False}),
        # B, K, C: every W tile comes back to L1; W never moves above it
        ([[("C", 2), ("K", 2)], [("B", 2)]], {(1, "W"): True, (2, "W"): False}),
        # B, C (trip 1), K, C: the trip-1 C outside K never moves, so O's
        # keys skip no counter and never repeat
        ([[("C", 2)], [("K", 2), ("C", 1), ("B", 2)]], {(1, "O"): False, (2, "O"): False}),
    ], ids=["whole-state-key", "output-repeats-at-L1-only", "input-key-repeats",
            "trip-1-loop-outside-the-deepest-key"])
    def test_revisit_branches(self, temporal, expected):
        arch, wl = make_arch([(64, 0.1), (16, 1.0)]), gemm(2, 2, 2)
        mapping = plain_mapping(temporal)
        revisited = enumerate_accesses(arch, wl, mapping).revisited
        assert {key: revisited[key] for key in expected} == expected
        assert_walks_like_the_reference(arch, wl, mapping)
