"""Brute-force ground truth for the analytic reuse model.

``enumerate_accesses`` counts, per (operand, boundary), the fetches of
the tile resident below that boundary.  A watcher keys that tile by the
loop counters that index the operand at or above the boundary; by
definition a fetch event fires on every iteration whose key differs
from the previous iteration's, and a revisit (the same key seen again
at a later fetch) marks partially accumulated output tiles bouncing
across the boundary.  A counter moves only when every counter inside it
wraps, and wrapping changes each of those, so the key changes exactly
when a counter at or outside the watcher's deepest relevant one moves.
The watcher's fetch events are therefore the states of those outer
counters [0, depth), in walk order, enumerated with
``itertools.product`` instead of stepping every iteration.  Every
counter is a loop of trip >= 2, so a key that skips one of the
counters [0, depth) repeats (the keyed counters inside it run through
their states again when it moves), and a key of all of them is the
whole state, which never does: the revisit flag is that rule, fixed
per watcher when the walk is built, not a hash of its keys (the
literal walk in the tests, which hashes every key, arbitrates it).
The counts are still enumerated, each call reading only the states its
result depends on: totals count the states of a watcher's counters,
or its states in one L1 tile times the tiles; only the overlapped
pipeline lists loads per tile, one fetch list per depth, scaled per
(level, depth) by the summed bytes of the watchers that fire together.
No closed forms: every count is a count of enumerated states, so the
counts can arbitrate the closed-form engine in ``mapping``.  Tile sizes
and element widths are not counts and come from the extent table built
while validating the mapping (``model.tile_extents``, which the closed
forms read too) and ``mapping.output_bytes_per_element``.

``simulate_cycles`` replays the same walk as a discrete pipeline over
the L1 tiles, the states of the loops at levels >= 2: every memory
level moves at most B_Li bytes/cycle, the array runs one spatial step
per cycle, and tile transfers either overlap compute (double
buffering) or serialize with it.

Both refuse iteration spaces above ``cap`` (default 2**20): this is a
desk-scale oracle, not a simulator.
"""

from __future__ import annotations

import math
from itertools import accumulate, chain, product, repeat, tee
from operator import add, itemgetter, mul, ne, truediv
from typing import NamedTuple

from .mapping import fold_passes, output_bytes_per_element
from .model import (
    OUTPUT,
    ArchSpec,
    MappingSpec,
    WorkloadSpec,
    tile_elements,
    valid_tile_extents,
)

DEFAULT_CAP = 2**20


class IterationCapExceeded(ValueError):
    pass


class EnumerationTrace(NamedTuple):
    """Counted accesses per (boundary level, operand)."""

    events: dict[tuple[int, str], int]
    bytes: dict[tuple[int, str], float]
    revisited: dict[tuple[int, str], bool]


class CycleSimResult(NamedTuple):
    cycles: float
    busy: dict[str, float]  # per resource: "compute", "L1", "L2", ...
    n_tiles: int


def _moved(states, depth: int):
    """Per state of ``states``, in order, whether one of its outer
    ``depth`` counters differs from the previous state's (the first
    state always counts as moved)."""
    heads, previous = tee(map(itemgetter(slice(0, depth)), states))
    return map(ne, heads, chain((None,), previous))


def _count(ranges) -> int:
    """The number of states of counters over ``ranges``, enumerated."""
    return sum(1 for _ in product(*ranges))


class _Walk:
    """One mapped nest's watchers, each a (depth, revisit) pair fixed by
    its loop order, and their fetch states, read only as far as a call
    needs them."""

    def __init__(self, arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec,
                 cap: int):
        self.extents = valid_tile_extents(arch, wl, mapping)  # for event_bytes
        nest = mapping.nest(arch.n_levels)
        space = math.prod(t for _, _, t in nest)
        if space > cap:
            raise IterationCapExceeded(
                f"temporal iteration space {space} exceeds oracle cap {cap}"
            )
        self.wl = wl
        self.mapping = mapping
        self.boundaries = list(range(1, arch.n_levels + 1))
        # outermost level's loops outermost; spatial runs as one parallel
        # step.  Only loops with trip > 1 ever move, so counter j is the
        # j-th moving loop, outermost first.  The loops at levels >= 2
        # come first; each state of theirs is one L1 tile.
        moving = [(lv, d, t) for lv, d, t in reversed(nest) if t > 1]
        self.ranges = [range(t) for _, _, t in moving]
        self.n_outer = sum(lv >= 2 for lv, _, _ in moving)
        self.tiles = list(product(*self.ranges[:self.n_outer]))
        # watchers: per (boundary, operand) its depth, one past the
        # deepest counter whose value identifies the resident tile (the
        # relevant ones among those at levels >= b), and whether its key
        # skips one of the counters [0, depth), so that its tile repeats
        ends = {b: sum(lv >= b for lv, _, _ in moving) for b in self.boundaries}
        self.watchers: dict[tuple[int, str], tuple[int, bool]] = {}
        for op in wl.operands:
            rel = [j for j, (_, d, _) in enumerate(moving) if d in op.relevant]
            for b in self.boundaries:
                keyed = [j for j in rel if j < ends[b]]
                depth = keyed[-1] + 1 if keyed else 0
                self.watchers[(b, op.name)] = (depth, len(keyed) < depth)

    def fired(self, depth: int) -> int:
        """Fetch states in one L1 tile of a watcher inside the tile
        loops: the states of its inner counters, alike in every tile."""
        return _count(self.ranges[self.n_outer:depth])

    def per_tile(self, depth: int):
        """Per L1 tile, the fetch states of a watcher on counters
        [0, depth): at or outside the tile loops, once in each tile its
        counters moved into (True) and never in the others (False)."""
        if depth <= self.n_outer:
            return _moved(self.tiles, depth)
        return repeat(self.fired(depth), len(self.tiles))

    def count(self, depth: int) -> int:
        """The fetch states of ``per_tile(depth)`` in total: at or
        outside the tile loops, the states of its counters."""
        if depth <= self.n_outer:
            return _count(self.ranges[:depth])
        return self.fired(depth) * len(self.tiles)

    def event_bytes(self) -> dict[tuple[int, str], float]:
        """Bytes per single event, fixed per (boundary, operand)."""
        out: dict[tuple[int, str], float] = {}
        for op in self.wl.operands:
            for b in self.boundaries:
                elements = tile_elements(self.extents[b - 1], op)
                if op.role == OUTPUT:
                    factor = 2 if self.watchers[(b, op.name)][1] else 1
                    bpe = output_bytes_per_element(
                        op, b, b > 1 and self.watchers[(b - 1, op.name)][1])
                else:
                    factor = 1
                    bpe = op.bytes_per_element
                if self.mapping.pinned_operand == op.name and b == 1:
                    bpe = 0.0
                out[(b, op.name)] = elements * bpe * factor
        return out


def enumerate_accesses(
    arch: ArchSpec,
    wl: WorkloadSpec,
    mapping: MappingSpec,
    cap: int = DEFAULT_CAP,
) -> EnumerationTrace:
    """Count every boundary crossing by enumerating, per watcher, the
    states of the nest's counters that change its tile."""
    walk = _Walk(arch, wl, mapping, cap)
    counts = {depth: walk.count(depth) for depth in {d for d, _ in walk.watchers.values()}}
    events = {key: counts[depth] for key, (depth, _) in walk.watchers.items()}
    per_event = walk.event_bytes()
    return EnumerationTrace(
        events=events,
        bytes={key: n * per_event[key] for key, n in events.items()},
        revisited={key: revisit for key, (_, revisit) in walk.watchers.items()},
    )


def simulate_cycles(
    arch: ArchSpec,
    wl: WorkloadSpec,
    mapping: MappingSpec,
    overlap: bool = True,
    cap: int = DEFAULT_CAP,
) -> CycleSimResult:
    """Discrete tile-pipeline simulation of the mapped nest.

    Tiles are delimited by the loops at levels >= 2.  In overlapped
    mode each level prefetches tile t+1 while tile t computes, and the
    L1 boundary streams concurrently with compute, so the steady-state
    total approaches the busiest resource (within one tile of pipeline
    fill).  In serialized mode every resource takes its turn and the
    total is exactly the sum of per-resource busy cycles.
    """
    walk = _Walk(arch, wl, mapping, cap)
    per_event = walk.event_bytes()
    n_tiles = len(walk.tiles)
    tile_compute = walk.fired(len(walk.ranges)) * fold_passes(arch, mapping)
    # the watchers at one (level, depth) fire together: one load each
    loads: dict[tuple[int, int], float] = {}
    for key, (depth, _) in walk.watchers.items():
        loads[key[0], depth] = loads.get((key[0], depth), 0.0) + per_event[key]

    busy: dict[str, float] = {"compute": float(tile_compute * n_tiles)}
    if not overlap:
        level_bytes = dict.fromkeys(walk.boundaries, 0.0)
        for (b, depth), nbytes in loads.items():
            level_bytes[b] += walk.count(depth) * nbytes
        for b in walk.boundaries:
            busy[arch.level(b).name] = level_bytes[b] / arch.level(b).bandwidth
        total = busy["compute"] + sum(
            busy[arch.level(b).name] for b in walk.boundaries
        )
        return CycleSimResult(cycles=total, busy=busy, n_tiles=n_tiles)

    # overlapped: the same loads per L1 tile, one pass per (level, depth)
    # over each depth's fetch states, listed once
    fetches = {depth: list(walk.per_tile(depth)) for depth in {d for _, d in loads}}
    tile_bytes = {b: [0.0] * n_tiles for b in walk.boundaries}
    for (b, depth), nbytes in loads.items():
        tile_bytes[b] = list(map(add, tile_bytes[b],
                                 map(mul, fetches[depth], repeat(nbytes))))
    for b in walk.boundaries:
        busy[arch.level(b).name] = sum(tile_bytes[b]) / arch.level(b).bandwidth

    # per-level prefetch pipelines feed a compute stage that
    # is itself bounded by L1 streaming.  Each upper level's data for
    # tile t is ready once it has moved every tile up to t.
    ready = [accumulate(map(truediv, tile_bytes[b], repeat(arch.level(b).bandwidth)))
             for b in walk.boundaries[1:]]
    data_ready = map(max, zip(*ready)) if ready else repeat(0.0)
    stages = map(max, repeat(float(tile_compute)),
                 map(truediv, tile_bytes[1], repeat(arch.level(1).bandwidth)))
    finish = 0.0
    for data, stage in zip(data_ready, stages):
        finish = max(data, finish) + stage
    return CycleSimResult(cycles=finish, busy=busy, n_tiles=n_tiles)
