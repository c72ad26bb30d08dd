"""Brute-force ground truth for the analytic reuse model.

``enumerate_accesses`` walks the mapped loop nest literally, visiting
every innermost iteration, keeping per (operand, boundary) the
loop-counter tuple that identifies the tile resident below that
boundary.  A fetch event fires whenever the tuple changes; a revisit
(the same tuple seen again later) marks partially accumulated output
tiles bouncing across the boundary.  The odometer reports the
outermost counter each step moved, so only the watchers holding a
counter at or inside it are re-keyed; every other tuple cannot have
changed.  No closed forms: the counts come out of the walk, so they
can arbitrate the closed-form engine in ``mapping``.  Tile sizes and
element widths are not counts and come from the extent table built
while validating the mapping (``model.tile_extents``, which the closed
forms read too) and ``mapping.output_bytes_per_element``.

``simulate_cycles`` replays the same walk as a discrete pipeline:
every memory level moves at most B_Li bytes/cycle, the array runs one
spatial step per cycle, and tile transfers either overlap compute
(double buffering) or serialize with it.

Both refuse iteration spaces above ``cap`` (default 2**20): this is a
desk-scale oracle, not a simulator.
"""

from __future__ import annotations

import math
from operator import itemgetter
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


class TraceRecord(NamedTuple):
    cycle: int
    level: int
    operand: str
    bytes: float


class EnumerationTrace(NamedTuple):
    """Counted accesses per (boundary level, operand), plus optional
    per-event records for dumping."""

    events: dict[tuple[int, str], int]
    bytes: dict[tuple[int, str], float]
    revisited: dict[tuple[int, str], bool]
    records: tuple[TraceRecord, ...] = ()

    def dump_lines(self) -> list[str]:
        """One text record per event: ``cycle,level,operand,bytes``."""
        return [
            f"{r.cycle},{r.level},{r.operand},{r.bytes:g}" for r in self.records
        ]


class CycleSimResult(NamedTuple):
    cycles: float
    busy: dict[str, float]  # per resource: "compute", "L1", "L2", ...
    n_tiles: int


class _Walk:
    """Shared literal walk over the temporal nest."""

    def __init__(self, arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec,
                 cap: int, record: bool = False):
        self.extents = valid_tile_extents(arch, wl, mapping)  # for event_bytes
        nest = mapping.nest(arch.n_levels)
        self.space = math.prod(t for _, _, t in nest)
        if self.space > cap:
            raise IterationCapExceeded(
                f"temporal iteration space {self.space} exceeds oracle cap {cap}"
            )
        self.wl = wl
        self.mapping = mapping
        self.boundaries = list(range(1, arch.n_levels + 1))
        self.record = record
        # outermost level's loops outermost; spatial runs as one parallel
        # step.  Only loops with trip > 1 ever move, so the odometer holds
        # just those: counter j >= 1 is the j-th moving loop, outermost
        # first, behind a sentinel counter 0 that no step of the walk moves.
        moving = [(lv, d, t) for lv, d, t in reversed(nest) if t > 1]
        self.trips = [2] + [t for _, _, t in moving]

        # watchers: per (operand, boundary) the counters whose values
        # identify the resident tile, read by one itemgetter (the
        # sentinel stands in when no moving loop is relevant)
        self.watchers: list[tuple[str, int]] = []
        self.tile_keys = []
        deepest: list[int] = []
        for op in wl.operands:
            rel = op.relevant
            for b in self.boundaries:
                positions = [j for j, (lv, d, _) in enumerate(moving, 1)
                             if lv >= b and d in rel]
                self.watchers.append((op.name, b))
                self.tile_keys.append(itemgetter(*(positions or [0])))
                deepest.append(max(positions, default=0))
        # A step whose odometer stopped at counter ``stop`` reset every
        # counter inside it, so a watcher's tile changed iff its deepest
        # counter is at or inside ``stop``: moved[stop] lists those
        # watchers in watcher order.  Before the first step (stop 0)
        # every watcher fires.
        self.moved = [[w for w, deep in enumerate(deepest) if deep >= stop]
                      for stop in range(len(self.trips))]
        # tile tracker: loops at levels >= 2 delimit L1 tiles
        self.tile_deepest = max(
            (j for j, (lv, _, _) in enumerate(moving, 1) if lv >= 2), default=0)

    def run(self) -> None:
        """Walk the nest once, setting the per-event and per-tile counts."""
        trips = self.trips
        moved = self.moved
        tile_keys = self.tile_keys
        tile_deepest = self.tile_deepest
        record = self.record
        n_watchers = len(self.watchers)
        counters = [0] * len(trips)
        innermost = len(trips) - 1
        seen: list[set] = [set() for _ in range(n_watchers)]
        revisited = [False] * n_watchers
        tiles: list[list[int]] = []  # per L1 tile, each watcher's events
        tile_starts: list[int] = []
        pending: list[tuple[int, int]] = []
        stop = 0
        for cycle in range(self.space):
            if stop <= tile_deepest:
                counts = [0] * n_watchers
                tiles.append(counts)
                tile_starts.append(cycle)
            for w in moved[stop]:
                counts[w] += 1
                # revisited is a flag: once set, later tiles change nothing
                if not revisited[w]:
                    tid = tile_keys[w](counters)
                    if tid in seen[w]:
                        revisited[w] = True
                    else:
                        seen[w].add(tid)
                if record:
                    pending.append((cycle, w))
            # odometer: innermost counter is the last entry; only the
            # carry out of the last step reaches the sentinel
            stop = innermost
            while counters[stop] + 1 == trips[stop]:
                counters[stop] = 0
                stop -= 1
            counters[stop] += 1

        tile_starts.append(self.space)
        self.tile_steps = [b - a for a, b in zip(tile_starts, tile_starts[1:])]
        self.n_tiles = len(tiles)
        self.tile_event_counts = {
            (b, name): [counts[w] for counts in tiles]
            for w, (name, b) in enumerate(self.watchers)
        }
        self.events = {key: sum(c) for key, c in self.tile_event_counts.items()}
        self.revisited = {
            (b, name): revisited[w] for w, (name, b) in enumerate(self.watchers)
        }
        self._record_pending = [
            (cycle, self.watchers[w][1], self.watchers[w][0]) for cycle, w in pending
        ]

    def event_bytes(self) -> dict[tuple[int, str], float]:
        """Bytes per single event, fixed per (boundary, operand)."""
        out: dict[tuple[int, str], float] = {}
        for op in self.wl.operands:
            for b in self.boundaries:
                elements = tile_elements(self.extents[b - 1], op)
                if op.role == OUTPUT:
                    factor = 2 if self.revisited[(b, op.name)] else 1
                    bpe = output_bytes_per_element(
                        op, b, self.revisited.get((b - 1, op.name), False))
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
    record_events: bool = False,
) -> EnumerationTrace:
    """Count every boundary crossing by literally iterating the nest."""
    walk = _Walk(arch, wl, mapping, cap, record=record_events)
    walk.run()
    per_event = walk.event_bytes()
    total_bytes = {key: walk.events[key] * per_event[key] for key in walk.events}
    records = tuple(
        TraceRecord(cycle, b, name, per_event[(b, name)])
        for cycle, b, name in walk._record_pending
    )
    return EnumerationTrace(
        events=dict(walk.events),
        bytes=total_bytes,
        revisited=dict(walk.revisited),
        records=records,
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
    walk.run()
    per_event = walk.event_bytes()

    n_tiles = walk.n_tiles
    passes = fold_passes(arch, mapping)

    # per-tile loads
    compute_steps = [s * passes for s in walk.tile_steps]
    level_bytes: dict[int, list[float]] = {
        b: [0.0] * n_tiles for b in walk.boundaries
    }
    for (b, name), counts in walk.tile_event_counts.items():
        eb = per_event[(b, name)]
        for t, c in enumerate(counts):
            level_bytes[b][t] += c * eb

    busy: dict[str, float] = {"compute": float(sum(compute_steps))}
    for b in walk.boundaries:
        busy[arch.level(b).name] = sum(level_bytes[b]) / arch.level(b).bandwidth

    if not overlap:
        total = busy["compute"] + sum(
            busy[arch.level(b).name] for b in walk.boundaries
        )
        return CycleSimResult(cycles=total, busy=busy, n_tiles=n_tiles)

    # overlapped: per-level prefetch pipelines feed a compute stage that
    # is itself bounded by L1 streaming
    upper = [b for b in walk.boundaries if b >= 2]
    ready = {b: 0.0 for b in upper}
    finish = 0.0
    b1 = arch.level(1).bandwidth
    for t in range(n_tiles):
        for b in upper:
            ready[b] += level_bytes[b][t] / arch.level(b).bandwidth
        data_ready = max(ready.values()) if upper else 0.0
        start = max(data_ready, finish)
        stage = max(float(compute_steps[t]), level_bytes[1][t] / b1)
        finish = start + stage
    return CycleSimResult(cycles=finish, busy=busy, n_tiles=n_tiles)
