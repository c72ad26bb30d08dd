"""Brute-force ground truth for the analytic reuse model.

``enumerate_accesses`` walks the mapped loop nest literally, one
innermost iteration at a time, keeping per (operand, boundary) the
loop-counter tuple that identifies the tile resident below that
boundary.  A fetch event fires whenever the tuple changes; a revisit
(the same tuple seen again later) marks partially accumulated output
tiles bouncing across the boundary.  No closed forms: the counts come
out of the walk, so they can arbitrate the closed-form engine in
``mapping``.  Tile sizes and element widths are not counts and come
from the shared ``model.tile_elements`` and
``mapping.output_bytes_per_element``.

``simulate_cycles`` replays the same walk as a discrete pipeline:
every memory level moves at most B_Li bytes/cycle, the array runs one
spatial step per cycle, and tile transfers either overlap compute
(double buffering) or serialize with it.

Both refuse iteration spaces above ``cap`` (default 2**20): this is a
desk-scale oracle, not a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .mapping import fold_passes, output_bytes_per_element
from .model import (
    OUTPUT,
    ArchSpec,
    InvalidMappingError,
    MappingSpec,
    WorkloadSpec,
    tile_elements,
    validate,
)

DEFAULT_CAP = 2**20


class IterationCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class TraceRecord:
    cycle: int
    level: int
    operand: str
    bytes: float


@dataclass
class EnumerationTrace:
    """Counted accesses per (boundary level, operand), plus optional
    per-event records for dumping."""

    events: dict[tuple[int, str], int]
    bytes: dict[tuple[int, str], float]
    revisited: dict[tuple[int, str], bool]
    records: list[TraceRecord] = field(default_factory=list)

    def dump_lines(self) -> list[str]:
        """One text record per event: ``cycle,level,operand,bytes``."""
        return [
            f"{r.cycle},{r.level},{r.operand},{r.bytes:g}" for r in self.records
        ]


@dataclass
class CycleSimResult:
    cycles: float
    busy: dict[str, float]  # per resource: "compute", "L1", "L2", ...
    n_tiles: int


def _check(arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec, cap: int) -> None:
    violations = validate(arch, wl, mapping)
    if violations:
        raise InvalidMappingError(violations)
    space = 1
    for _, _, trip in mapping.nest(arch.n_levels):
        space *= trip
    if space > cap:
        raise IterationCapExceeded(
            f"temporal iteration space {space} exceeds oracle cap {cap}"
        )


class _Walk:
    """Shared literal walk over the temporal nest."""

    def __init__(self, arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec,
                 cap: int, record: bool = False):
        _check(arch, wl, mapping, cap)
        self.wl = wl
        self.mapping = mapping
        n_levels = arch.n_levels
        # outermost level's loops outermost; spatial runs as one parallel step
        nest_inner_first = mapping.nest(n_levels)
        self.loops = list(reversed(nest_inner_first))  # outermost first
        self.trips = [t for _, _, t in self.loops]
        self.boundaries = list(range(1, n_levels + 1))

        # watchers: per (operand, boundary) the counter positions whose
        # values identify the resident tile
        self.watchers: list[tuple[str, int, tuple[int, ...]]] = []
        for op in wl.operands:
            rel = op.relevant
            for b in self.boundaries:
                positions = tuple(
                    j
                    for j, (lv, d, _) in enumerate(self.loops)
                    if lv >= b and d in rel
                )
                self.watchers.append((op.name, b, positions))
        # tile tracker: loops at levels >= 2 delimit L1 tiles
        self.tile_positions = tuple(
            j for j, (lv, _, _) in enumerate(self.loops) if lv >= 2
        )
        self.record = record

    def run(self) -> None:
        """Walk the nest once, setting the per-event and per-tile counts."""
        counters = [0] * len(self.loops)
        last: dict[tuple[str, int], tuple[int, ...] | None] = {
            (name, b): None for name, b, _ in self.watchers
        }
        seen: dict[tuple[str, int], set[tuple[int, ...]]] = {
            (name, b): set() for name, b, _ in self.watchers
        }
        events = {(b, name): 0 for name, b, _ in self.watchers}
        revisited = {(b, name): False for name, b, _ in self.watchers}
        tile_counts: dict[tuple[int, str], list[int]] = {
            (b, name): [] for name, b, _ in self.watchers
        }
        tile_steps: list[int] = []
        n_tiles = 0
        last_tile: tuple[int, ...] | None = None

        total = 1
        for t in self.trips:
            total *= t
        record_pending: list[tuple[int, int, str]] = []

        for cycle in range(total):
            tile_id = tuple(counters[j] for j in self.tile_positions)
            if tile_id != last_tile:
                last_tile = tile_id
                n_tiles += 1
                tile_steps.append(0)
                for key in tile_counts:
                    tile_counts[key].append(0)
            tile_steps[-1] += 1
            for name, b, positions in self.watchers:
                tid = tuple(counters[j] for j in positions)
                if tid != last[(name, b)]:
                    last[(name, b)] = tid
                    events[(b, name)] += 1
                    if tid in seen[(name, b)]:
                        revisited[(b, name)] = True
                    seen[(name, b)].add(tid)
                    tile_counts[(b, name)][-1] += 1
                    if self.record:
                        record_pending.append((cycle, b, name))
            # odometer: innermost loop is the last entry
            for j in range(len(counters) - 1, -1, -1):
                counters[j] += 1
                if counters[j] < self.trips[j]:
                    break
                counters[j] = 0

        self.events = events
        self.revisited = revisited
        self.tile_event_counts = tile_counts
        self.tile_steps = tile_steps
        self.n_tiles = n_tiles
        self._record_pending = record_pending

    def event_bytes(self) -> dict[tuple[int, str], float]:
        """Bytes per single event, fixed per (boundary, operand)."""
        out: dict[tuple[int, str], float] = {}
        for op in self.wl.operands:
            for b in self.boundaries:
                elements = tile_elements(self.mapping, op, b - 1)
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
    records: list[TraceRecord] = []
    if record_events:
        records = [
            TraceRecord(cycle, b, name, per_event[(b, name)])
            for cycle, b, name in walk._record_pending
        ]
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
