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
counters, in walk order: the walk enumerates them with
``itertools.product`` and hashes each state's key, instead of stepping
every iteration.  Only the L1 tiles' states are held in a list; longer
state sequences are read lazily.  No closed forms: every count is a
count of enumerated states, so the counts can arbitrate the
closed-form engine in ``mapping``.  Tile sizes and element widths are
not counts and come from the extent table built while validating the
mapping (``model.tile_extents``, which the closed forms read too) and
``mapping.output_bytes_per_element``.

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


def _repeats(keys) -> bool:
    """Whether a key repeats, reading ``keys`` up to the first repeat."""
    seen: set = set()
    for key in keys:
        if key in seen:
            return True
        seen.add(key)
    return False


class _Walk:
    """Shared literal walk over the temporal nest, one L1 tile at a time."""

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
        # watchers: per (operand, boundary) the counters whose values
        # identify the resident tile
        self.watchers: list[tuple[str, int]] = []
        self.positions: list[tuple[int, ...]] = []
        for op in wl.operands:
            rel = [(j, lv) for j, (lv, d, _) in enumerate(moving) if d in op.relevant]
            for b in self.boundaries:
                self.watchers.append((op.name, b))
                self.positions.append(tuple(j for j, lv in rel if lv >= b))

    def run(self) -> None:
        """Enumerate every watcher's fetch states, setting the event
        counts, in total and per tile."""
        ranges, n_outer = self.ranges, self.n_outer
        tiles = list(product(*ranges[:n_outer]))  # one state per L1 tile
        inner = ranges[n_outer:]  # the counters that move inside one tile
        steps = sum(1 for _ in product(*inner))
        # A watcher fires on every state of its counters [0, depth).  At
        # or outside the tile loops that is once in each tile its
        # counters moved into (True) and never in the others (False);
        # inside them, once per state of its inner counters, alike in
        # every tile.
        depths = [pos[-1] + 1 if pos else 0 for pos in self.positions]
        per_tile = {}
        for depth in dict.fromkeys(depths):
            if depth <= n_outer:
                per_tile[depth] = list(_moved(tiles, depth))
            else:
                fired = sum(1 for _ in product(*inner[:depth - n_outer]))
                per_tile[depth] = [fired] * len(tiles)
        # one tile id per fetch state; a single state never repeats
        revisits = {
            pos: bool(pos) and _repeats(map(itemgetter(*pos), product(*ranges[:depth])))
            for pos, depth in dict(zip(self.positions, depths)).items()
        }

        self.n_tiles = len(tiles)
        self.tile_steps = steps  # alike in every tile
        self.tile_event_counts = {
            (b, name): per_tile[depth] for (name, b), depth in zip(self.watchers, depths)
        }
        totals = {depth: sum(c) for depth, c in per_tile.items()}
        self.events = {
            (b, name): totals[depth] for (name, b), depth in zip(self.watchers, depths)
        }
        self.revisited = {
            (b, name): revisits[pos] for (name, b), pos in zip(self.watchers, self.positions)
        }

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
) -> EnumerationTrace:
    """Count every boundary crossing by enumerating, per watcher, the
    states of the nest's counters that change its tile."""
    walk = _Walk(arch, wl, mapping, cap)
    walk.run()
    per_event = walk.event_bytes()
    total_bytes = {key: walk.events[key] * per_event[key] for key in walk.events}
    return EnumerationTrace(
        events=dict(walk.events),
        bytes=total_bytes,
        revisited=dict(walk.revisited),
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

    # per-tile loads, summed per level in watcher order
    tile_compute = walk.tile_steps * passes
    level_bytes: dict[int, list[float]] = {
        b: [0.0] * n_tiles for b in walk.boundaries
    }
    for key, counts in walk.tile_event_counts.items():
        b = key[0]
        level_bytes[b] = list(map(add, level_bytes[b],
                                  map(mul, counts, repeat(per_event[key]))))

    busy: dict[str, float] = {"compute": float(tile_compute * n_tiles)}
    for b in walk.boundaries:
        busy[arch.level(b).name] = sum(level_bytes[b]) / arch.level(b).bandwidth

    if not overlap:
        total = busy["compute"] + sum(
            busy[arch.level(b).name] for b in walk.boundaries
        )
        return CycleSimResult(cycles=total, busy=busy, n_tiles=n_tiles)

    # overlapped: per-level prefetch pipelines feed a compute stage that
    # is itself bounded by L1 streaming.  Each upper level's data for
    # tile t is ready once it has moved every tile up to t.
    ready = [accumulate(map(truediv, level_bytes[b], repeat(arch.level(b).bandwidth)))
             for b in walk.boundaries[1:]]
    data_ready = map(max, zip(*ready)) if ready else repeat(0.0)
    stages = map(max, repeat(float(tile_compute)),
                 map(truediv, level_bytes[1], repeat(arch.level(1).bandwidth)))
    finish = 0.0
    for data, stage in zip(data_ready, stages):
        finish = max(data, finish) + stage
    return CycleSimResult(cycles=finish, busy=busy, n_tiles=n_tiles)
