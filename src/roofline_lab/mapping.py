"""Analytic reuse analysis: stationarity, per-level access counts,
arithmetic intensity and utilization for a mapped loop nest.

The traffic model is the stationary-buffer model: each memory level
holds exactly one tile per operand (the tile spanned by all loops
below that level), and that tile is reused only across *consecutive*
iterations that do not index the operand.  There is no cache: when an
operand-irrelevant loop encloses an operand-relevant one, every
iteration of the outer loop re-fetches the tiles swept inside it.

Under that model the number of tile fetches across the boundary
between Li and L(i-1) has a closed form.  Among the temporal loops at
levels >= i, find the innermost loop that is relevant to the operand
and actually iterates (trip > 1).  Loops inside it never change the
tile; every loop from it outward - relevant or not - advances or
re-sweeps the tile, so

    fetch events = product of trip counts from that loop outward,

or 1 when no such loop exists (the operand's whole footprint crosses
the boundary once).  Spatial unrolls and the core split sit below all
temporal loops: on relevant dims they widen the tile, on irrelevant
dims they multicast (inputs) or reduce (outputs) for free.

Output operands accumulate across loops that do not index them.  When
such a reduction loop encloses the innermost output-relevant loop at
levels >= i, partially accumulated tiles recross boundary i and every
fetch event costs a read plus a write; once no reduction iterations
remain outside (at or above the accumulation-completion boundary),
each event is a single write of a finished tile.  Partial sums move at
the accumulator width; finished tiles above the completion boundary
move at the declared output width.

``count_accesses`` finds every boundary's fetch events and pending
reduction in one walk per operand over the temporal loops, outermost
first: after the loops of level i, the walk's state answers boundary i.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .model import (
    COMPUTE,
    OUTPUT,
    RELOAD,
    SERIALIZED,
    ArchSpec,
    MappingSpec,
    OperandSpec,
    Record,
    WorkloadSpec,
    _set,
    tile_elements,
    valid_tile_extents,
)

class OperandTraffic(NamedTuple):
    """Traffic of one operand across one level boundary."""

    events: int  # tile fetches
    elements_per_event: int
    bytes_per_element: float
    access_factor: int  # 1 = single transfer, 2 = partial-sum read+write

    @property
    def bytes(self) -> float:
        return self.events * self.elements_per_event * self.bytes_per_element * self.access_factor


class AccessProfile(Record):
    """Per-boundary access counts for every operand.

    ``traffic[(level, operand)]`` describes the crossings of the
    boundary between that level and the one below it; ``n_bytes[level]``
    is the summed byte count N_Li used by the roofline equations, summed
    here at construction (it is derived, so it is not a field).  It
    holds counts only: N_op is the workload's, and the resident operand
    per level is ``derive_stationarity``'s.
    """

    _fields = ("levels", "traffic")
    __slots__ = _fields + ("n_bytes",)

    def __init__(self, levels: tuple[int, ...],
                 traffic: dict[tuple[int, str], OperandTraffic]):
        n_bytes: dict[int, float] = {li: 0.0 for li in levels}
        for (li, _), (events, elements, bpe, factor) in traffic.items():
            n_bytes[li] += events * elements * bpe * factor
        _set(self, "levels", levels)
        _set(self, "traffic", traffic)
        _set(self, "n_bytes", n_bytes)

    def scaled(self, byte_scale: dict[str, float]) -> "AccessProfile":
        """A copy with per-operand byte widths rescaled (sparsity model)."""
        new = {
            key: OperandTraffic(
                t.events,
                t.elements_per_event,
                t.bytes_per_element * byte_scale.get(key[1], 1.0),
                t.access_factor,
            )
            for key, t in self.traffic.items()
        }
        return AccessProfile(self.levels, new)

    @classmethod
    def from_intensities(
        cls, n_op: int, ai_per_level: dict[int, float]
    ) -> "AccessProfile":
        """Synthesize a profile from per-level arithmetic intensities.

        Used when only the AI ratios of a workload are known (roofline
        placement without a concrete mapping): all bytes are booked to a
        single pseudo-operand per level.
        """
        traffic = {
            (li, "all"): OperandTraffic(1, 1, n_op / ai, 1)
            for li, ai in ai_per_level.items()
        }
        return cls(tuple(sorted(ai_per_level)), traffic)


class Utilization(NamedTuple):
    """Multiplicative decomposition of compute under-use."""

    spatial: float
    temporal: float
    core: float

    @property
    def total(self) -> float:
        return self.spatial * self.temporal * self.core


def derive_stationarity(wl: WorkloadSpec, mapping: MappingSpec) -> dict[int, str | None]:
    """Which operand stays resident toward the level below, per level.

    The innermost temporal loop of a level determines its temporal
    reuse: an operand whose index does not depend on that loop keeps
    its tile in place across the loop's iterations.  At most one
    operand is reported per level; if several qualify the output-like
    one wins (its word width makes the reuse worth the most), then
    declaration order.
    """
    out: dict[int, str | None] = {}
    for li, loops in enumerate(mapping.temporal, 1):
        innermost = next((dim for dim, trip in loops if trip > 1), None)
        if innermost is None:
            out[li] = None
            continue
        candidates = [op for op in wl.operands if innermost not in op.relevant]
        if not candidates:
            out[li] = None
            continue
        outputs = [op for op in candidates if op.role == OUTPUT]
        out[li] = (outputs[0] if outputs else candidates[0]).name
    return out


def output_bytes_per_element(op: OperandSpec, boundary: int, partial_below: bool) -> float:
    """Width of an output element crossing ``boundary``.  Partial sums
    travel at accumulator width up to and including the completion
    boundary (``partial_below``: partial tiles still cross the boundary
    beneath); finished values above it at storage width."""
    if boundary == 1 or partial_below:
        return op.accum_bytes_per_element
    return op.bytes_per_element  # type: ignore[return-value]


def count_accesses(
    arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec
) -> AccessProfile:
    """Closed-form access counts per (operand, level boundary).

    One walk per operand over the loops that iterate, outermost first,
    keeps the product of their trips: at a relevant loop it becomes the
    fetch events of the boundaries at or below that loop's level, with
    a pending reduction if a reduction loop came before, until a
    relevant loop further in takes over.  N_Li is summed as the
    ``AccessProfile`` is built.

    Rejects invalid mappings.  A pinned operand (weights resident in
    the compute array) moves no bytes across the L1 boundary, though
    its fetch-event count is still reported so reload stalls can be
    derived from it.
    """
    extents = valid_tile_extents(arch, wl, mapping)
    n_levels = arch.n_levels
    temporal = mapping.temporal[:n_levels]
    levels = tuple(range(1, n_levels + 1))
    new = tuple.__new__  # half the cost of OperandTraffic's generated __new__
    traffic: dict[tuple[int, str], OperandTraffic] = {}

    for op in wl.operands:
        rel = op.relevant
        output = op.role == OUTPUT
        # (fetch events, pending reduction) per boundary, level 1 first
        walked = [(1, False)] * n_levels
        events, pending, reducing, trips = 1, False, False, 1
        for li in range(len(temporal), 0, -1):
            for dim, trip in reversed(temporal[li - 1]):
                if trip > 1:
                    trips *= trip
                    if dim in rel:
                        events, pending = trips, reducing
                    else:
                        reducing = True
            walked[li - 1] = (events, pending)
        partial_below = False
        for li, (events, pending) in zip(levels, walked):
            elements = tile_elements(extents[li - 1], op)
            if output:
                factor = 2 if pending else 1
                bpe = output_bytes_per_element(op, li, partial_below)
                partial_below = pending
            else:
                factor = 1
                bpe = op.bytes_per_element  # type: ignore[assignment]
            if li == 1 and mapping.pinned_operand == op.name:
                bpe = 0.0
            traffic[(li, op.name)] = new(OperandTraffic, (events, elements, bpe, factor))

    return AccessProfile(levels, traffic)


def spatial_utilization(arch: ArchSpec, mapping: MappingSpec) -> float:
    """Fraction of MAC lattice points doing useful work each cycle.

    Each axis contributes mapped/physical; a dim folded onto a smaller
    axis averages its partial final pass: m elements over ceil(m/M)
    passes of an M-wide axis occupy m / (ceil(m/M) * M).
    """
    util = 1.0
    mapped = {u.axis: u.factor for u in mapping.spatial}
    for axis, size in arch.array.dims:
        m = mapped.get(axis, 1)
        util *= m / (math.ceil(m / size) * size)
    return util


def fold_passes(arch: ArchSpec, mapping: MappingSpec) -> int:
    """Array passes per temporal step when unrolls exceed axis sizes."""
    passes = 1
    for u in mapping.spatial:
        passes *= math.ceil(u.factor / arch.array.axis_size(u.axis))
    return passes


def temporal_steps(arch: ArchSpec, mapping: MappingSpec) -> int:
    """Compute cycles per core: one per temporal iteration and fold pass."""
    steps = fold_passes(arch, mapping)
    for loops in mapping.temporal[:arch.n_levels]:
        for _, trip in loops:
            steps *= trip
    return steps


def reload_stall_cycles(profile: AccessProfile, mapping: MappingSpec) -> int:
    """Serialized array-load stalls: tiles of the pinned operand times
    the per-tile reload cost.  Zero when reloads are double buffered."""
    if mapping.pinned_operand is None or mapping.reload_cycles_per_tile is None:
        return 0
    tiles = profile.traffic[(1, mapping.pinned_operand)].events
    return tiles * mapping.reload_cycles_per_tile


def active_cores(mapping: MappingSpec) -> int:
    """Cores that receive a slice of the core split (``validate``
    keeps the split within ``mapping.cores``)."""
    if mapping.core_split is None:
        return 1
    return mapping.core_split[1]


class LatencyResult(NamedTuple):
    """Task latency with the (resource, cycles) terms it combines:
    one per level, "compute", and "reload" when reloads stall."""

    seconds: float
    cycles: float
    limiter: str  # the largest level or compute term
    terms: tuple[tuple[str, float], ...]

    @property
    def limiting_cycles(self) -> float:
        return dict(self.terms)[self.limiter]


def task_latency(
    arch: ArchSpec,
    wl: WorkloadSpec,
    profile: AccessProfile,
    mapping: MappingSpec | None = None,
    bandwidth_penalty: float = 1.0,
) -> LatencyResult:
    """Task latency from one list of (resource, cycles) terms.

    Each level moves its bytes at its bandwidth times the de-rating
    ``bandwidth_penalty``; L1 is replicated per core, so active cores
    drain its traffic in parallel while levels above it are shared.
    Compute takes N_op/A_op cycles without a mapping, and with one a
    cycle per temporal step and fold pass at the array's throughput
    scale.  The mode is the architecture's ``latency_overlap`` and
    nothing else.  Overlapped: the slowest resource hides the rest and
    the limiter names it.  Serialized: the terms add.  Serialized weight
    reloads add to either.
    """
    cores = active_cores(mapping) if mapping is not None else 1
    n_bytes = profile.n_bytes
    terms = [
        (lvl.name, n_bytes[lvl.level_index]
         / (lvl.bandwidth * bandwidth_penalty * (cores if lvl.level_index == 1 else 1)))
        for lvl in arch.levels
    ]
    if mapping is None:
        terms.append((COMPUTE, wl.n_op / arch.array.a_op))
        stalls = 0.0
    else:
        terms.append((COMPUTE, temporal_steps(arch, mapping) / arch.array.throughput_scale))
        stalls = float(reload_stall_cycles(profile, mapping))
    limiter, cycles = max(terms, key=lambda kv: kv[1])
    if arch.latency_overlap == SERIALIZED:
        cycles = sum(c for _, c in terms)
    if stalls:
        terms.append((RELOAD, stalls))
        cycles += stalls
    return LatencyResult(cycles / arch.clock, cycles, limiter, tuple(terms))


def utilization(
    arch: ArchSpec,
    wl: WorkloadSpec,
    mapping: MappingSpec,
    profile: AccessProfile,
    latency: LatencyResult | None = None,
) -> Utilization:
    """Spatial x temporal x core utilization of the mapped workload.

    Temporal utilization is the limiting term's share of the task
    latency (``latency``, else ``task_latency`` of this mapping): what
    serialized transfers and reloads add on top of it is stall time.
    """
    if latency is None:
        latency = task_latency(arch, wl, profile, mapping=mapping)
    return Utilization(
        spatial=spatial_utilization(arch, mapping),
        temporal=latency.limiting_cycles / latency.cycles,
        core=active_cores(mapping) / mapping.cores,
    )
