"""Dual roofline models: task energy, task latency, attainable
throughput and attainable energy efficiency as functions of
arithmetic intensity.

Task cost from an access profile:

    E_task = N_op * E_op + sum_i N_Li * E_Li                  (pJ)
    L_task = (1/f) * max(N_Ln/B_Ln, ..., N_L1/(c*B_L1), C) + R

in overlapped mode; serialized hardware adds the terms instead of
overlapping them.  Without a mapping c = 1, C = N_op/A_op and R = 0.
With one (the reported, mapped latency) c is the number of active
cores (L1 is per core), C counts one cycle per temporal step and fold
pass divided by the array's throughput scale, every B_Li is de-rated
by the sparsity bandwidth penalty, and R holds the serialized weight
reload stalls.  ``task_latency`` (in ``mapping``) is that one term
list; the operating point and the temporal utilization derive from it.
This module holds the roofs and the point's record; ``analysis``
places the point, in one evaluator shared by every entry path.

Both ceilings are plotted against the AI at one designated reference
level (default L2); the other levels enter through fixed ratios
r_i = AI_Li / AI_ref = N_ref / N_Li, which depend on the byte counts
alone:

    throughput  P_TP(ai) = min_i(r_i * ai * B_Li, cores * A_op)   ops/cycle
    efficiency  P_E(ai)  = 1 / (E_op + sum_i E_Li / (r_i*ai))     ops/pJ

where the L1 slope also counts the active cores.  The throughput roof
has a sharp knee where the slowest memory slope meets the compute
plateau; the energy roof bends smoothly and asymptotes at 1/E_op
(ops/pJ, numerically equal to TOPS/W).  Curves are kept in ops/cycle
and ops/pJ internally; seconds appear only at the reporting boundary.
Charts draw each roof through vertices taken from its closed form:
the throughput roof's ends and knee, and the energy roof bisected in
log-log space to within CHORD_TOL_DECADES.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .mapping import (  # task_latency and LatencyResult are re-exported here
    AccessProfile,
    LatencyResult,
    active_cores,
    task_latency,
)
from .model import ArchSpec, MappingSpec, Record, WorkloadSpec, _set

REL_TOL = 1e-9
DEFAULT_REF_LEVEL = 2
CHORD_TOL_DECADES = 1e-3  # energy polyline vs its roof, log-log


class RooflineCurve(Record):
    """A closed-form ceiling with its break points.

    ``kind`` is "throughput" (ops/cycle) or "energy" (ops/pJ).
    ``knees`` carries (ai_ref, label): for the throughput roof the
    single memory-to-compute transition labelled with the limiting
    level; for the energy roof the per-level AI where that level's
    energy share drops to the compute share.
    """

    _fields = ("kind", "knees", "asymptote")
    __slots__ = _fields + ("__dict__",)  # samples is cached there

    def __init__(self, kind: str, knees: tuple[tuple[float, str], ...],
                 asymptote: float):  # plateau ops/cycle, or 1/E_op ops/pJ
        _set(self, "kind", kind)
        _set(self, "knees", knees)
        _set(self, "asymptote", asymptote)

    def value_at(self, ai_ref: float) -> float:
        raise NotImplementedError

    @cached_property
    def samples(self) -> tuple[tuple[float, float], ...]:
        """(ai_ref, value) chart vertices from the whole decade two below
        the lowest knee to the one two above the highest, the knees
        among them.  Computed on first read; only charts need it."""
        knee_ais = [ai for ai, _ in self.knees]
        span = knee_ais or [1.0]
        lo = 10.0 ** math.floor(math.log10(min(span) / 100.0))
        hi = 10.0 ** math.ceil(math.log10(max(span) * 100.0))
        return self._vertices(sorted({lo, hi, *knee_ais}))


class ThroughputRoofline(RooflineCurve):
    __slots__ = ("slopes", "level_names")
    _fields = RooflineCurve._fields + __slots__

    def __init__(self, kind: str, knees: tuple[tuple[float, str], ...],
                 asymptote: float,
                 slopes: dict[int, float],  # r_i * B_Li
                 level_names: dict[int, str]):
        RooflineCurve.__init__(self, kind, knees, asymptote)
        _set(self, "slopes", slopes)
        _set(self, "level_names", level_names)

    def value_at(self, ai_ref: float) -> float:
        if not self.slopes:
            return self.asymptote
        return min(min([s * ai_ref for s in self.slopes.values()]), self.asymptote)

    def _vertices(self, ais: list[float]) -> tuple[tuple[float, float], ...]:
        """Two straight log-log lines: the ends and the knee are exact."""
        return tuple((ai, self.value_at(ai)) for ai in ais)

    def bound_at(self, ai_ref: float) -> str:
        if not self.slopes:
            return "compute-bound"
        level, slope = min(self.slopes.items(), key=lambda kv: kv[1])
        if slope * ai_ref < self.asymptote:
            return f"memory-bound({self.level_names[level]})"
        return "compute-bound"


class EnergyRoofline(RooflineCurve):
    __slots__ = ("e_op", "terms", "level_names")
    _fields = RooflineCurve._fields + __slots__

    def __init__(self, kind: str, knees: tuple[tuple[float, str], ...],
                 asymptote: float, e_op: float,
                 terms: dict[int, float],  # E_Li / r_i
                 level_names: dict[int, str]):
        RooflineCurve.__init__(self, kind, knees, asymptote)
        _set(self, "e_op", e_op)
        _set(self, "terms", terms)
        _set(self, "level_names", level_names)

    def value_at(self, ai_ref: float) -> float:
        return 1.0 / (self.e_op + sum([t / ai_ref for t in self.terms.values()]))

    def _vertices(self, ais: list[float]) -> tuple[tuple[float, float], ...]:
        """Bisect each segment in log-log space, left to right, while the
        roof at its geometric midpoint lies more than CHORD_TOL_DECADES
        from the chord.  ``pending`` holds the right ends still to reach."""
        pending = [(ai, self.value_at(ai)) for ai in reversed(ais)]
        out = [pending.pop()]
        while pending:
            (a, va), (b, vb) = out[-1], pending[-1]
            m = a * math.sqrt(b / a)
            vm = self.value_at(m)
            # half this log10 is the midpoint's log-log distance from the chord
            if abs(math.log10((vm / va) * (vm / vb))) > 2 * CHORD_TOL_DECADES:
                pending.append((m, vm))
            else:
                out.append(pending.pop())
        return tuple(out)

    def memory_share(self, ai_ref: float) -> float:
        """Summed per-level energy terms at this AI, in pJ/op."""
        return sum(t / ai_ref for t in self.terms.values())

    def bound_at(self, ai_ref: float) -> str:
        if self.memory_share(ai_ref) > self.e_op:
            level = max(self.terms.items(), key=lambda kv: (kv[1], -kv[0]))[0]
            return f"memory-bound({self.level_names[level]})"
        return "compute-bound"


class OperatingPoint(NamedTuple):
    """Where a concrete mapped workload lands under the two roofs."""

    ai_ref: float
    ref_level: int
    ops_per_cycle: float
    attained_efficiency: float  # ops/pJ
    throughput_ceiling: float  # ops/cycle at ai_ref
    efficiency_ceiling: float  # ops/pJ at ai_ref
    throughput_bound: str
    energy_bound: str


def task_energy(arch: ArchSpec, wl: WorkloadSpec, profile: AccessProfile) -> float:
    """Total task energy in pJ: compute term plus per-level traffic."""
    energy = wl.n_op * arch.array.energy_per_op
    n_bytes = profile.n_bytes
    for lvl in arch.levels:
        energy += n_bytes[lvl.level_index] * lvl.energy_per_byte
    return energy


def throughput_roofline(
    arch: ArchSpec, ai_ratios: dict[int, float], mapping: MappingSpec | None = None
) -> ThroughputRoofline:
    """Attainable ops/cycle over reference AI; knee where the limiting
    memory slope meets the compute plateau.  With a mapping the plateau
    is cores * A_op and the per-core L1 slope counts the active cores."""
    cores = mapping.cores if mapping is not None else 1
    l1_share = active_cores(mapping) if mapping is not None else 1
    plateau = float(arch.array.a_op) * cores
    slopes = {
        lvl.level_index: ai_ratios[lvl.level_index] * lvl.bandwidth
        * (l1_share if lvl.level_index == 1 else 1)
        for lvl in arch.levels
        if math.isfinite(ai_ratios[lvl.level_index])
    }
    knees = []
    if slopes:
        limit_level, limit_slope = min(slopes.items(), key=lambda kv: kv[1])
        knees.append((plateau / limit_slope, arch.level(limit_level).name))
    return ThroughputRoofline(
        kind="throughput",
        knees=tuple(knees),
        asymptote=plateau,
        slopes=slopes,
        level_names={lvl.level_index: lvl.name for lvl in arch.levels},
    )


def energy_roofline(arch: ArchSpec, ai_ratios: dict[int, float]) -> EnergyRoofline:
    """Attainable ops/pJ over reference AI; smooth, asymptote 1/E_op.

    The reported bends are the per-level AIs where that level's energy
    term equals the compute term, i.e. AI_Li = E_Li/E_op.
    """
    e_op = arch.array.energy_per_op
    if e_op == 0 and not any(lvl.energy_per_byte for lvl in arch.levels):
        raise ValueError(
            "energy_per_op and the energy_per_byte of every level "
            f"({', '.join(lvl.name for lvl in arch.levels)}) are all 0: "
            "ops/pJ and the energy roof are undefined")
    terms = {
        lvl.level_index: lvl.energy_per_byte / ai_ratios[lvl.level_index]
        for lvl in arch.levels
        if math.isfinite(ai_ratios[lvl.level_index]) and lvl.energy_per_byte > 0
    }
    knees = []
    if e_op > 0:
        knees = [(term / e_op, arch.level(li).name) for li, term in terms.items()]
    return EnergyRoofline(
        kind="energy",
        knees=tuple(sorted(knees)),
        asymptote=(1.0 / e_op if e_op > 0 else math.inf),
        e_op=e_op,
        terms=terms,
        level_names={lvl.level_index: lvl.name for lvl in arch.levels},
    )
