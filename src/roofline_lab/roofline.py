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
reload stalls.  ``task_energy`` is the one E_task sum; every other
per-level term is ``mapping.ledger``'s, one pass over the levels that
lists the L_task terms (``task_latency`` reads only these) and each
level's entries in the two roofs below, which this module builds.

Both ceilings are plotted against the AI at one designated reference
level (default L2); the other levels enter through fixed ratios
r_i = AI_Li / AI_ref = N_ref / N_Li, which depend on the byte counts
alone:

    throughput  P_TP(ai) = min_i(r_i * ai * B_Li, cores * A_op)   ops/cycle
    efficiency  P_E(ai)  = 1 / (E_op + sum_i E_Li / (r_i*ai))     ops/pJ

where the L1 slope also counts the active cores.  Each roof keys its
slopes or terms by level name, in level order, and its knee and bound
labels are those keys.  The throughput roof has a sharp knee where the
slowest memory slope meets the compute plateau; the energy roof bends
smoothly and asymptotes at 1/E_op (ops/pJ, numerically equal to
TOPS/W).  ``from_slopes`` and ``from_terms`` derive each roof's knees
and asymptote, and ``at`` its value and bound at one AI.  Curves are
kept in ops/cycle and ops/pJ internally; seconds appear only at the
reporting boundary.  Charts draw each roof through vertices taken from
its closed form: the throughput roof's ends and knee, and the energy
roof bisected in log-log space to within CHORD_TOL_DECADES.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .mapping import (  # task_latency and LatencyResult are re-exported here
    AccessProfile,
    LatencyResult,
    task_latency,
)
from .model import ArchSpec, MappingSpec, Record, WorkloadSpec, _set

REL_TOL = 1e-9
DEFAULT_REF_LEVEL = 2
CHORD_TOL_DECADES = 1e-3  # energy polyline vs its roof, log-log


class RooflineCurve(Record):
    """A closed-form ceiling with its break points.

    Each subclass fixes ``kind``: "throughput" (ops/cycle) or "energy"
    (ops/pJ), and keys its per-level dict by level name, in level order.
    ``knees`` carries (ai_ref, label): for the throughput roof the
    single memory-to-compute transition labelled with the limiting
    level; for the energy roof the per-level AI where that level's
    energy share drops to the compute share.
    """

    kind: str
    _fields = ("knees", "asymptote")
    __slots__ = _fields + ("__dict__",)  # samples is cached there

    def __init__(self, knees: tuple[tuple[float, str], ...],
                 asymptote: float):  # plateau ops/cycle, or 1/E_op ops/pJ
        _set(self, "knees", knees)
        _set(self, "asymptote", asymptote)

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
    kind = "throughput"
    __slots__ = ("slopes",)
    _fields = RooflineCurve._fields + __slots__

    def __init__(self, knees: tuple[tuple[float, str], ...], asymptote: float,
                 slopes: dict[str, float]):  # r_i * B_Li
        _set(self, "knees", knees)
        _set(self, "asymptote", asymptote)
        _set(self, "slopes", slopes)

    @classmethod
    def from_slopes(cls, arch: ArchSpec, slopes: dict[str, float],
                    mapping: MappingSpec | None = None) -> "ThroughputRoofline":
        """The roof over a ledger's slopes: plateau cores * A_op (one
        core without a mapping), knee where the smallest slope meets it."""
        plateau = float(arch.array.a_op) * (mapping.cores if mapping is not None else 1)
        if not slopes:
            return cls((), plateau, slopes)
        limit = min(slopes, key=slopes.get)
        return cls(((plateau / slopes[limit], limit),), plateau, slopes)

    def at(self, ai_ref: float) -> tuple[float, str]:
        """The roof and its bound at one AI.  The smallest slope limits;
        a tie goes to the first key, nearest the array."""
        if self.slopes:
            level = min(self.slopes, key=self.slopes.get)
            memory = self.slopes[level] * ai_ref
            if memory < self.asymptote:
                return memory, f"memory-bound({level})"
        return self.asymptote, "compute-bound"

    def value_at(self, ai_ref: float) -> float:
        return self.at(ai_ref)[0]

    def bound_at(self, ai_ref: float) -> str:
        return self.at(ai_ref)[1]

    def _vertices(self, ais: list[float]) -> tuple[tuple[float, float], ...]:
        """Two straight log-log lines: the ends and the knee are exact."""
        return tuple((ai, self.value_at(ai)) for ai in ais)


class EnergyRoofline(RooflineCurve):
    kind = "energy"
    __slots__ = ("e_op", "terms")
    _fields = RooflineCurve._fields + __slots__

    def __init__(self, knees: tuple[tuple[float, str], ...], asymptote: float,
                 e_op: float, terms: dict[str, float]):  # E_Li / r_i
        _set(self, "knees", knees)
        _set(self, "asymptote", asymptote)
        _set(self, "e_op", e_op)
        _set(self, "terms", terms)

    @classmethod
    def from_terms(cls, arch: ArchSpec, terms: dict[str, float]) -> "EnergyRoofline":
        """The roof over a ledger's energy terms: asymptote 1/E_op, and a
        bend per level where its term equals the compute term, at
        AI_ref = (E_Li/r_i)/E_op."""
        e_op = arch.array.energy_per_op
        if e_op > 0:
            knees = sorted([(term / e_op, name) for name, term in terms.items()])
            return cls(tuple(knees), 1.0 / e_op, e_op, terms)
        if not any(lvl.energy_per_byte for lvl in arch.levels):
            raise ValueError(
                "energy_per_op and the energy_per_byte of every level "
                f"({', '.join(lvl.name for lvl in arch.levels)}) are all 0: "
                "ops/pJ and the energy roof are undefined")
        return cls((), math.inf, e_op, terms)

    def value_at(self, ai_ref: float) -> float:
        return 1.0 / (self.e_op + self.memory_share(ai_ref))

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
        return sum([t / ai_ref for t in self.terms.values()])

    def at(self, ai_ref: float) -> tuple[float, str]:
        """The roof and its bound at one AI, from one summed memory term.
        The largest term limits; a tie goes to the first key, nearest
        the array."""
        share = self.memory_share(ai_ref)
        if share > self.e_op:
            bound = f"memory-bound({max(self.terms, key=self.terms.get)})"
        else:
            bound = "compute-bound"
        return 1.0 / (self.e_op + share), bound

    def bound_at(self, ai_ref: float) -> str:
        return self.at(ai_ref)[1]


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
