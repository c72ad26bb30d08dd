"""End-to-end evaluation of one design point: access counts, intensities,
utilization, task cost, ceilings and the operating point in one result.

One private evaluator turns an access profile into an
``AnalysisResult``; the entry paths only build that profile:

* ``analyze_mapping`` counts the accesses of a concrete (arch,
  workload, mapping) triple, optionally under a sparsity traffic model;
* ``analyze_intensities`` synthesizes them from per-level arithmetic
  intensities (no mapping, ideal utilization), which is how roofline
  positions are studied before a mapping exists;
* ``operating_point`` is the point of ``analyze_mapping``.

Per-level AI is the effective op count over the bytes moved.  Under
sparsity that is surviving ops over compressed bytes, since only MACs
with nonzeros in every sparse input count toward intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mapping import (
    AccessProfile,
    LatencyResult,
    Utilization,
    count_accesses,
    task_latency,
    utilization,
)
from .model import ArchSpec, MappingSpec, WorkloadSpec
from .roofline import (
    DEFAULT_REF_LEVEL,
    REL_TOL,
    EnergyRoofline,
    OperatingPoint,
    ThroughputRoofline,
    energy_roofline,
    task_energy,
    throughput_roofline,
)
from .transforms import SparsityModel


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the reports print for one scenario."""

    label: str
    arch: ArchSpec
    workload: WorkloadSpec
    mapping: MappingSpec | None
    profile: AccessProfile
    ai: dict[int, float]
    n_bytes: dict[int, float]
    utilization: Utilization
    effective_ops: float
    e_task_pj: float
    latency: LatencyResult
    point: OperatingPoint
    throughput_curve: ThroughputRoofline
    energy_curve: EnergyRoofline

    @property
    def bottleneck(self) -> str:
        return (
            f"throughput {self.point.throughput_bound}; "
            f"energy {self.point.energy_bound}"
        )


def _evaluate(
    arch: ArchSpec,
    wl: WorkloadSpec,
    mapping: MappingSpec | None,
    profile: AccessProfile,
    effective_ops: float,
    bandwidth_penalty: float,
    label: str,
    ref_level: int | None,
    overlap: str | None,
) -> AnalysisResult:
    """Both roofs, task energy and latency, utilization and the point
    (effective ops / L_task against the roofs at the reference AI)."""
    ref = ref_level if ref_level is not None else min(DEFAULT_REF_LEVEL, arch.n_levels)
    if not 1 <= ref <= arch.n_levels:
        raise ValueError(
            f"reference level {ref} is outside the architecture's levels 1..{arch.n_levels}"
        )
    n_bytes = profile.n_bytes
    ai = {li: (effective_ops / b if b > 0 else math.inf) for li, b in n_bytes.items()}
    # r_i = AI_Li / AI_ref, from the byte counts alone
    ratios = {li: (n_bytes[ref] / b if b > 0 else math.inf) for li, b in n_bytes.items()}
    tp_curve = throughput_roofline(arch, ratios, mapping)
    e_curve = energy_roofline(arch, ratios)
    e_task = task_energy(arch, wl, profile)
    latency = task_latency(arch, wl, profile, overlap, mapping, bandwidth_penalty)
    if mapping is None:
        util = Utilization(1.0, latency.limiting_cycles / latency.cycles, 1.0)
    else:
        util = utilization(arch, wl, mapping, profile, latency=latency)

    ai_ref = ai[ref]
    ops_per_cycle = effective_ops / latency.cycles
    ceiling_tp = tp_curve.value_at(ai_ref)
    if ops_per_cycle > ceiling_tp * (1.0 + REL_TOL):
        raise AssertionError(
            f"attained {ops_per_cycle} ops/cycle exceeds ceiling {ceiling_tp}"
        )
    point = OperatingPoint(
        ai_ref=ai_ref,
        ref_level=ref,
        ops_per_cycle=ops_per_cycle,
        attained_efficiency=effective_ops / e_task,
        throughput_ceiling=ceiling_tp,
        efficiency_ceiling=e_curve.value_at(ai_ref),
        throughput_bound=tp_curve.bound_at(ai_ref),
        energy_bound=e_curve.bound_at(ai_ref),
    )
    return AnalysisResult(
        label=label,
        arch=arch,
        workload=wl,
        mapping=mapping,
        profile=profile,
        ai=ai,
        n_bytes=n_bytes,
        utilization=util,
        effective_ops=effective_ops,
        e_task_pj=e_task,
        latency=latency,
        point=point,
        throughput_curve=tp_curve,
        energy_curve=e_curve,
    )


def analyze_mapping(
    arch: ArchSpec,
    wl: WorkloadSpec,
    mapping: MappingSpec,
    label: str = "",
    ref_level: int | None = None,
    sparsity: SparsityModel | None = None,
    overlap: str | None = None,
) -> AnalysisResult:
    profile = count_accesses(arch, wl, mapping)
    effective_ops, penalty = float(wl.n_op), 1.0
    if sparsity is not None:
        profile = profile.scaled(sparsity.byte_scale)
        effective_ops, penalty = sparsity.effective_ops, sparsity.bandwidth_penalty
    return _evaluate(arch, wl, mapping, profile, effective_ops, penalty,
                     label, ref_level, overlap)


def analyze_intensities(
    arch: ArchSpec,
    wl: WorkloadSpec,
    ai_per_level: dict[int, float],
    label: str = "",
    ref_level: int | None = None,
    overlap: str | None = None,
) -> AnalysisResult:
    """Roofline placement from per-level AI alone: no mapping, so full
    spatial and core utilization and the ideal latency."""
    levels, given = set(range(1, arch.n_levels + 1)), set(ai_per_level)
    if given != levels:
        raise ValueError(
            f"ai_profile levels must be exactly 1..{arch.n_levels}: "
            f"missing {sorted(levels - given)}, extra {sorted(given - levels)}")
    profile = AccessProfile.from_intensities(wl.n_op, ai_per_level)
    return _evaluate(arch, wl, None, profile, float(wl.n_op), 1.0,
                     label, ref_level, overlap)


def operating_point(
    arch: ArchSpec,
    wl: WorkloadSpec,
    mapping: MappingSpec,
    ref_level: int | None = None,
    overlap: str | None = None,
) -> OperatingPoint:
    """Attained (AI, throughput, efficiency) of a mapped workload and
    its position against both ceilings.  The attained point can only
    fall below the roofs; equality holds for a perfectly utilized
    mapping."""
    return analyze_mapping(arch, wl, mapping, ref_level=ref_level, overlap=overlap).point
