"""End-to-end evaluation of one scenario: access counts, intensities,
utilization, task cost, ceilings and the operating point in one result.

Two entry paths:

* ``analyze_mapping`` evaluates a concrete (arch, workload, mapping)
  triple, optionally under a sparsity traffic model;
* ``analyze_intensities`` places a workload known only by its
  per-level arithmetic intensities (no mapping, ideal utilization),
  which is how roofline positions are studied before a mapping exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .mapping import (
    AccessProfile,
    LatencyResult,
    Utilization,
    arithmetic_intensity,
    count_accesses,
    task_latency,
    utilization,
)
from .model import ArchSpec, MappingSpec, WorkloadSpec
from .roofline import (
    DEFAULT_REF_LEVEL,
    EnergyRoofline,
    OperatingPoint,
    ThroughputRoofline,
    _place_point,
    ai_ratios_from_profile,
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
    if sparsity is not None:
        effective_ops = sparsity.effective_ops
        profile = profile.scaled(sparsity.byte_scale)
        penalty = sparsity.bandwidth_penalty
    else:
        effective_ops = float(wl.n_op)
        penalty = 1.0

    ref = ref_level if ref_level is not None else min(DEFAULT_REF_LEVEL, arch.n_levels)
    ai_ref, ratios = ai_ratios_from_profile(profile, wl, ref, effective_ops)
    tp_curve = throughput_roofline(arch, ratios, mapping)
    e_curve = energy_roofline(arch, ratios)
    e_task = task_energy(arch, wl, profile)
    latency = task_latency(arch, wl, profile, overlap, mapping, penalty)
    util = utilization(arch, wl, mapping, profile, latency=latency)
    point = _place_point(arch, ref, ai_ref, tp_curve, e_curve, latency, effective_ops, e_task)
    ai = arithmetic_intensity(profile, wl)
    if sparsity is not None:
        # effective intensity: surviving ops over compressed traffic
        ai = {
            li: (effective_ops / b if b > 0 else math.inf)
            for li, b in profile.n_bytes.items()
        }
    return AnalysisResult(
        label=label,
        arch=arch,
        workload=wl,
        mapping=mapping,
        profile=profile,
        ai=ai,
        n_bytes=profile.n_bytes,
        utilization=util,
        effective_ops=effective_ops,
        e_task_pj=e_task,
        latency=latency,
        point=point,
        throughput_curve=tp_curve,
        energy_curve=e_curve,
    )


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
    profile = AccessProfile.from_intensities(wl.n_op, ai_per_level)
    ref = ref_level if ref_level is not None else min(DEFAULT_REF_LEVEL, arch.n_levels)
    ai_ref, ratios = ai_ratios_from_profile(profile, wl, ref)
    e_task = task_energy(arch, wl, profile)
    latency = task_latency(arch, wl, profile, overlap)
    tp_curve = throughput_roofline(arch, ratios)
    e_curve = energy_roofline(arch, ratios)
    point = _place_point(arch, ref, ai_ref, tp_curve, e_curve, latency, wl.n_op, e_task)
    return AnalysisResult(
        label=label,
        arch=arch,
        workload=wl,
        mapping=None,
        profile=profile,
        ai=dict(ai_per_level),
        n_bytes=profile.n_bytes,
        utilization=Utilization(1.0, latency.limiting_cycles / latency.cycles, 1.0),
        effective_ops=float(wl.n_op),
        e_task_pj=e_task,
        latency=latency,
        point=point,
        throughput_curve=tp_curve,
        energy_curve=e_curve,
    )
