"""End-to-end evaluation of one design point: access counts, intensities,
utilization, task cost, ceilings and the operating point in one result.

Evaluation has two stages, as the dual roofline separates what the
mapping fixes from what the architecture fixes.  The traffic stage
builds a ``Traffic`` record: ``mapped_traffic`` counts the accesses of
a concrete mapping, optionally under a sparsity traffic model, and
``intensity_traffic`` synthesizes them from per-level arithmetic
intensities (no mapping, ideal utilization), which is how roofline
positions are studied before a mapping exists.  The cost stage, one
private evaluator, prices that record: both roofs, task energy and
latency, utilization and the point.  ``analyze_mapping`` and
``analyze_intensities`` run both stages; ``operating_point`` is the
point of ``analyze_mapping``.

Per-level AI is the effective op count over the bytes moved.  Under
sparsity that is surviving ops over compressed bytes, since only MACs
with nonzeros in every sparse input count toward intensity.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .mapping import (
    AccessProfile,
    LatencyResult,
    Utilization,
    count_accesses,
    task_latency,
    utilization,
)
from .model import (
    ArchSpec,
    InvalidMappingError,
    MappingSpec,
    WorkloadSpec,
    arch_violations,
    workload_violations,
)
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


class Traffic(NamedTuple):
    """The traffic stage's result, which the cost stage prices: the
    architecture, workload and mapping after any transforms, the
    sparsity model and the access profile."""

    arch: ArchSpec
    workload: WorkloadSpec
    mapping: MappingSpec | None
    sparsity: SparsityModel | None
    profile: AccessProfile


class AnalysisResult(NamedTuple):
    """Everything the reports print for one scenario."""

    label: str
    arch: ArchSpec
    workload: WorkloadSpec
    mapping: MappingSpec | None
    profile: AccessProfile
    ai: dict[int, float]
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


def mapped_traffic(
    arch: ArchSpec,
    wl: WorkloadSpec,
    mapping: MappingSpec,
    sparsity: SparsityModel | None = None,
    count: Callable[[ArchSpec, WorkloadSpec, MappingSpec], AccessProfile] | None = None,
) -> Traffic:
    """The traffic stage of a mapped workload: the access profile from
    ``count`` (``count_accesses`` unless a sweep shares its counts),
    with byte widths rescaled by the sparsity model."""
    profile = (count or count_accesses)(arch, wl, mapping)
    if sparsity is not None:
        profile = profile.scaled(sparsity.byte_scale)
    return Traffic(arch, wl, mapping, sparsity, profile)


def intensity_traffic(
    arch: ArchSpec, wl: WorkloadSpec, ai_per_level: dict[int, float]
) -> Traffic:
    """The traffic stage without a mapping: a profile synthesized from
    per-level AI, for a valid architecture and workload."""
    levels, given = set(range(1, arch.n_levels + 1)), set(ai_per_level)
    if given != levels:
        raise ValueError(
            f"ai_profile levels must be exactly 1..{arch.n_levels}: "
            f"missing {sorted(levels - given)}, extra {sorted(given - levels)}")
    violations = arch_violations(arch) + workload_violations(wl)
    if violations:
        raise InvalidMappingError(violations)
    profile = AccessProfile.from_intensities(wl.n_op, ai_per_level)
    return Traffic(arch, wl, None, None, profile)


def _evaluate(
    traffic: Traffic, label: str, ref_level: int | None, overlap: str | None
) -> AnalysisResult:
    """The cost stage: both roofs, task energy and latency, utilization
    and the point (effective ops / L_task against the roofs at the
    reference AI)."""
    arch, wl, mapping, sparsity, profile = traffic
    effective_ops, bandwidth_penalty = float(wl.n_op), 1.0
    if sparsity is not None:
        effective_ops = sparsity.effective_ops
        bandwidth_penalty = sparsity.bandwidth_penalty
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
    return _evaluate(mapped_traffic(arch, wl, mapping, sparsity), label, ref_level, overlap)


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
    return _evaluate(intensity_traffic(arch, wl, ai_per_level), label, ref_level, overlap)


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
