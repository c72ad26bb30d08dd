"""A scenario's traffic stage, then its cost stage: access counts,
intensities, utilization, task cost, ceilings and the operating point.

A ``LoadedScenario`` carries every input of an evaluation; its
architecture's ``latency_overlap`` is the latency mode.  The stages
follow the dual roofline, which separates what the mapping fixes from
what the architecture fixes.  ``scenario_traffic`` applies the
transform chain one pass at a time and builds a ``Traffic`` record:
the counted accesses of a concrete mapping, compressed by the chain's
sparsity with its effective op count and de-rating, or accesses
synthesized from per-level AI (no mapping, ideal utilization), which is
how roofline positions are studied before a mapping exists.  One
private evaluator prices that record from one ``mapping.ledger`` pass:
both roofs, the latency, the utilization and the point read it, and
``task_energy`` adds E_task.  ``run_scenario`` runs both stages,
and ``analyze_mapping`` and ``analyze_intensities`` run a scenario
built from specs, so ``analyze_mapping(...).point`` is at or below both
roofs.

Per-level AI is the effective op count over the bytes moved.  Under
sparsity that is surviving ops over compressed bytes, since only MACs
with nonzeros in every sparse input count toward intensity.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .mapping import (
    AccessProfile,
    LatencyResult,
    Utilization,
    count_accesses,
    ledger,
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
    task_energy,
)
from .transforms import (
    ImcMacro,
    QuantConfig,
    SparsityConfig,
    SparsityModel,
    apply_imc,
    apply_quantization,
    apply_sparsity,
)


class LoadedScenario(NamedTuple):
    """The inputs of one evaluation, as specs and transform configs."""

    label: str
    arch: ArchSpec
    workload: WorkloadSpec
    mapping: MappingSpec | None
    ai_profile: dict[int, float] | None
    ref_level: int | None
    transforms: tuple[object, ...]


class Traffic(NamedTuple):
    """The traffic stage's result, which the cost stage prices: the
    architecture, workload and mapping after every pass, the chain's
    effective op count and bandwidth de-rating (N_op and 1 when dense)
    and the access profile, already compressed."""

    arch: ArchSpec
    workload: WorkloadSpec
    mapping: MappingSpec | None
    effective_ops: float
    bandwidth_penalty: float
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


def _combine_sparsity(prev: SparsityModel | None, new: SparsityModel,
                      n_op: int) -> SparsityModel:
    if prev is None:
        return new
    scale = dict(prev.byte_scale)
    for k, v in new.byte_scale.items():
        scale[k] = scale.get(k, 1.0) * v
    return SparsityModel(
        effective_ops=prev.effective_ops * new.effective_ops / n_op,
        byte_scale=scale,
        bandwidth_penalty=prev.bandwidth_penalty * new.bandwidth_penalty,
    )


def scenario_traffic(loaded: LoadedScenario, count: Callable | None = None) -> Traffic:
    """The traffic stage: apply the transform chain left to right, then
    count the mapping's accesses (``count``, else ``count_accesses``) and
    rescale them by the chain's sparsity, or synthesize them from AI."""
    arch, wl, mapping = loaded.arch, loaded.workload, loaded.mapping
    sparsity: SparsityModel | None = None
    changed = ""  # the first pass that changed the compute array, named
    for i, t in enumerate(loaded.transforms):
        if isinstance(t, QuantConfig):
            arch, wl = apply_quantization(arch, wl, t)
        elif isinstance(t, SparsityConfig):
            sparsity = _combine_sparsity(sparsity, apply_sparsity(wl, t), wl.n_op)
        elif isinstance(t, ImcMacro):
            if changed:
                raise ValueError(f"transforms[{i}] (imc) would replace the array {changed} "
                                 "changed; no pass may change the array before an imc pass")
            arch, mapping = apply_imc(arch, mapping, t)
        else:
            raise TypeError(f"unknown transform {t!r}")
        if not changed and arch.array != loaded.arch.array:  # sparsity keeps the array
            changed = f"transforms[{i}] ({'imc' if isinstance(t, ImcMacro) else 'quantization'})"

    if mapping is not None:
        profile = (count or count_accesses)(arch, wl, mapping)
        if sparsity is None:
            return Traffic(arch, wl, mapping, float(wl.n_op), 1.0, profile)
        return Traffic(arch, wl, mapping, sparsity.effective_ops, sparsity.bandwidth_penalty,
                       profile.scaled(sparsity.byte_scale))
    ai = loaded.ai_profile
    if ai is None:
        raise ValueError("the scenario needs either 'mapping' or 'ai_profile'")
    levels, given = set(range(1, arch.n_levels + 1)), set(ai)
    if given != levels:
        raise ValueError(
            f"ai_profile levels must be exactly 1..{arch.n_levels}: "
            f"missing {sorted(levels - given)}, extra {sorted(given - levels)}")
    violations = arch_violations(arch) + workload_violations(wl)
    if violations:
        raise InvalidMappingError(violations)
    # an AI profile is placed dense: there is no mapped traffic to rescale
    return Traffic(arch, wl, None, float(wl.n_op), 1.0,
                   AccessProfile.from_intensities(wl.n_op, ai))


def _evaluate(traffic: Traffic, label: str, ref_level: int | None) -> AnalysisResult:
    """The cost stage: one ledger pass over the levels, which both roofs,
    the latency, the utilization and the point (effective ops / L_task
    against the roofs at the reference AI) read; ``task_energy`` sums
    E_task."""
    arch, wl, mapping, effective_ops, bandwidth_penalty, profile = traffic
    ref = ref_level if ref_level is not None else min(DEFAULT_REF_LEVEL, arch.n_levels)
    if not 1 <= ref <= arch.n_levels:
        raise ValueError(
            f"reference level {ref} is outside the architecture's levels 1..{arch.n_levels}"
        )
    led = ledger(arch, wl, profile, mapping, bandwidth_penalty, ref, effective_ops)
    latency = led.latency
    tp_curve = ThroughputRoofline.from_slopes(arch, led.slopes, mapping)
    e_curve = EnergyRoofline.from_terms(arch, led.energy)
    e_task = task_energy(arch, wl, profile)
    util = utilization(arch, wl, mapping, profile, latency)

    ai_ref = led.ai[ref]
    ops_per_cycle = effective_ops / latency.cycles
    ceiling_tp, tp_bound = tp_curve.at(ai_ref)
    if ops_per_cycle > ceiling_tp * (1.0 + REL_TOL):
        raise AssertionError(
            f"attained {ops_per_cycle} ops/cycle exceeds ceiling {ceiling_tp}"
        )
    ceiling_e, e_bound = e_curve.at(ai_ref)
    point = OperatingPoint(ai_ref, ref, ops_per_cycle, effective_ops / e_task,
                           ceiling_tp, ceiling_e, tp_bound, e_bound)
    return AnalysisResult(label, arch, wl, mapping, profile, led.ai, util, effective_ops,
                          e_task, latency, point, tp_curve, e_curve)


def run_scenario(loaded: LoadedScenario) -> AnalysisResult:
    """The traffic stage, then the cost stage."""
    return _evaluate(scenario_traffic(loaded), loaded.label, loaded.ref_level)


def analyze_mapping(arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec, label: str = "",
                    ref_level: int | None = None, transforms: tuple = ()) -> AnalysisResult:
    """``run_scenario`` of a mapped scenario; ``transforms`` is the chain
    of configs a scenario file holds."""
    return run_scenario(
        LoadedScenario(label, arch, wl, mapping, None, ref_level, tuple(transforms)))


def analyze_intensities(arch: ArchSpec, wl: WorkloadSpec, ai_per_level: dict[int, float],
                        label: str = "", ref_level: int | None = None) -> AnalysisResult:
    """Roofline placement from per-level AI alone: no mapping, so full
    spatial and core utilization and the ideal latency."""
    return run_scenario(LoadedScenario(label, arch, wl, None, ai_per_level, ref_level, ()))
