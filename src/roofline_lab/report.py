"""Scenario files, sweeps and rendering: loading the files a scenario
names, sweeping one knob across values, and the text tables, CSV rows
and chart assembly of analyze / sweep / compare runs.  Evaluation
itself is ``analysis.run_scenario``.
"""

from __future__ import annotations

import csv
import io
import math

from .analysis import (
    AnalysisResult,
    LoadedScenario,
    _evaluate,
    run_scenario,
    scenario_traffic,
)
from .config_io import Scenario, parse_arch, parse_mapping, parse_workload
from .mapping import AccessProfile, count_accesses
from .model import INPUT, ArchSpec, MappingSpec, WorkloadSpec, valid_tile_extents
from .transforms import ImcMacro, QuantConfig, SparsityConfig

SWEEPABLE = (
    "A_op", "E_op", "f_clk", "precision", "density", "P_R",
    "B_L<i>", "E_L<i>", "dim:<axis>",
)


class SweepParameterError(ValueError):
    pass


def load_scenario(scenario: Scenario, parsed: dict | None = None) -> LoadedScenario:
    """Parse the files the scenario names.  ``parsed`` maps (parser,
    path) to a spec already parsed and takes each new one, so scenarios
    loaded with one dict parse a file they share once."""
    parsed = {} if parsed is None else parsed

    def parse(parser, path):
        key = (parser, path)
        if key not in parsed:
            parsed[key] = parser(path)
        return parsed[key]

    arch = parse(parse_arch, scenario.arch_path)
    wl = parse(parse_workload, scenario.workload_path)
    mapping = parse(parse_mapping, scenario.mapping_path) if scenario.mapping_path else None
    return LoadedScenario(scenario.label, arch, wl, mapping, scenario.ai_profile,
                          scenario.ref_level, scenario.transforms)


# ---------------------------------------------------------------------------
# text rendering


def _g(x: float) -> str:
    return f"{x:.10g}"


def render_text(r: AnalysisResult) -> str:
    arch, wl = r.arch, r.workload
    lines: list[str] = []
    lines.append(f"scenario: {r.label or wl.name}")
    lines.append(
        f"arch: A_op {_g(arch.array.a_op)} ops/cycle, f_clk {_g(arch.clock)} Hz, "
        f"E_op {_g(arch.array.energy_per_op)} pJ/op, {arch.latency_overlap}"
    )
    lines.append(f"workload: {wl.name}, N_op {wl.n_op} ops")
    if r.effective_ops != wl.n_op:
        lines.append(f"effective ops (nonzero): {_g(r.effective_ops)}")

    lines.append("level  bytes_moved  ops/byte  bytes/cycle  pJ/byte")
    for lvl in arch.levels:
        li = lvl.level_index
        ai = r.ai[li]
        lines.append(
            f"{lvl.name:>5}  {_g(r.profile.n_bytes[li]):>11}  "
            f"{'inf' if math.isinf(ai) else _g(ai):>8}  "
            f"{_g(lvl.bandwidth):>11}  {_g(lvl.energy_per_byte):>7}"
        )

    u = r.utilization
    lines.append(
        f"utilization: spatial {_g(u.spatial)}, temporal {_g(u.temporal)}, "
        f"core {_g(u.core)}, total {_g(u.total)}"
    )
    lines.append(f"E_task: {_g(r.e_task_pj)} pJ")
    lines.append(
        f"L_task: {_g(r.latency.cycles)} cycles = {_g(r.latency.seconds)} s, "
        f"limiter {r.latency.limiter}"
    )
    p = r.point
    lines.append(
        f"operating point: AI_ref(L{p.ref_level}) {_g(p.ai_ref)} ops/byte, "
        f"{_g(p.ops_per_cycle)} ops/cycle vs ceiling {_g(p.throughput_ceiling)}, "
        f"{_g(p.attained_efficiency)} ops/pJ (= TOPS/W) vs ceiling "
        f"{_g(p.efficiency_ceiling)}"
    )
    for ai, label in r.throughput_curve.knees:
        lines.append(f"throughput knee: AI_ref {_g(ai)} (limited by {label})")
    lines.append(f"energy asymptote: {_g(r.energy_curve.asymptote)} ops/pJ")
    lines.append(f"bound: throughput {p.throughput_bound}; energy {p.energy_bound}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV


ANALYSIS_FIELDS = (
    "label", "n_op", "effective_ops", "ai_ref", "plateau_ops_per_cycle",
    "knee_ai_ref", "attained_ops_per_cycle", "attained_ops_per_pj",
    "e_task_pj", "l_task_cycles", "limiter", "utilization_total",
)


def analysis_row(r: AnalysisResult) -> dict[str, str]:
    knee = r.throughput_curve.knees[0][0] if r.throughput_curve.knees else math.nan
    return {
        "label": r.label or r.workload.name,
        "n_op": str(r.workload.n_op),
        "effective_ops": _g(r.effective_ops),
        "ai_ref": _g(r.point.ai_ref),
        "plateau_ops_per_cycle": _g(r.throughput_curve.asymptote),
        "knee_ai_ref": _g(knee),
        "attained_ops_per_cycle": _g(r.point.ops_per_cycle),
        "attained_ops_per_pj": _g(r.point.attained_efficiency),
        "e_task_pj": _g(r.e_task_pj),
        "l_task_cycles": _g(r.latency.cycles),
        "limiter": r.latency.limiter,
        "utilization_total": _g(r.utilization.total),
    }


def rows_to_csv(fields: tuple[str, ...], rows: list[dict[str, str]]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fields), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# sweeps


def _whole(parameter: str, value: float) -> int:
    """The value of a knob that counts something; a fraction is an
    error, not truncated."""
    if value % 1:  # also true of nan and inf
        raise SweepParameterError(f"{parameter} takes whole numbers (got {value})")
    return int(value)


def apply_sweep_value(loaded: LoadedScenario, parameter: str,
                      value: float) -> LoadedScenario:
    """A copy of the scenario with one swept knob changed."""
    arch, wl = loaded.arch, loaded.workload
    transforms = list(loaded.transforms)

    if parameter == "A_op":
        base = arch.array.ops_per_mac
        for _, size in arch.array.dims:
            base *= size
        arch = arch._replace(array=arch.array._replace(throughput_scale=value / base))
    elif parameter == "E_op":
        arch = arch._replace(array=arch.array._replace(energy_per_op=value))
    elif parameter == "f_clk":
        arch = arch._replace(clock=value)
    elif parameter.startswith("B_") or parameter.startswith("E_"):
        field = "bandwidth" if parameter.startswith("B_") else "energy_per_byte"
        name = parameter[2:]
        if not any(lvl.name == name for lvl in arch.levels):
            raise SweepParameterError(f"no memory level named {name!r}")
        levels = tuple(
            lvl._replace(**{field: value}) if lvl.name == name else lvl
            for lvl in arch.levels
        )
        arch = arch._replace(levels=levels)
    elif parameter == "precision":
        transforms.append(QuantConfig(precision_bits={"W": _whole(parameter, value)}))
    elif parameter == "density":
        transforms.append(SparsityConfig(
            mode="unstructured",
            density={op.name: value for op in wl.operands if op.role == INPUT},
            index_bits=0,
        ))
    elif parameter == "P_R":
        idx = next((i for i, t in enumerate(transforms) if isinstance(t, ImcMacro)),
                   None)
        if idx is None:
            raise SweepParameterError("P_R sweep needs an IMC transform in the chain")
        rows = _whole(parameter, value)
        if rows < 1:
            raise SweepParameterError(
                f"P_R sets the IMC macro's rows (array axis row) and must be >= 1 (got {value})")
        transforms[idx] = transforms[idx]._replace(rows=rows)
    elif parameter.startswith("dim:"):
        axis = parameter[4:]
        if not any(a == axis for a, _ in arch.array.dims):
            raise SweepParameterError(f"no array axis named {axis!r}")
        size = _whole(parameter, value)
        dims = tuple(
            (a, size) if a == axis else (a, s) for a, s in arch.array.dims
        )
        arch = arch._replace(array=arch.array._replace(dims=dims))
    else:
        raise SweepParameterError(
            f"unknown sweep parameter {parameter!r}; one of {SWEEPABLE}"
        )
    if not math.isfinite(value):  # the whole-number knobs refused it in _whole
        raise SweepParameterError(f"{parameter} takes finite numbers (got {value})")

    return loaded._replace(arch=arch, transforms=tuple(transforms))


SWEEP_FIELDS = ("parameter", "value") + ANALYSIS_FIELDS


def run_sweep(loaded: LoadedScenario, parameter: str,
              values: list[float]) -> list[dict[str, str]]:
    """One row per value: the traffic stage, then the cost stage, of the
    swept scenario.  Within this call the accesses are counted once per
    distinct (level count, workload, mapping) the transform chain
    yields, since the level count is all of the architecture a count
    reads besides validation; every other value is still validated."""
    counted: dict[tuple, AccessProfile] = {}

    def count(arch: ArchSpec, wl: WorkloadSpec, mapping: MappingSpec) -> AccessProfile:
        key = (arch.n_levels, wl, mapping)
        profile = counted.get(key)
        if profile is None:
            profile = counted[key] = count_accesses(arch, wl, mapping)
        else:
            valid_tile_extents(arch, wl, mapping)
        return profile

    rows = []
    for v in values:  # input order is the output order
        point = apply_sweep_value(loaded, parameter, v)
        result = _evaluate(scenario_traffic(point, count), point.label, point.ref_level)
        row = {"parameter": parameter, "value": _g(v)}
        row.update(analysis_row(result))
        rows.append(row)
    return rows
