"""Strict JSON ingestion and emission for arch / workload / mapping /
scenario files.

One format for everything: JSON, fixed field names, fixed units
(bytes/cycle, pJ/byte, pJ/op, Hz - values carry no unit suffixes).
Unknown keys are errors, missing required keys are errors, and scalar
sanity (positive bandwidth, nonzero sizes) is checked at parse time so
a bad file is reported with the offending field, not three calls later.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, NamedTuple

from .model import (
    ArchSpec,
    ComputeArray,
    LoopDim,
    MappingSpec,
    MemoryLevel,
    OperandSpec,
    SpatialUnroll,
    WorkloadSpec,
    OVERLAPPED,
    SERIALIZED,
)
from .transforms import ImcMacro, QuantConfig, SparsityConfig


class ParseError(ValueError):
    """A malformed or schema-violating input file; carries the file and
    field path of the offence."""

    def __init__(self, path: str | Path, where: str, message: str):
        self.path = str(path)
        self.where = where
        super().__init__(f"{path}: {where}: {message}")


class _Obj:
    """A JSON object being consumed field by field."""

    def __init__(self, path: str | Path, where: str, data: Any):
        if not isinstance(data, dict):
            raise ParseError(path, where, f"expected an object, got {type(data).__name__}")
        self.path = path
        self.where = where
        self.data = dict(data)

    def take(self, key: str, required: bool = True, default: Any = None) -> Any:
        if key in self.data:
            return self.data.pop(key)
        if required:
            raise ParseError(self.path, self.where, f"missing required field {key!r}")
        return default

    def number(self, key: str, required: bool = True, default: Any = None,
               minimum: float | None = None, strict: bool = False,
               integer: bool = False) -> Any:
        val = self.take(key, required, default)
        if val is None and not required:
            return default
        return _number(self.path, f"{self.where}.{key}", val, minimum, strict, integer)

    def finish(self) -> None:
        if self.data:
            raise ParseError(
                self.path, self.where, f"unknown keys: {sorted(self.data)}"
            )


def _number(path: str | Path, where: str, val: Any, minimum: float | None = None,
            strict: bool = False, integer: bool = False) -> Any:
    """``val`` if it is a JSON number (an integer if ``integer``; never a
    boolean) at or above ``minimum``, or above it if ``strict``."""
    kinds = int if integer else (int, float)
    if not isinstance(val, kinds) or isinstance(val, bool):
        raise ParseError(path, where, "expected an integer" if integer else "expected a number")
    if minimum is not None and (val <= minimum if strict else val < minimum):
        op = ">" if strict else ">="
        raise ParseError(path, where, f"must be {op} {minimum} (got {val})")
    return val


def _named_count(path: str | Path, where: str, pair: Any, shape: str) -> tuple[str, int]:
    """A ``[name, count]`` pair whose count is an integer >= 1."""
    if not isinstance(pair, list) or len(pair) != 2 or not isinstance(pair[0], str):
        raise ParseError(path, where, f"expected {shape}")
    return pair[0], _number(path, f"{where}[1]", pair[1], minimum=1, integer=True)


def _load_json(path: str | Path) -> Any:
    try:
        with open(path, "rb", buffering=0) as f:  # one read: no buffer to fill
            data = f.read()
    except OSError as exc:
        raise ParseError(path, "<file>", str(exc)) from exc
    try:
        # strict UTF-8: a byte order mark stays for json.loads to reject
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(path, "<file>",
                         f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"line {exc.lineno}", exc.msg) from exc


# ---------------------------------------------------------------------------
# architecture


def parse_arch(path: str | Path) -> ArchSpec:
    root = _Obj(path, "arch", _load_json(path))
    arr = _Obj(path, "arch.array", root.take("array"))
    dims_raw = arr.take("dims")
    if not isinstance(dims_raw, list) or not dims_raw:
        raise ParseError(path, "arch.array.dims", "expected a non-empty list")
    dims = tuple(_named_count(path, f"arch.array.dims[{i}]", pair, "[label, size]")
                 for i, pair in enumerate(dims_raw))
    array = ComputeArray(
        dims=dims,
        energy_per_op=arr.number("energy_per_op", minimum=0.0),
        ops_per_mac=arr.number("ops_per_mac", required=False, default=2, minimum=1,
                               integer=True),
        throughput_scale=arr.number("throughput_scale", required=False, default=1.0,
                                    minimum=0.0, strict=True),
    )
    arr.finish()

    levels_raw = root.take("levels")
    if not isinstance(levels_raw, list) or not levels_raw:
        raise ParseError(path, "arch.levels", "expected a non-empty list")
    levels = []
    first_named: dict[str, int] = {}  # level name -> its first index
    for i, lr in enumerate(levels_raw):
        lo = _Obj(path, f"arch.levels[{i}]", lr)
        name = str(lo.take("name"))
        if name in first_named:
            raise ParseError(path, f"arch.levels[{i}].name",
                             f"duplicate level name {name!r} "
                             f"(also arch.levels[{first_named[name]}])")
        first_named[name] = i
        levels.append(MemoryLevel(
            name=name,
            bandwidth=lo.number("bandwidth", minimum=0.0, strict=True),
            energy_per_byte=lo.number("energy_per_byte", minimum=0.0),
            capacity=lo.number("capacity", required=False, minimum=0, strict=True,
                               integer=True),
            level_index=lo.number("level_index", required=False, default=i + 1,
                                  minimum=1, integer=True),
        ))
        lo.finish()

    overlap = root.take("latency_overlap", required=False, default=OVERLAPPED)
    if overlap not in (OVERLAPPED, SERIALIZED):
        raise ParseError(path, "arch.latency_overlap",
                         f"must be {OVERLAPPED!r} or {SERIALIZED!r}")
    arch = ArchSpec(
        array=array,
        levels=tuple(levels),
        clock=root.number("clock", minimum=0.0, strict=True),
        latency_overlap=overlap,
        base_precision_bits=root.number("base_precision_bits", required=False,
                                        default=8, minimum=1, integer=True),
    )
    root.finish()
    return arch


def arch_to_dict(arch: ArchSpec) -> dict:
    return {
        "array": {
            "dims": [[a, s] for a, s in arch.array.dims],
            "energy_per_op": arch.array.energy_per_op,
            "ops_per_mac": arch.array.ops_per_mac,
            "throughput_scale": arch.array.throughput_scale,
        },
        "levels": [
            {
                "name": l.name,
                "bandwidth": l.bandwidth,
                "energy_per_byte": l.energy_per_byte,
                "capacity": l.capacity,
                "level_index": l.level_index,
            }
            for l in arch.levels
        ],
        "clock": arch.clock,
        "latency_overlap": arch.latency_overlap,
        "base_precision_bits": arch.base_precision_bits,
    }


# ---------------------------------------------------------------------------
# workload


def parse_workload(path: str | Path) -> WorkloadSpec:
    root = _Obj(path, "workload", _load_json(path))
    name = str(root.take("name"))
    dims_raw = root.take("dims")
    if not isinstance(dims_raw, list) or not dims_raw:
        raise ParseError(path, "workload.dims", "expected a non-empty list")
    dims = [LoopDim(*_named_count(path, f"workload.dims[{i}]", pair, "[name, size]"))
            for i, pair in enumerate(dims_raw)]

    ops_raw = root.take("operands")
    if not isinstance(ops_raw, list) or not ops_raw:
        raise ParseError(path, "workload.operands", "expected a non-empty list")
    operands = []
    for i, orx in enumerate(ops_raw):
        oo = _Obj(path, f"workload.operands[{i}]", orx)
        role = oo.take("role")
        if role not in ("input", "output"):
            raise ParseError(path, f"workload.operands[{i}].role",
                             "must be 'input' or 'output'")
        rel = oo.take("relevant_dims")
        if not isinstance(rel, list) or not all(isinstance(r, str) for r in rel):
            raise ParseError(path, f"workload.operands[{i}].relevant_dims",
                             "expected a list of dim names")
        operands.append(OperandSpec(
            name=str(oo.take("name")),
            role=role,
            relevant_dims=tuple(rel),
            precision_bits=oo.number("precision_bits", required=False, default=8,
                                     minimum=1, integer=True),
            accum_bits=oo.number("accum_bits", required=False, minimum=1, integer=True),
            bytes_per_element=oo.number("bytes_per_element", required=False,
                                        minimum=0.0, strict=True),
        ))
        oo.finish()
    wl = WorkloadSpec(name=name, dims=tuple(dims), operands=tuple(operands))
    root.finish()
    return wl


def workload_to_dict(wl: WorkloadSpec) -> dict:
    return {
        "name": wl.name,
        "dims": [[d.name, d.size] for d in wl.dims],
        "operands": [
            {
                "name": o.name,
                "role": o.role,
                "relevant_dims": list(o.relevant_dims),
                "precision_bits": o.precision_bits,
                "accum_bits": o.accum_bits,
                "bytes_per_element": o.bytes_per_element,
            }
            for o in wl.operands
        ],
    }


# ---------------------------------------------------------------------------
# mapping


def parse_mapping(path: str | Path) -> MappingSpec:
    root = _Obj(path, "mapping", _load_json(path))
    spatial_raw = root.take("spatial", required=False, default=[])
    if not isinstance(spatial_raw, list):
        raise ParseError(path, "mapping.spatial", "expected a list of unrolls")
    spatial = []
    for i, sr in enumerate(spatial_raw):
        so = _Obj(path, f"mapping.spatial[{i}]", sr)
        spatial.append(SpatialUnroll(
            axis=str(so.take("axis")),
            dim=str(so.take("dim")),
            factor=so.number("factor", minimum=1, integer=True),
        ))
        so.finish()

    temp_raw = root.take("temporal", required=False, default=[])
    if not isinstance(temp_raw, list):
        raise ParseError(path, "mapping.temporal", "expected a list per level")
    temporal = []
    for li, level_loops in enumerate(temp_raw):
        if not isinstance(level_loops, list):
            raise ParseError(path, f"mapping.temporal[{li}]", "expected a loop list")
        temporal.append(tuple(
            _named_count(path, f"mapping.temporal[{li}][{j}]", pair, "[dim, trip]")
            for j, pair in enumerate(level_loops)))

    core_split = root.take("core_split", required=False)
    if core_split is not None:
        core_split = _named_count(path, "mapping.core_split", core_split, "[dim, factor]")
    pinned = root.take("pinned_operand", required=False)

    mapping = MappingSpec(
        spatial=tuple(spatial),
        temporal=tuple(temporal),
        cores=root.number("cores", required=False, default=1, minimum=1, integer=True),
        core_split=core_split,
        pinned_operand=pinned,
        reload_cycles_per_tile=root.number("reload_cycles_per_tile", required=False,
                                           minimum=0, integer=True),
    )
    root.finish()
    return mapping


def mapping_to_dict(mapping: MappingSpec) -> dict:
    return {
        "spatial": [
            {"axis": u.axis, "dim": u.dim, "factor": u.factor}
            for u in mapping.spatial
        ],
        "temporal": [[[d, t] for d, t in level] for level in mapping.temporal],
        "cores": mapping.cores,
        "core_split": list(mapping.core_split) if mapping.core_split else None,
        "pinned_operand": mapping.pinned_operand,
        "reload_cycles_per_tile": mapping.reload_cycles_per_tile,
    }


# ---------------------------------------------------------------------------
# scenarios


class Scenario(NamedTuple):
    """A labelled (arch, workload, mapping-or-AI, transform chain)."""

    label: str
    arch_path: Path
    workload_path: Path
    mapping_path: Path | None
    ai_profile: dict[int, float] | None
    ref_level: int | None
    transforms: tuple[object, ...]  # QuantConfig | SparsityConfig | ImcMacro


def _parse_transform(path: str | Path, i: int, raw: Any) -> object:
    to = _Obj(path, f"scenario.transforms[{i}]", raw)
    kind = to.take("kind")
    if kind == "quantization":
        bits = _Obj(path, f"{to.where}.precision_bits", to.take("precision_bits"))
        cfg = QuantConfig(
            precision_bits={k: bits.number(k, minimum=1, integer=True)
                            for k in list(bits.data)},
            block_size=to.number("block_size", required=False, default=1, minimum=1,
                                 integer=True),
            block_metadata_bits=to.number("block_metadata_bits", required=False,
                                          default=0, minimum=0, integer=True),
            compute_scaling_exponent=to.number("alpha", required=False, default=1.0,
                                               minimum=1.0),
            throughput_scaling_mode=str(to.take("mode", required=False,
                                                default="linear")),
            weight_operand=str(to.take("weight_operand", required=False, default="W")),
            bit_serial_fixed_overhead=to.number("fixed_overhead", required=False,
                                                default=0.0, minimum=0.0),
        )
        to.finish()
        return cfg
    if kind == "sparsity":
        dens = _Obj(path, f"{to.where}.density",
                    to.take("density", required=False, default={}))
        cfg = SparsityConfig(
            mode=str(to.take("mode", required=False, default="dense")),
            density={k: float(dens.number(k)) for k in list(dens.data)},
            n=to.number("n", required=False, minimum=1, integer=True),
            m=to.number("m", required=False, minimum=1, integer=True),
            index_bits=to.number("index_bits", required=False, default=32,
                                 minimum=0, integer=True),
            utilization_penalty=to.number("utilization_penalty", required=False,
                                          default=1.0, minimum=0.0, strict=True),
        )
        to.finish()
        return cfg
    if kind == "imc":
        macro = ImcMacro(
            rows=to.number("rows", minimum=1, integer=True),
            cols=to.number("cols", minimum=1, integer=True),
            input_bits=to.number("input_bits", required=False, default=1, minimum=1,
                                 integer=True),
            weight_bits=to.number("weight_bits", required=False, default=1,
                                  minimum=1, integer=True),
            energy_per_op=to.number("energy_per_op", required=False, default=0.01,
                                    minimum=0.0),
            adc_overhead=to.number("adc_overhead", required=False, default=0.25,
                                   minimum=0.0),
            weight_write_rows_per_cycle=to.number("weight_write_rows_per_cycle",
                                                  required=False, default=1,
                                                  minimum=1, integer=True),
            reload_overlapped=to.take("reload_overlapped", required=False, default=False),
        )
        if not isinstance(macro.reload_overlapped, bool):
            raise ParseError(path, f"{to.where}.reload_overlapped", "expected true or false")
        to.finish()
        return macro
    raise ParseError(path, f"scenario.transforms[{i}].kind",
                     f"unknown transform kind {kind!r}")


def parse_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    root = _Obj(p, "scenario", _load_json(p))
    base = p.parent

    def resolve(key: str, required: bool) -> Path | None:
        val = root.take(key, required=required)
        if val is None:
            return None
        if not isinstance(val, str):
            raise ParseError(p, f"scenario.{key}", "expected a file path string")
        # joined, not resolved: opening the file resolves ".." and
        # symlinks, so a realpath here would only add an lstat per component
        return (base / val).absolute()

    label = root.take("label")
    if not isinstance(label, str):
        raise ParseError(p, "scenario.label", "expected a string")
    arch_path = resolve("arch", required=True)
    workload_path = resolve("workload", required=True)
    mapping_path = resolve("mapping", required=False)

    ai_raw = root.take("ai_profile", required=False)
    ai_profile = None
    if ai_raw is not None:
        if not isinstance(ai_raw, dict):
            raise ParseError(p, "scenario.ai_profile",
                             "expected an object of level index -> AI")
        try:
            ai_profile = {int(k): float(v) for k, v in ai_raw.items()}
        except (TypeError, ValueError) as exc:
            raise ParseError(p, "scenario.ai_profile", str(exc)) from exc
        for k, v in ai_profile.items():
            if v <= 0 or not math.isfinite(v):
                raise ParseError(p, f"scenario.ai_profile.{k}",
                                 "AI must be positive and finite")
    if mapping_path is None and ai_profile is None:
        raise ParseError(p, "scenario", "needs either 'mapping' or 'ai_profile'")

    ref_level = root.take("ref_level", required=False)
    if ref_level is not None and (
            not isinstance(ref_level, int) or isinstance(ref_level, bool) or ref_level < 1):
        raise ParseError(p, "scenario.ref_level", "expected an integer >= 1")
    transforms_raw = root.take("transforms", required=False, default=[])
    if not isinstance(transforms_raw, list):
        raise ParseError(p, "scenario.transforms", "expected a list")
    transforms = tuple(
        _parse_transform(p, i, raw) for i, raw in enumerate(transforms_raw)
    )
    scenario = Scenario(
        label=label,
        arch_path=arch_path,
        workload_path=workload_path,
        mapping_path=mapping_path,
        ai_profile=ai_profile,
        ref_level=ref_level,
        transforms=transforms,
    )
    root.finish()
    return scenario


# ---------------------------------------------------------------------------
# emission


def emit_json(data: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def fixture_path(name: str) -> Path:
    """Path of a fixture shipped with the package."""
    return Path(__file__).parent / "fixtures" / name
