"""Strict JSON ingestion of arch / workload / mapping / scenario files.

One format for everything: JSON, fixed field names, fixed units
(bytes/cycle, pJ/byte, pJ/op, Hz - values carry no unit suffixes).
Unknown keys are errors, missing required keys are errors, and scalar
sanity (positive bandwidth, nonzero sizes) is checked at parse time so
a bad file is reported with the offending field, not three calls later.

Every record a file holds is described once, by a ``Table`` of fields
``(json key, attribute, kind, default, bound)``, from which ``_read``
builds the record.  A kind is the function that reads one JSON value;
``bound`` is what that kind checks beyond the type (each kind says what
its bound means).  A field whose default is ``REQUIRED`` must be
present; one whose default is ``None`` may also be ``null``.  Names
that refer to another file's names (a dim, an axis, an operand) are
resolved by ``model.validate`` and the transforms, once every file is
read.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import MappingProxyType
from typing import Any, NamedTuple

from .model import (
    INPUT,
    OUTPUT,
    OVERLAPPED,
    SERIALIZED,
    ArchSpec,
    ComputeArray,
    LoopDim,
    MappingSpec,
    MemoryLevel,
    OperandSpec,
    SpatialUnroll,
    WorkloadSpec,
)
from .transforms import (
    DEFAULT_ADC_OVERHEAD,
    DEFAULT_INDEX_BITS,
    DENSE,
    LINEAR,
    ImcMacro,
    QuantConfig,
    SparsityConfig,
)


class ParseError(ValueError):
    """A malformed or schema-violating input file; carries the file and
    field path of the offence."""

    def __init__(self, path: str | Path, where: str, message: str):
        self.path = str(path)
        self.where = where
        super().__init__(f"{path}: {where}: {message}")


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
# tables


REQUIRED = object()  # the default of a field that must be present
NON_EMPTY = "a non-empty list"


class Field(NamedTuple):
    key: str  # in the JSON object
    attr: str  # on the record
    kind: Any  # reads the JSON value: kind(path, where, value, bound)
    default: Any
    bound: Any


class Table(NamedTuple):
    """A record's fields in its constructor's order."""

    cls: type
    fields: tuple[Field, ...]
    keys: frozenset[str]  # the keys an object of this record may hold
    many: str  # what a list of these records must be


def _table(cls: type, rows: list[tuple], many: str = NON_EMPTY) -> Table:
    """A table from rows of (key, kind, default, bound[, attr]); the
    attribute is the key unless named."""
    fields = tuple(Field(row[0], row[4] if len(row) > 4 else row[0], *row[1:4])
                   for row in rows)
    return Table(cls, fields, frozenset(f.key for f in fields), many)


def _object(path: str | Path, where: str, val: Any) -> dict:
    if type(val) is not dict:
        raise ParseError(path, where, f"expected an object, got {type(val).__name__}")
    return val


def _read(path: str | Path, where: str, data: Any, table: Table) -> Any:
    """The record ``table`` describes, built from the JSON object ``data``."""
    _object(path, where, data)
    values = []
    for key, _, kind, default, bound in table.fields:
        val = data.get(key, default)
        # the default object itself (the key absent, or a null where the
        # default is None) needs no reading
        if val is not default:
            val = kind(path, f"{where}.{key}", val, bound)
        elif val is REQUIRED:
            raise ParseError(path, where, f"missing required field {key!r}")
        values.append(val)
    if not table.keys.issuperset(data):
        raise ParseError(path, where, f"unknown keys: {sorted(data.keys() - table.keys)}")
    return table.cls(*values)


# ---------------------------------------------------------------------------
# kinds


def _string(path, where, val, bound):
    """A string.  ``bound`` is the allowed values (a tuple), or what the
    string names (a str), or None."""
    if type(bound) is tuple:
        if val not in bound:
            raise ParseError(path, where,
                             "must be " + " or ".join(repr(b) for b in bound))
    elif type(val) is not str:
        raise ParseError(path, where, "expected a string")
    return val


def _strings(path, where, val, bound):
    """A list of strings naming ``bound``s."""
    if type(val) is not list or not all(type(s) is str for s in val):
        raise ParseError(path, where, f"expected a list of {bound} names")
    return tuple(val)


def _number(path, where, val, bound):
    """A finite number (never a boolean); ``bound`` is (">" or ">=",
    minimum) or None."""
    if type(val) is not int and (type(val) is not float or not math.isfinite(val)):
        raise ParseError(path, where, "expected a finite number"
                         if type(val) is float else "expected a number")
    if bound is not None:
        op, minimum = bound
        if val <= minimum if op == ">" else val < minimum:
            raise ParseError(path, where, f"must be {op} {minimum} (got {val})")
    return val


def _integer(path, where, val, bound):
    """An integer (never a boolean), bounded as by ``_number``."""
    if type(val) is not int:
        raise ParseError(path, where, "expected an integer")
    return _number(path, where, val, bound)


def _boolean(path, where, val, bound):
    if type(val) is not bool:
        raise ParseError(path, where, "expected true or false")
    return val


def _pair(path, where, val, shape):
    """A ``[name, count]`` pair whose count is an integer >= 1; ``shape``
    names its parts."""
    if type(val) is not list or len(val) != 2 or type(val[0]) is not str:
        raise ParseError(path, where, f"expected {shape}")
    name, count = val
    if type(count) is not int or count < 1:
        _integer(path, f"{where}[1]", count, (">=", 1))  # raises, naming the count
    return name, count


def _pairs(path, where, val, shape):
    """A non-empty list of ``_pair``s."""
    if type(val) is not list or not val:
        raise ParseError(path, where, f"expected {NON_EMPTY}")
    return tuple([_pair(path, f"{where}[{i}]", p, shape) for i, p in enumerate(val)])


def _loop_dims(path, where, val, shape):
    """``_pairs`` as the workload's ``LoopDim``s."""
    return tuple([LoopDim(*p) for p in _pairs(path, where, val, shape)])


def _temporal(path, where, val, shape):
    """One list of ``_pair`` loops per level, innermost first."""
    if type(val) is not list:
        raise ParseError(path, where, "expected a list per level")
    levels = []
    for li, loops in enumerate(val):
        if type(loops) is not list:
            raise ParseError(path, f"{where}[{li}]", "expected a loop list")
        levels.append(tuple([_pair(path, f"{where}[{li}][{j}]", p, shape)
                             for j, p in enumerate(loops)]))
    return tuple(levels)


def _records(path, where, val, table):
    """A list of ``table``'s records, as ``table.many`` says."""
    if type(val) is not list or (not val and table.many == NON_EMPTY):
        raise ParseError(path, where, f"expected {table.many}")
    return tuple([_read(path, f"{where}[{i}]", item, table) for i, item in enumerate(val)])


def _map(path, where, val, bound):
    """An object of operand name -> value; ``bound`` is (the values'
    kind, their bound)."""
    kind, value_bound = bound
    return {k: kind(path, f"{where}.{k}", v, value_bound)
            for k, v in _object(path, where, val).items()}


def _path(path, where, val, bound):
    """A file reference, relative to the directory of the file naming it
    (``path``, a ``Path``)."""
    if type(val) is not str:
        raise ParseError(path, where, "expected a file path string")
    # joined, not resolved: opening the file resolves ".." and
    # symlinks, so a realpath here would only add an lstat per component
    return (path.parent / val).absolute()


def _ai_profile(path, where, val, bound):
    """Level index -> arithmetic intensity, a positive number."""
    if type(val) is not dict:
        raise ParseError(path, where, "expected an object of level index -> AI")
    profile = {}
    for k, v in val.items():
        try:
            level = int(k)
        except ValueError as exc:
            raise ParseError(path, where, str(exc)) from exc
        profile[level] = float(_number(path, f"{where}.{k}", v, (">", 0)))
    return profile


def _transforms(path, where, val, bound):
    """The transform chain: each object's ``kind`` picks its table."""
    if type(val) is not list:
        raise ParseError(path, where, "expected a list")
    chain = []
    for i, raw in enumerate(val):
        at = f"{where}[{i}]"
        kind = _object(path, at, raw).get("kind", REQUIRED)
        if kind is REQUIRED:
            raise ParseError(path, at, "missing required field 'kind'")
        if type(kind) is not str or kind not in TRANSFORMS:
            raise ParseError(path, f"{at}.kind", f"unknown transform kind {kind!r}")
        fields = {k: v for k, v in raw.items() if k != "kind"}
        chain.append(_read(path, at, fields, TRANSFORMS[kind]))
    return tuple(chain)


# ---------------------------------------------------------------------------
# the records of each file


ARRAY = _table(ComputeArray, [
    ("dims", _pairs, REQUIRED, "[label, size]"),
    ("energy_per_op", _number, REQUIRED, (">=", 0.0)),
    ("ops_per_mac", _integer, 2, (">=", 1)),
    ("throughput_scale", _number, 1.0, (">", 0.0)),
])
LEVEL = _table(MemoryLevel, [
    ("name", _string, REQUIRED, None),
    ("bandwidth", _number, REQUIRED, (">", 0.0)),
    ("energy_per_byte", _number, REQUIRED, (">=", 0.0)),
    ("capacity", _integer, None, (">", 0)),
    ("level_index", _integer, None, (">=", 1)),  # None: its position, set by parse_arch
])
ARCH = _table(ArchSpec, [
    ("array", _read, REQUIRED, ARRAY),
    ("levels", _records, REQUIRED, LEVEL),
    ("clock", _number, REQUIRED, (">", 0.0)),
    ("latency_overlap", _string, OVERLAPPED, (OVERLAPPED, SERIALIZED)),
    ("base_precision_bits", _integer, 8, (">=", 1)),
])

OPERAND = _table(OperandSpec, [
    ("name", _string, REQUIRED, None),
    ("role", _string, REQUIRED, (INPUT, OUTPUT)),
    ("relevant_dims", _strings, REQUIRED, "dim"),
    ("precision_bits", _integer, 8, (">=", 1)),
    ("accum_bits", _integer, None, (">=", 1)),
    ("bytes_per_element", _number, None, (">", 0.0)),
])
WORKLOAD = _table(WorkloadSpec, [
    ("name", _string, REQUIRED, None),
    ("dims", _loop_dims, REQUIRED, "[name, size]"),
    ("operands", _records, REQUIRED, OPERAND),
])

SPATIAL = _table(SpatialUnroll, [
    ("axis", _string, REQUIRED, "axis"),
    ("dim", _string, REQUIRED, "dim"),
    ("factor", _integer, REQUIRED, (">=", 1)),
], many="a list of unrolls")
MAPPING = _table(MappingSpec, [
    ("spatial", _records, (), SPATIAL),
    ("temporal", _temporal, (), "[dim, trip]"),
    ("cores", _integer, 1, (">=", 1)),
    ("core_split", _pair, None, "[dim, factor]"),
    ("pinned_operand", _string, None, "operand"),
    ("reload_cycles_per_tile", _integer, None, (">=", 0)),
])

QUANTIZATION = _table(QuantConfig, [
    ("precision_bits", _map, REQUIRED, (_integer, (">=", 1))),
    ("block_size", _integer, 1, (">=", 1)),
    ("block_metadata_bits", _integer, 0, (">=", 0)),
    ("alpha", _number, 1.0, (">=", 1.0), "compute_scaling_exponent"),
    ("mode", _string, LINEAR, None, "throughput_scaling_mode"),
    ("weight_operand", _string, "W", "operand"),
    ("fixed_overhead", _number, 0.0, (">=", 0.0), "bit_serial_fixed_overhead"),
])
SPARSITY = _table(SparsityConfig, [
    ("mode", _string, DENSE, None),
    ("density", _map, MappingProxyType({}), (_number, None)),
    ("n", _integer, None, (">=", 1)),
    ("m", _integer, None, (">=", 1)),
    ("index_bits", _integer, DEFAULT_INDEX_BITS, (">=", 0)),
    ("utilization_penalty", _number, 1.0, (">", 0.0)),
])
IMC = _table(ImcMacro, [
    ("rows", _integer, REQUIRED, (">=", 1)),
    ("cols", _integer, REQUIRED, (">=", 1)),
    ("input_bits", _integer, 1, (">=", 1)),
    ("weight_bits", _integer, 1, (">=", 1)),
    ("energy_per_op", _number, 0.01, (">=", 0.0)),
    ("adc_overhead", _number, DEFAULT_ADC_OVERHEAD, (">=", 0.0)),
    ("weight_write_rows_per_cycle", _integer, 1, (">=", 1)),
    ("reload_overlapped", _boolean, False, None),
])
TRANSFORMS = {"quantization": QUANTIZATION, "sparsity": SPARSITY, "imc": IMC}


class Scenario(NamedTuple):
    """A labelled (arch, workload, mapping-or-AI, transform chain)."""

    label: str
    arch_path: Path
    workload_path: Path
    mapping_path: Path | None
    ai_profile: dict[int, float] | None
    ref_level: int | None
    transforms: tuple[object, ...]  # QuantConfig | SparsityConfig | ImcMacro


SCENARIO = _table(Scenario, [
    ("label", _string, REQUIRED, None),
    ("arch", _path, REQUIRED, None, "arch_path"),
    ("workload", _path, REQUIRED, None, "workload_path"),
    ("mapping", _path, None, None, "mapping_path"),
    ("ai_profile", _ai_profile, None, None),
    ("ref_level", _integer, None, (">=", 1)),
    ("transforms", _transforms, (), None),
])


# ---------------------------------------------------------------------------
# files


def parse_arch(path: str | Path) -> ArchSpec:
    arch = _read(path, "arch", _load_json(path), ARCH)
    first_named: dict[str, int] = {}  # level name -> its first index
    for i, lvl in enumerate(arch.levels):
        if lvl.name in first_named:
            raise ParseError(path, f"arch.levels[{i}].name",
                             f"duplicate level name {lvl.name!r} "
                             f"(also arch.levels[{first_named[lvl.name]}])")
        first_named[lvl.name] = i
    if any(lvl.level_index is None for lvl in arch.levels):
        arch = arch._replace(levels=tuple(
            lvl if lvl.level_index is not None else lvl._replace(level_index=i)
            for i, lvl in enumerate(arch.levels, 1)))
    return arch


def parse_workload(path: str | Path) -> WorkloadSpec:
    return _read(path, "workload", _load_json(path), WORKLOAD)


def parse_mapping(path: str | Path) -> MappingSpec:
    return _read(path, "mapping", _load_json(path), MAPPING)


def parse_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    scenario = _read(p, "scenario", _load_json(p), SCENARIO)
    if scenario.mapping_path is None and scenario.ai_profile is None:
        raise ParseError(p, "scenario", "needs either 'mapping' or 'ai_profile'")
    if scenario.mapping_path is not None and scenario.ai_profile is not None:
        raise ParseError(p, "scenario.ai_profile",
                         f"not allowed with 'mapping' ({scenario.mapping_path}): "
                         "give one source of traffic")
    return scenario


def fixture_path(name: str) -> Path:
    """Path of a fixture shipped with the package."""
    return Path(__file__).parent / "fixtures" / name
