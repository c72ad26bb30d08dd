"""Structural validation: factorization closure, capacity, footprints;
the records' value semantics."""

import copy
from collections.abc import Mapping

import pytest

from roofline_lab import (
    AccessProfile,
    ArchSpec,
    ComputeArray,
    CycleSimResult,
    EnergyRoofline,
    EnumerationTrace,
    ImcMacro,
    ImcMappingTradeoff,
    InvalidMappingError,
    LoopDim,
    MappingSpec,
    MemoryLevel,
    OperandSpec,
    QuantConfig,
    RooflineCurve,
    SparsityConfig,
    SparsityModel,
    SpatialUnroll,
    ThroughputRoofline,
    WorkloadSpec,
    analyze_intensities,
    analyze_mapping,
    count_accesses,
    enumerate_accesses,
    imc_mapping_tradeoff,
    simulate_cycles,
    validate,
)
from roofline_lab.config_io import (
    Scenario,
    fixture_path,
    parse_arch,
    parse_mapping,
    parse_scenario,
    parse_workload,
)
from roofline_lab.model import Record, tile_elements, tile_extents
from roofline_lab.report import LoadedScenario, load_scenario
from roofline_lab.transforms import ImcDynamicRange

from conftest import ai_roofs, gemm, make_arch, plain_mapping, unroll


def five_core_setup():
    # 5 cores of a 4x4 array running a 32x4x3 MatMul: K unrolled 3 wide,
    # C unrolled 4 wide, B temporal at L1
    arch = ArchSpec(
        array=ComputeArray(dims=(("a0", 4), ("a1", 4)), energy_per_op=0.5),
        levels=(MemoryLevel("L1", 64, 0.1),),
        clock=1e9,
    )
    wl = gemm(32, 4, 3)
    mapping = plain_mapping(
        [[("B", 32)]],
        spatial=[unroll("a0", "K", 3), unroll("a1", "C", 4)],
        cores=5,
    )
    return arch, wl, mapping


def test_multicore_matmul_mapping_is_valid():
    arch, wl, mapping = five_core_setup()
    assert validate(arch, wl, mapping) == []


def test_short_factorization_is_one_violation():
    arch, wl, _ = five_core_setup()
    bad = plain_mapping(
        [[("B", 16)]],
        spatial=[unroll("a0", "K", 3), unroll("a1", "C", 4)],
        cores=5,
    )
    violations = validate(arch, wl, bad)
    assert len(violations) == 1
    assert "B" in violations[0] and "16" in violations[0]


def test_unbounded_levels_accept_any_legal_factorization():
    arch = make_arch([(8, 0.1), (4, 1.0)])
    wl = gemm(4, 4, 4)
    mapping = plain_mapping([[("C", 4), ("B", 4)], [("K", 4)]])
    assert validate(arch, wl, mapping) == []


def test_capacity_violation_is_reported():
    levels = (
        MemoryLevel("L1", 8, 0.1, capacity=16),
        MemoryLevel("L2", 4, 1.0, level_index=2),
    )
    arch = ArchSpec(
        array=ComputeArray(dims=(("x", 1),), energy_per_op=0.5),
        levels=levels,
        clock=1e9,
    )
    wl = gemm(4, 4, 4)
    # everything tiled at L1: W footprint alone is 16 B, I and O add 32 more
    mapping = plain_mapping([[("C", 4), ("B", 4), ("K", 4)], []])
    violations = validate(arch, wl, mapping)
    assert any("capacity" in v for v in violations)


def _one_level_gemm(**operand_changes):
    """A valid one-level GEMM whose operand I takes ``operand_changes``."""
    wl = gemm(4, 4, 4)
    w, i, o = wl.operands
    wl = wl._replace(operands=(w, i._replace(**operand_changes), o))
    return make_arch([(8, 0.1)]), wl, plain_mapping([[("C", 4), ("B", 4), ("K", 4)]])


def test_duplicate_operand_names_are_a_violation():
    # the second W's traffic would overwrite the first's, keyed by name
    assert validate(*_one_level_gemm(name="W")) == [
        "duplicate operand names in workload: ['W', 'W', 'O']"]


def test_duplicate_level_names_are_a_violation():
    # the roofs and the latency terms are keyed by level name: the
    # second X would stand in for the first, which limits here
    arch = make_arch([(1, 0.1), (64, 1.0)])
    arch = arch._replace(levels=tuple(lvl._replace(name="X") for lvl in arch.levels))
    wl, mapping = gemm(4, 4, 4), plain_mapping([[("C", 4), ("B", 4), ("K", 4)], []])
    assert validate(arch, wl, mapping) == [
        "duplicate level names in architecture: ['X', 'X']"]
    with pytest.raises(InvalidMappingError, match="duplicate level names"):
        analyze_mapping(arch, wl, mapping)


@pytest.mark.parametrize("name", ["compute", "reload"])
def test_a_level_named_after_a_latency_term_is_a_violation(name):
    # task_latency keys the levels' terms by name beside its own
    # "compute" and "reload" terms: an L1 named "compute" at 4 B/cycle
    # would be taken for the compute term, and the limiter with it
    arch = parse_arch(fixture_path("fig3.arch"))
    arch = arch._replace(levels=(arch.level(1)._replace(name=name, bandwidth=4.0),
                                 *arch.levels[1:]))
    wl = parse_workload(fixture_path("gemm.wl"))
    mapping = parse_mapping(fixture_path("os_map.map"))
    message = f"level {name}: the name is reserved for a latency term"
    assert validate(arch, wl, mapping) == [message]
    with pytest.raises(InvalidMappingError, match=message):
        analyze_mapping(arch, wl, mapping)
    with pytest.raises(InvalidMappingError, match=message):
        analyze_intensities(arch, wl, {1: 1.0, 2: 1.0, 3: 1.0})


def test_a_relevant_dim_listed_twice_is_a_violation():
    # tile_elements would multiply the C extent in twice
    assert validate(*_one_level_gemm(relevant_dims=("B", "C", "C"))) == [
        "operand I: relevant dims ['B', 'C', 'C'] name a dim more than once"]


def test_field_invariants_are_violations_not_exceptions():
    arch = ArchSpec(
        array=ComputeArray(dims=(("x", 1),), energy_per_op=0.5),
        levels=(MemoryLevel("L1", -1.0, 0.1),),
        clock=1e9,
    )
    wl = gemm(2, 2, 2)
    mapping = plain_mapping([[("B", 2), ("C", 2), ("K", 2)]])
    violations = validate(arch, wl, mapping)
    assert any("bandwidth" in v for v in violations)


def test_a_op_counts_two_ops_per_mac_and_ignores_mapping():
    array = ComputeArray(dims=(("row", 16), ("col", 8)), energy_per_op=0.5)
    assert array.a_op == 2 * 16 * 8


def test_n_op_is_twice_the_iteration_space():
    assert gemm(3, 5, 7).n_op == 2 * 3 * 5 * 7


def test_output_accumulator_defaults_to_4x_capped_32():
    out8 = OperandSpec("O", "output", ("B",), precision_bits=8)
    assert out8.accum_bits == 32
    out16 = OperandSpec("O", "output", ("B",), precision_bits=16)
    assert out16.accum_bits == 32
    out4 = OperandSpec("O", "output", ("B",), precision_bits=4)
    assert out4.accum_bits == 16


def test_footprint_is_nondecreasing_across_levels():
    wl = gemm(8, 4, 4)
    mapping = plain_mapping(
        [[("B", 2)], [("C", 4), ("B", 2)], [("K", 4), ("B", 2)]]
    )
    # a footprint is the tile's elements times a fixed width per operand
    extents = tile_extents(mapping, 3)
    for op in wl.operands:
        footprints = [tile_elements(extents[li], op) for li in (1, 2, 3)]
        assert footprints == sorted(footprints)


def test_mapping_cannot_tile_more_levels_than_the_arch_has():
    arch = make_arch([(8, 0.1)])
    wl = gemm(4, 2, 2)
    mapping = plain_mapping([[("B", 4)], [("C", 2), ("K", 2)]])
    violations = validate(arch, wl, mapping)
    assert any("tiles 2 levels" in v for v in violations)


def test_duplicate_axis_and_missing_output_are_caught():
    arch = make_arch([(8, 0.1)], dims=(("x", 4), ("y", 4)))
    wl = WorkloadSpec(
        name="no-output",
        dims=(LoopDim("A", 4),),
        operands=(OperandSpec("X", "input", ("A",)),),
    )
    mapping = MappingSpec(
        spatial=(unroll("x", "A", 2), unroll("x", "A", 2)),
        temporal=(),
    )
    violations = validate(arch, wl, mapping)
    assert any("output-like" in v for v in violations)
    assert any("more than one spatial entry" in v for v in violations)


def test_core_split_wider_than_the_cores_is_a_violation():
    # a 2-way split on one core: the analysis would count both slices
    # as parallel and place the point above its own roof
    arch = make_arch([(4096, 0.1), (2048, 2.0), (1024, 50.0)], dims=(("row", 8), ("col", 8)))
    wl = gemm(64, 32, 32)
    mapping = plain_mapping(
        [[("B", 16), ("C", 4)], [("K", 2)], [("B", 4)]],
        spatial=[unroll("row", "C", 8), unroll("col", "K", 8)],
        cores=1, core_split=("K", 2),
    )
    assert validate(arch, wl, mapping) == ["core_split factor 2 exceeds cores 1"]
    with pytest.raises(InvalidMappingError, match="core_split"):
        analyze_mapping(arch, wl, mapping)


def test_several_faults_are_listed_in_the_order_of_the_checks():
    # the levels one by one, then their indices and names; the
    # workload's operand names, then its output count and its dims;
    # then the spatial entries one by one and the factorization closure
    arch = ArchSpec(
        array=ComputeArray(dims=(("row", 2), ("col", 2)), energy_per_op=0.5),
        levels=(MemoryLevel("L1", 0.0, 0.1),
                MemoryLevel("compute", 4.0, 1.0, level_index=3),
                MemoryLevel("L1", 2.0, -1.0, level_index=2)),
        clock=1e9,
    )
    wl = WorkloadSpec(
        name="faulty",
        dims=(LoopDim("B", 2), LoopDim("C", 2), LoopDim("K", 2), LoopDim("X", 1)),
        operands=(OperandSpec("W", "input", ("C", "K")), OperandSpec("I", "input", ("B", "C")),
                  OperandSpec("W", "input", ("B", "K"))),
    )
    mapping = plain_mapping([[("C", 2), ("K", 2)]],
                            spatial=[unroll("row", "B", 2), unroll("row", "B", 2)])
    assert validate(arch, wl, mapping) == [
        "level L1: bandwidth must be > 0 (got 0.0)",
        "level compute: the name is reserved for a latency term",
        "level L1: energy_per_byte must be >= 0",
        "level indices must run 1..3 contiguously (got [1, 3, 2])",
        "duplicate level names in architecture: ['L1', 'compute', 'L1']",
        "duplicate operand names in workload: ['W', 'I', 'W']",
        "workload must have exactly one output-like operand (got 0)",
        "dim X is relevant to no operand",
        "array axis row mapped by more than one spatial entry",
        "duplicate spatial unroll for (axis row, dim B)",
        "dim B: spatial x temporal x core product 4 != size 2",
    ]


def _invalid(nest_by_level, spatial=(), l1_capacity=None, **kw):
    arch = ArchSpec(
        array=ComputeArray(dims=(("row", 2), ("col", 2)), energy_per_op=0.5),
        levels=(MemoryLevel("L1", 8, 0.1, capacity=l1_capacity),
                MemoryLevel("L2", 4, 1.0, level_index=2)),
        clock=1e9,
    )
    return arch, gemm(4, 4, 4), plain_mapping(nest_by_level, spatial=spatial, **kw)


@pytest.mark.parametrize("case, expected", [
    (_invalid([[("C", 4), ("B", 4)], [("K", 2)]]),
     ["dim K: spatial x temporal x core product 2 != size 4"]),
    # L1 tiles: W spans C 4, I spans B 2 x C 4, O spans B 2: 4 + 8 + 2 B
    (_invalid([[("C", 4)], [("B", 2), ("K", 4)]], spatial=[unroll("row", "B", 2)],
              l1_capacity=13),
     ["level L1: tile footprint 14 B exceeds capacity 13 B"]),
    (_invalid([[("C", 4), ("B", 4)], [("K", 2)]], cores=1, core_split=("K", 2)),
     ["core_split factor 2 exceeds cores 1"]),
    (_invalid([[("C", 4), ("B", 4), ("Z", 2)], [("K", 4)]]),
     ["temporal loop over unknown dim 'Z' at L1"]),
    (_invalid([[("C", 4)], [("K", 4)]], spatial=[unroll("row", "B", 8)]),
     ["spatial unroll of B by 8 exceeds dim size 4",
      "dim B: spatial x temporal x core product 8 != size 4"]),
], ids=["closure-short-by-one-factor", "capacity-over-by-one-byte",
        "core-split-wider-than-cores", "temporal-loop-over-unknown-dim",
        "spatial-factor-above-dim-size"])
def test_invalid_mapping_messages_are_exact(case, expected):
    arch, wl, mapping = case
    assert validate(arch, wl, mapping) == expected
    for analysis in (analyze_mapping, enumerate_accesses):
        with pytest.raises(InvalidMappingError) as err:
            analysis(arch, wl, mapping)
        assert err.value.violations == expected


def test_relevant_is_built_once_and_is_not_a_field():
    op = OperandSpec("O", "output", ("B", "K"))
    assert op.relevant == frozenset(("B", "K")) and op.relevant is op.relevant
    other = OperandSpec("O", "output", ("K", "B"))
    assert other.relevant == op.relevant and other != op
    assert "relevant" not in op._fields and "relevant=" not in repr(op)
    assert op._replace(relevant_dims=("B",)).relevant == frozenset(("B",))


def test_replace_derives_the_operand_defaults_again():
    op = OperandSpec("O", "output", ("B", "K"), precision_bits=8)
    assert (op.accum_bits, op.bytes_per_element) == (32, 1.0)
    narrow = op._replace(precision_bits=2, accum_bits=None, bytes_per_element=None)
    assert (narrow.accum_bits, narrow.bytes_per_element) == (8, 1.0)
    assert op._replace(precision_bits=2).accum_bits == 32  # kept unless reset


def test_replace_rejects_unknown_fields_and_rebuilds_derived_attributes():
    hot = [(make, field) for cls, make, field, _ in RECORDS if issubclass(cls, Record)]
    for make, field in hot:
        record = make()
        with pytest.raises(TypeError, match="zz_unknown"):
            record._replace(zz_unknown=1)
        with pytest.raises(TypeError, match="zz_unknown"):
            record._replace(**{field: getattr(record, field), "zz_unknown": 1})
    op = OperandSpec("I", "input", ("B", "C"))
    assert op._replace(relevant_dims=("C", "K")).relevant == frozenset(("C", "K"))
    profile = count_accesses(*_tiny())
    assert profile.n_bytes  # summed for the original, again for the copy
    assert profile._replace(traffic={}).n_bytes == {li: 0.0 for li in profile.levels}
    with pytest.raises(KeyError):  # traffic across a boundary the profile does not list
        profile._replace(levels=(1,))


def _tiny():
    arch = make_arch([(8.0, 0.1), (2.0, 1.0)], dims=(("row", 2), ("col", 1)))
    mapping = plain_mapping([[("K", 2)], [("B", 2), ("C", 2)]],
                            spatial=[unroll("row", "K", 2)])
    return arch, gemm(2, 2, 4), mapping


def _scenario():
    return parse_scenario(fixture_path("gemm_dense.scenario"))


RATIOS = {1: 0.25, 2: 1.0}

# (record class, a builder of one record, a field, a new value for it);
# every record the package defines, hot (``Record``) and cold (NamedTuple)
RECORDS = [
    (MemoryLevel, lambda: MemoryLevel("L1", 64.0, 0.1, capacity=1024), "bandwidth", 32.0),
    (ComputeArray, lambda: ComputeArray((("row", 4), ("col", 4)), 0.5), "energy_per_op", 0.25),
    (ArchSpec, lambda: _tiny()[0], "clock", 2e9),
    (LoopDim, lambda: LoopDim("B", 4), "size", 8),
    (OperandSpec, lambda: OperandSpec("O", "output", ("B", "K")), "precision_bits", 4),
    (WorkloadSpec, lambda: _tiny()[1], "name", "other"),
    (SpatialUnroll, lambda: unroll("row", "C", 4), "factor", 2),
    (MappingSpec, lambda: _tiny()[2]._replace(cores=2, core_split=("B", 2)), "cores", 4),
    # a level set that still holds every traffic level: N_Li is summed at construction
    (AccessProfile, lambda: count_accesses(*_tiny()), "levels", (1, 2, 3)),
    (RooflineCurve, lambda: RooflineCurve(((1.0, "L1"),), 4.0),
     "asymptote", 8.0),
    (ThroughputRoofline, lambda: ai_roofs(_tiny()[0], RATIOS)[0], "asymptote", 1.0),
    (EnergyRoofline, lambda: ai_roofs(_tiny()[0], RATIOS)[1], "e_op", 1.0),
    (Scenario, _scenario, "label", "other"),
    (LoadedScenario, lambda: load_scenario(_scenario()), "ref_level", 3),
    (EnumerationTrace, lambda: enumerate_accesses(*_tiny()), "events", {}),
    (CycleSimResult, lambda: simulate_cycles(*_tiny()), "n_tiles", 99),
    (QuantConfig, lambda: QuantConfig(precision_bits={"W": 4}), "block_size", 8),
    (SparsityConfig, lambda: SparsityConfig(), "mode", "unstructured"),
    (SparsityModel, lambda: SparsityModel(1.0, {"W": 0.5}, 1.0), "bandwidth_penalty", 0.5),
    (ImcMacro, lambda: ImcMacro(rows=64, cols=8), "rows", 32),
    (ImcDynamicRange, lambda: ImcDynamicRange(3, 2), "levels", 5),
    (ImcMappingTradeoff, lambda: imc_mapping_tradeoff([(10, 2.0), (20, 1.0)]),
     "storage_optimal_compute_utilization", 0.5),
]


@pytest.mark.parametrize("cls, make, field, value", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_records_are_immutable_values(cls, make, field, value):
    a, b = make(), make()
    assert type(a) is cls and a == b and a is not b
    changed = a._replace(**{field: value})
    assert type(changed) is cls and getattr(changed, field) == value and changed != a
    assert all(getattr(changed, f) == getattr(a, f) for f in a._fields if f != field)
    assert a == b  # _replace left the original as it was
    assert copy.copy(a) == a
    shown = ", ".join(f"{f}={getattr(a, f)!r}" for f in a._fields)
    assert repr(a) == f"{cls.__name__}({shown})"
    if any(isinstance(getattr(a, f), Mapping) for f in a._fields):
        with pytest.raises(TypeError):  # a dict field makes the record unhashable
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, value)
    assert getattr(a, field) != value
