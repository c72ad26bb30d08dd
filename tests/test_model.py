"""Structural validation: factorization closure, capacity, footprints."""

import pytest

from roofline_lab import (
    ArchSpec,
    ComputeArray,
    InvalidMappingError,
    LoopDim,
    MappingSpec,
    MemoryLevel,
    OperandSpec,
    WorkloadSpec,
    analyze_mapping,
    enumerate_accesses,
    validate,
)
from roofline_lab.model import tile_elements, tile_extents

from conftest import gemm, make_arch, plain_mapping, unroll


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
