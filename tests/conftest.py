"""Shared builders for the test suite."""

import pytest

from roofline_lab import (
    ArchSpec,
    ComputeArray,
    LoopDim,
    MappingSpec,
    MemoryLevel,
    OperandSpec,
    SpatialUnroll,
    WorkloadSpec,
    analyze_intensities,
)


def gemm(b: int, c: int, k: int, name: str = "gemm") -> WorkloadSpec:
    """[B x C] * [C x K]: w[c][k], i[b][c], o[b][k]."""
    return WorkloadSpec(
        name=name,
        dims=(LoopDim("B", b), LoopDim("C", c), LoopDim("K", k)),
        operands=(
            OperandSpec("W", "input", ("C", "K")),
            OperandSpec("I", "input", ("B", "C")),
            OperandSpec("O", "output", ("B", "K")),
        ),
    )


def gemm_bias(b: int, c: int, k: int, name: str = "gemm_bias") -> WorkloadSpec:
    """``gemm`` plus a third input, bias[k], added to every output row."""
    wl = gemm(b, c, k, name)
    w, i, o = wl.operands
    return wl._replace(operands=(w, i, OperandSpec("Bias", "input", ("K",)), o))


def conv7(b, k, c, oy, ox, fy, fx, name: str = "conv") -> WorkloadSpec:
    """7-dim convolution nest; halo effects ignored, so input relevance
    is {B, C, OY, OX, FY, FX}."""
    return WorkloadSpec(
        name=name,
        dims=(
            LoopDim("B", b), LoopDim("K", k), LoopDim("C", c),
            LoopDim("OY", oy), LoopDim("OX", ox),
            LoopDim("FY", fy), LoopDim("FX", fx),
        ),
        operands=(
            OperandSpec("W", "input", ("K", "C", "FY", "FX")),
            OperandSpec("I", "input", ("B", "C", "OY", "OX", "FY", "FX")),
            OperandSpec("O", "output", ("B", "K", "OY", "OX")),
        ),
    )


def make_arch(
    levels: list[tuple[float, float]],
    dims: tuple[tuple[str, int], ...] = (("row", 1), ("col", 1)),
    e_op: float = 0.5,
    clock: float = 1e9,
    overlap: str = "overlapped",
) -> ArchSpec:
    """levels = [(bandwidth B/cycle, energy pJ/B), ...], innermost first."""
    return ArchSpec(
        array=ComputeArray(dims=dims, energy_per_op=e_op),
        levels=tuple(
            MemoryLevel(f"L{i + 1}", bw, e, level_index=i + 1)
            for i, (bw, e) in enumerate(levels)
        ),
        clock=clock,
        latency_overlap=overlap,
    )


@pytest.fixture
def fig3_arch() -> ArchSpec:
    """The reference 3-level constants used across the regression tests:
    A_op 2048 ops/cycle, B = (128, 32, 8) B/cycle, E_op 0.5 pJ/op,
    E = (0.1, 3, 100) pJ/B, 1 GHz."""
    return make_arch(
        [(128, 0.1), (32, 3.0), (8, 100.0)],
        dims=(("row", 32), ("col", 32)),
        e_op=0.5,
    )


def ai_roofs(arch: ArchSpec, ratios: dict[int, float]):
    """(throughput roof, energy roof) of ``arch`` as an AI profile places
    them over a 2048-op GEMM, with each level's AI equal to its given
    ratio r_i = AI_Li/AI_ref, so AI_ref = 1 when the reference level's
    ratio is 1 (any other value rescales the AI axis).  An infinite
    ratio is a level that moves no bytes.  Powers of two come back
    exactly as the roofs' r_i."""
    r = analyze_intensities(arch, gemm(16, 8, 8), ratios)
    return r.throughput_curve, r.energy_curve


def temporal(*levels: list[tuple[str, int]]) -> tuple:
    return tuple(tuple(level) for level in levels)


def plain_mapping(nest_by_level, spatial=(), **kw) -> MappingSpec:
    return MappingSpec(spatial=tuple(spatial), temporal=temporal(*nest_by_level), **kw)


def unroll(axis: str, dim: str, factor: int) -> SpatialUnroll:
    return SpatialUnroll(axis=axis, dim=dim, factor=factor)
