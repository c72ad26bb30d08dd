"""Cost-model transform passes, each one step over the specs:

* quantization - ``apply_quantization`` returns (arch, workload),
  rescaling peak compute, per-op energy and per-element traffic,
  either linearly with precision or with bit-serial weight processing
  where cycles grow with the weight width;
* sparsity - ``apply_sparsity`` returns a model that the traffic stage
  folds in: dense/unstructured/N:M structured, modeled as effective
  operation count (nonzero intersection), per-operand traffic with
  index or block-metadata overhead, and a bandwidth de-rating for the
  lost burstiness of compressed transfers;
* in-memory compute - ``apply_imc`` returns (arch, mapping): an IMC
  macro as the compute array with weights resident in the bit cells;
  beside it, its accumulation dynamic range and the storage-vs-compute
  utilization conflict of fully weight-static mappings;
* the Amdahl bound on end-to-end speedup.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from .model import (
    OUTPUT,
    ArchSpec,
    ComputeArray,
    MappingSpec,
    WorkloadSpec,
)

LINEAR = "linear"
BIT_SERIAL_WEIGHTS = "bit-serial-weights"

DENSE = "dense"
UNSTRUCTURED = "unstructured"
STRUCTURED_NM = "structured-NM"

DEFAULT_INDEX_BITS = 32
DEFAULT_ADC_OVERHEAD = 0.25  # midpoint of the observed 15-40% readout band


class UnsupportedConfigError(ValueError):
    pass


class SparsityConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# quantization


class QuantConfig(NamedTuple):
    """Precision assignment with optional block (shared-exponent) format.

    ``precision_bits`` maps operand name to its new width.  Blocked
    formats amortize ``block_metadata_bits`` over ``block_size``
    elements, so the per-element traffic is
    (bits + metadata/block) / 8 bytes - fractional on purpose.

    ``compute_scaling_exponent`` (>= 1) makes per-op energy scale as
    (bits/base)**alpha; MAC area/energy grows super-linearly with
    operand width, so alpha above 1 is the realistic setting.

    ``throughput_scaling_mode``: "linear" rescales peak ops/cycle by
    base/weight_bits; "bit-serial-weights" processes weight bits one
    per cycle, so cycles scale with the weight width plus a fixed
    per-tile overhead (scale/offset bookkeeping, default 0).
    """

    precision_bits: dict[str, int]
    block_size: int = 1
    block_metadata_bits: int = 0
    compute_scaling_exponent: float = 1.0
    throughput_scaling_mode: str = LINEAR
    weight_operand: str = "W"
    bit_serial_fixed_overhead: float = 0.0  # cycles per tile


def quantized_bytes_per_element(bits: int, block_size: int, metadata_bits: int) -> float:
    return (bits + metadata_bits / block_size) / 8.0


def apply_quantization(
    arch: ArchSpec, wl: WorkloadSpec, q: QuantConfig
) -> tuple[ArchSpec, WorkloadSpec]:
    """Rescale the architecture's compute roof and the workload's
    per-element traffic for the new precisions.

    Linear mode: a datapath built for ``base_precision_bits`` fits
    base/new times more MACs at the narrower weight width, so peak
    ops/cycle grows by that factor while per-op energy scales by
    (new/base)**alpha.

    Bit-serial-weights mode: the array is unchanged but each MAC set
    takes one cycle per weight bit (plus the fixed per-tile overhead),
    so effective peak ops/cycle is base/(N_w + overhead) of nominal.
    Activations below the native width are not supported there.
    """
    names = {op.name for op in wl.operands}
    if q.weight_operand not in names:
        raise UnsupportedConfigError(f"weight_operand {q.weight_operand!r} names no "
                                     f"operand of workload {wl.name!r}")
    for name, bits in q.precision_bits.items():
        if name not in names:
            raise UnsupportedConfigError(f"precision_bits {name!r} names no operand "
                                         f"of workload {wl.name!r}")
        if bits < 1:
            raise UnsupportedConfigError(f"precision_bits for {name} must be >= 1 (got {bits})")
    base = arch.base_precision_bits
    w_bits = q.precision_bits.get(q.weight_operand, base)
    if q.compute_scaling_exponent < 1:
        raise UnsupportedConfigError("compute_scaling_exponent must be >= 1")

    if q.throughput_scaling_mode == LINEAR:
        compute_scale = base / w_bits
        energy_scale = (w_bits / base) ** q.compute_scaling_exponent
    elif q.throughput_scaling_mode == BIT_SERIAL_WEIGHTS:
        for op in wl.operands:
            if op.name == q.weight_operand or op.role == OUTPUT:
                continue
            if q.precision_bits.get(op.name, base) < base:
                raise UnsupportedConfigError(
                    f"bit-serial weight datapath keeps {op.name} at the native "
                    f"{base}-bit width; {q.precision_bits[op.name]} bits unsupported"
                )
        cycles_per_set = w_bits + q.bit_serial_fixed_overhead
        compute_scale = base / cycles_per_set
        energy_scale = cycles_per_set / base
    else:
        raise UnsupportedConfigError(
            f"unknown throughput_scaling_mode {q.throughput_scaling_mode!r}"
        )

    array = arch.array
    new_array = array._replace(
        energy_per_op=array.energy_per_op * energy_scale,
        throughput_scale=array.throughput_scale * compute_scale,
    )
    new_arch = arch._replace(array=new_array)

    new_operands = []
    for op in wl.operands:
        bits = q.precision_bits.get(op.name, op.precision_bits)
        bpe = quantized_bytes_per_element(bits, q.block_size, q.block_metadata_bits)
        accum = None  # recomputed from the new width by OperandSpec
        new_operands.append(
            op._replace(precision_bits=bits, accum_bits=accum, bytes_per_element=bpe)
        )
    new_wl = wl._replace(operands=tuple(new_operands))
    return new_arch, new_wl


# ---------------------------------------------------------------------------
# sparsity


class SparsityConfig(NamedTuple):
    """Per-operand density plus the storage-format cost of skipping zeros.

    ``density`` maps operand name to its nonzero fraction; operands not
    listed stay dense.  Unstructured sparsity pays ``index_bits`` per
    nonzero; N:M structured sparsity pays N*ceil(log2(M)) metadata bits
    per M-element block and requires density == N/M for the operands it
    compresses.  ``utilization_penalty`` de-rates every level's
    bandwidth for the reduced burstiness of compressed transfers.
    """

    mode: str = DENSE
    density: Mapping[str, float] = MappingProxyType({})
    n: int | None = None
    m: int | None = None
    index_bits: int = DEFAULT_INDEX_BITS
    utilization_penalty: float = 1.0


class SparsityModel(NamedTuple):
    """Traffic model handed to the analysis layer."""

    effective_ops: float
    byte_scale: dict[str, float]  # per operand, relative to dense traffic
    bandwidth_penalty: float


def _structured_bits_per_element(data_bits: int, n: int, m: int) -> float:
    # N nonzeros of data plus N position fields of ceil(log2 M) bits, per M
    return (n * data_bits + n * math.ceil(math.log2(m))) / m


def apply_sparsity(wl: WorkloadSpec, s: SparsityConfig) -> SparsityModel:
    """Effective op count and per-operand traffic scaling.

    Only MACs with nonzeros in every sparse input survive, so the
    effective count is N_op times the product of input densities.
    Sparse operand traffic is nonzeros times (data + index) bits for
    the unstructured format, or nonzeros times data bits plus block
    metadata for N:M.  Dense operands are untouched.
    """
    if s.mode not in (DENSE, UNSTRUCTURED, STRUCTURED_NM):
        raise SparsityConfigError(f"unknown sparsity mode {s.mode!r}")
    if not (0 < s.utilization_penalty <= 1):
        raise SparsityConfigError("utilization_penalty must be in (0, 1]")
    names = {op.name for op in wl.operands}
    for name, d in s.density.items():
        if name not in names:
            raise SparsityConfigError(f"density {name!r} names no operand "
                                      f"of workload {wl.name!r}")
        if not (0 < d <= 1):
            raise SparsityConfigError(f"density for {name} must be in (0, 1]")

    if s.mode == STRUCTURED_NM:
        if s.n is None or s.m is None or s.n > s.m:
            raise SparsityConfigError("structured mode needs N <= M")
        for name, d in s.density.items():
            if not math.isclose(d, s.n / s.m, rel_tol=0, abs_tol=1e-12):
                raise SparsityConfigError(
                    f"structured {s.n}:{s.m} requires density {s.n / s.m}, "
                    f"got {d} for {name}"
                )

    effective = float(wl.n_op)
    byte_scale: dict[str, float] = {}
    for op in wl.operands:
        d = s.density.get(op.name, 1.0)
        if op.role != OUTPUT:
            effective *= d
        if op.name not in s.density or s.mode == DENSE:
            continue
        dense_bits = op.precision_bits
        if s.mode == UNSTRUCTURED:
            eff_bits = d * (dense_bits + s.index_bits)
        else:
            eff_bits = _structured_bits_per_element(dense_bits, s.n, s.m)  # type: ignore[arg-type]
        byte_scale[op.name] = eff_bits / dense_bits

    return SparsityModel(
        effective_ops=effective,
        byte_scale=byte_scale,
        bandwidth_penalty=s.utilization_penalty,
    )


# ---------------------------------------------------------------------------
# in-memory compute


class ImcMacro(NamedTuple):
    """A row-parallel in-memory MVM macro.

    ``rows`` inputs feed every column in parallel; each column
    accumulates across all rows in one operation.  ``adc_overhead``
    is the readout energy fraction added on top of the array
    operation; weight updates write ``weight_write_rows_per_cycle``
    rows per cycle and stall compute unless ``reload_overlapped``.
    """

    rows: int
    cols: int
    input_bits: int = 1
    weight_bits: int = 1
    energy_per_op: float = 0.01  # pJ per op at the column level
    adc_overhead: float = DEFAULT_ADC_OVERHEAD
    weight_write_rows_per_cycle: int = 1
    reload_overlapped: bool = False


class ImcDynamicRange(NamedTuple):
    levels: int
    output_bits: int


def imc_dynamic_range(m: ImcMacro) -> ImcDynamicRange:
    """Distinct accumulation outcomes of one column operation.

    The multiplication of a B_X-bit input with a B_W-bit weight spans
    (2**B_X + 2**B_W - 1) levels and the row-parallel accumulation
    multiplies that by the row count; the readout must resolve
    ceil(log2) of it.
    """
    levels = (2**m.input_bits + 2**m.weight_bits - 1) * m.rows
    return ImcDynamicRange(levels=levels, output_bits=math.ceil(math.log2(levels)))


def apply_imc(arch: ArchSpec, mapping: MappingSpec | None,
              m: ImcMacro) -> tuple[ArchSpec, MappingSpec]:
    """Run the mapping on the macro: its (rows x cols) array, with the
    readout overhead on the per-op energy, replaces the compute array.
    Weights live in the bit cells, so the mapping pins ``W`` (zero L1
    traffic for it) and pays ceil(rows / rows written per cycle)
    serialized cycles per weight tile unless reloads are overlapped."""
    array = ComputeArray(
        dims=(("row", m.rows), ("col", m.cols)),
        energy_per_op=m.energy_per_op * (1.0 + m.adc_overhead),
    )
    reload = None if m.reload_overlapped else math.ceil(m.rows / m.weight_write_rows_per_cycle)
    if mapping is None:
        raise ValueError("an IMC transform needs a concrete mapping")
    if mapping.pinned_operand not in (None, "W"):
        raise ValueError(f"the mapping pins {mapping.pinned_operand!r}, but an "
                         f"IMC transform pins 'W'")
    if mapping.reload_cycles_per_tile is not None:
        own = "overlaps its reloads" if reload is None else f"sets its own ({reload})"
        raise ValueError(f"the mapping sets reload_cycles_per_tile "
                         f"{mapping.reload_cycles_per_tile}, but the IMC macro {own}")
    return (arch._replace(array=array),
            mapping._replace(pinned_operand="W", reload_cycles_per_tile=reload))


class ImcMappingTradeoff(NamedTuple):
    """Fully weight-static mapping: store-once vs replicate-for-balance.

    Storing each weight once leaves cells holding low-reuse weights
    idle, so compute utilization is the weight-weighted mean of ops
    per weight over its maximum.  Replicating weights in proportion to
    their reuse equalizes cell activity but inflates the cell count,
    so storage utilization drops to total weights over total cells.
    """

    storage_optimal_compute_utilization: float
    compute_optimal_replication: tuple[float, ...]
    compute_optimal_storage_utilization: float


def imc_mapping_tradeoff(
    layers: list[tuple[int, float]],
) -> ImcMappingTradeoff:
    """``layers`` holds (weight count, ops per weight) per layer."""
    if not layers:
        raise ValueError("need at least one layer")
    weights = [w for w, _ in layers]
    ops = [o for _, o in layers]
    max_ops = max(ops)
    min_ops = min(ops)
    total_w = sum(weights)
    compute_util = sum(w * o for w, o in layers) / (total_w * max_ops)
    replication = tuple(o / min_ops for o in ops)
    total_cells = sum(w * r for w, r in zip(weights, replication))
    storage_util = total_w / total_cells
    return ImcMappingTradeoff(
        storage_optimal_compute_utilization=compute_util,
        compute_optimal_replication=replication,
        compute_optimal_storage_utilization=storage_util,
    )


# ---------------------------------------------------------------------------
# Amdahl


def amdahl_bound(f: float) -> float:
    """Maximum end-to-end speedup when a fraction ``f`` of the task
    cannot be accelerated: 1/f."""
    if not (0 < f <= 1):
        raise ValueError(f"non-accelerable fraction must be in (0, 1], got {f}")
    return 1.0 / f
