"""Seeded input generator.

Every input the benchmark hands to roofline-lab comes from here: the
architectures, the workloads (GEMM, 4-operand GEMM+bias and
conv-style projective signatures) and the mappings (spatial folds,
core splits, pinned weights with reload cost, capacity-bounded
levels).  Inputs are plain dicts in the on-disk JSON format, so the
same description can be written to a file for the program to parse or
built into objects directly.  Given one ``random.Random`` state the
output is fully determined.  Only the program's model types are used
here, never its analysis code.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from roofline_lab.model import (
    ArchSpec, ComputeArray, LoopDim, MappingSpec, MemoryLevel, OperandSpec,
    SpatialUnroll, WorkloadSpec,
)

AXES = ("row", "col")

KIND_DIMS = {
    "gemm": ("B", "C", "K"),
    "gemm_bias": ("B", "C", "K"),
    "conv": ("N", "K", "C", "P", "Q", "R", "S"),
}

# (name, role, relevant dims) per operand; projective, so the conv
# input is indexed by P, Q, R, S directly (halo ignored).
KIND_OPERANDS = {
    "gemm": (
        ("W", "input", ("C", "K")),
        ("I", "input", ("B", "C")),
        ("O", "output", ("B", "K")),
    ),
    "gemm_bias": (
        ("W", "input", ("C", "K")),
        ("I", "input", ("B", "C")),
        ("Bias", "input", ("K",)),
        ("O", "output", ("B", "K")),
    ),
    "conv": (
        ("W", "input", ("K", "C", "R", "S")),
        ("I", "input", ("N", "C", "P", "Q", "R", "S")),
        ("O", "output", ("N", "K", "P", "Q")),
    ),
}


def arch_dict(rng, n_levels: int, rows: int, cols: int,
              capacities: dict[int, int] | None = None) -> dict:
    """A compute array plus ``n_levels`` memory levels, bandwidth falling
    and energy rising outward."""
    bw = float(rng.choice((128, 256, 512)))
    energy = rng.choice((0.05, 0.1, 0.2))
    levels = []
    for i in range(1, n_levels + 1):
        levels.append({
            "name": f"L{i}",
            "bandwidth": bw,
            "energy_per_byte": energy,
            "capacity": (capacities or {}).get(i),
            "level_index": i,
        })
        bw /= rng.choice((2, 4, 8))
        energy *= rng.choice((4, 8, 16, 32))
    return {
        "array": {
            "dims": [["row", rows], ["col", cols]],
            "energy_per_op": rng.choice((0.2, 0.5, 1.0)),
            "ops_per_mac": 2,
            "throughput_scale": 1.0,
        },
        "levels": levels,
        "clock": 1e9,
        "latency_overlap": "overlapped",
        "base_precision_bits": 8,
    }


def workload_dict(kind: str, log2_sizes: dict[str, int], name: str) -> dict:
    return {
        "name": name,
        "dims": [[d, 2 ** log2_sizes[d]] for d in KIND_DIMS[kind]],
        "operands": [
            {"name": n, "role": role, "relevant_dims": list(rel), "precision_bits": 8}
            for n, role, rel in KIND_OPERANDS[kind]
        ],
    }


def _spread(rng, bits: int, slots: list) -> dict:
    """Distribute ``bits`` factors of two over ``slots`` at random."""
    out = {s: 0 for s in slots}
    for _ in range(bits):
        out[rng.choice(slots)] += 1
    return out


def _temporal_lists(rng, level_bits: dict[tuple[int, str], int],
                    n_levels: int, dims: tuple[str, ...]) -> list:
    """Per-level loop lists (innermost first) in a random order."""
    temporal = []
    for li in range(1, n_levels + 1):
        loops = [[d, 2 ** level_bits[(li, d)]] for d in dims if level_bits[(li, d)] > 0]
        rng.shuffle(loops)
        temporal.append(loops)
    return temporal


def _spatial(rng, dims: tuple[str, ...], rows: int, cols: int,
             max_bits: dict[str, int] | None) -> list:
    """One unroll per array axis on distinct dims: half, all or twice
    the axis (a fold: two array passes per step)."""
    chosen = rng.sample(dims, 2)
    out = []
    for axis, size, d in zip(AXES, (rows, cols), chosen):
        bits = int(math.log2(size)) + rng.choice((-1, 0, 0, 1))
        if max_bits is not None:
            bits = min(bits, max_bits[d])
        if bits > 0:
            out.append({"axis": axis, "dim": d, "factor": 2 ** bits})
    return out


def nest_dicts(rng, kind: str, n_levels: int, rows: int, cols: int,
               temporal_log2: int, l1_log2: int, core_split: bool,
               pinned: bool) -> tuple[dict, dict]:
    """(workload, mapping) whose temporal iteration space is exactly
    2**temporal_log2, 2**l1_log2 of it in the level-1 loops (the
    iterations of one tile).  The dim sizes follow from the mapping, so
    every mapping is a valid factorization by construction."""
    dims = KIND_DIMS[kind]
    spatial = _spatial(rng, dims, rows, cols, None)
    log2 = {d: 0 for d in dims}
    for u in spatial:
        log2[u["dim"]] += int(math.log2(u["factor"]))
    split = None
    if core_split:
        cores = rng.choice((2, 4))
        split = [rng.choice(dims), cores]
        log2[split[0]] += int(math.log2(cores))
    level_bits = _spread(rng, l1_log2, [(1, d) for d in dims])
    level_bits.update(_spread(rng, temporal_log2 - l1_log2,
                              [(li, d) for li in range(2, n_levels + 1) for d in dims]))
    for (_, d), b in level_bits.items():
        log2[d] += b
    mapping = {
        "spatial": spatial,
        "temporal": _temporal_lists(rng, level_bits, n_levels, dims),
        "cores": split[1] if split else 1,
        "core_split": split,
        "pinned_operand": "W" if pinned else None,
        "reload_cycles_per_tile": rng.choice((None, 8, 32)) if pinned else None,
    }
    name = f"{kind}_{'x'.join(str(2 ** log2[d]) for d in dims)}"
    return workload_dict(kind, log2, name), mapping


def candidate_mapping(rng, kind: str, log2_sizes: dict[str, int], n_levels: int,
                      rows: int, cols: int, core_split: bool,
                      pinned: bool) -> dict:
    """One point of a mapper's search space for a fixed problem: a
    random factorization of every dim over spatial, core and temporal
    slots, with random loop orders."""
    dims = KIND_DIMS[kind]
    spatial = _spatial(rng, dims, rows, cols, log2_sizes)
    left = dict(log2_sizes)
    for u in spatial:
        left[u["dim"]] -= int(math.log2(u["factor"]))
    split = None
    if core_split:
        d = rng.choice([x for x in dims if left[x] >= 1])
        bits = min(left[d], rng.choice((1, 2)))
        split = [d, 2 ** bits]
        left[d] -= bits
    level_bits = {}
    for d in dims:
        per_level = _spread(rng, left[d], list(range(1, n_levels + 1)))
        for li, b in per_level.items():
            level_bits[(li, d)] = b
    return {
        "spatial": spatial,
        "temporal": _temporal_lists(rng, level_bits, n_levels, dims),
        "cores": split[1] if split else 1,
        "core_split": split,
        "pinned_operand": "W" if pinned else None,
        "reload_cycles_per_tile": rng.choice((None, 16)) if pinned else None,
    }


def temporal_iterations(mapping: dict) -> int:
    n = 1
    for level in mapping["temporal"]:
        for _, trip in level:
            n *= trip
    return n


def footprint_bytes(wl: dict, mapping: dict, level: int) -> int:
    """Tile footprint summed over operands at ``level``, computed here
    from the dicts (independently of the program's own capacity check)."""
    extent = {d: 1 for d, _ in wl["dims"]}
    for u in mapping["spatial"]:
        extent[u["dim"]] *= u["factor"]
    if mapping["core_split"]:
        extent[mapping["core_split"][0]] *= mapping["core_split"][1]
    for li, loops in enumerate(mapping["temporal"], start=1):
        if li > level:
            break
        for d, trip in loops:
            extent[d] *= trip
    total = 0
    for op in wl["operands"]:
        elements = 1
        for d in op["relevant_dims"]:
            elements *= extent[d]
        total += elements * math.ceil(op["precision_bits"] / 8)
    return total


def to_objects(arch: dict, wl: dict, mapping: dict | None):
    """Program objects for the dicts, without going through a parser."""
    a = ArchSpec(
        array=ComputeArray(
            dims=tuple((n, s) for n, s in arch["array"]["dims"]),
            energy_per_op=arch["array"]["energy_per_op"],
        ),
        levels=tuple(MemoryLevel(**lvl) for lvl in arch["levels"]),
        clock=arch["clock"],
        latency_overlap=arch["latency_overlap"],
    )
    w = WorkloadSpec(
        name=wl["name"],
        dims=tuple(LoopDim(n, s) for n, s in wl["dims"]),
        operands=tuple(
            OperandSpec(o["name"], o["role"], tuple(o["relevant_dims"]),
                        precision_bits=o["precision_bits"])
            for o in wl["operands"]
        ),
    )
    if mapping is None:
        return a, w, None
    m = MappingSpec(
        spatial=tuple(SpatialUnroll(**u) for u in mapping["spatial"]),
        temporal=tuple(tuple((d, t) for d, t in level) for level in mapping["temporal"]),
        cores=mapping["cores"],
        core_split=tuple(mapping["core_split"]) if mapping["core_split"] else None,
        pinned_operand=mapping["pinned_operand"],
        reload_cycles_per_tile=mapping["reload_cycles_per_tile"],
    )
    return a, w, m


def write_json(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data, indent=1) + "\n")
    return path
