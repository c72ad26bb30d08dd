"""Precision and sparsity as roofline transforms.

Narrower operands raise the compute plateau and stretch every level's
intensity; skipping zeros removes work but pays for indices and loses
transfer burstiness, so the operating point slides left and detaches
from the roof.

Run from the repo root:  python3 demos/03_quantization_and_sparsity.py
"""

from roofline_lab import (
    QuantConfig,
    SparsityConfig,
    apply_quantization,
)
from roofline_lab.analysis import analyze_mapping
from roofline_lab.config_io import (
    fixture_path,
    parse_arch,
    parse_mapping,
    parse_workload,
)

arch = parse_arch(fixture_path("fig3.arch"))
wl = parse_workload(fixture_path("gemm.wl"))
mapping = parse_mapping(fixture_path("os_map.map"))

print("=== weight precision sweep (linear datapath, alpha = 1) ===")
print("bits  plateau ops/cycle  E_op pJ  W bytes/elem")
for bits in (8, 4, 2):
    q = QuantConfig(precision_bits={"W": bits})
    a2, w2 = apply_quantization(arch, wl, q)
    print(f"{bits:4d}  {a2.array.a_op:17g}  {a2.array.energy_per_op:7g}"
          f"  {w2.operand('W').bytes_per_element:12g}")

print("\nblock formats amortize one shared exponent over the block:")
q_block = QuantConfig(precision_bits={"W": 4}, block_size=32,
                      block_metadata_bits=8)
_, w_block = apply_quantization(arch, wl, q_block)
print(f"  4-bit data, 32-wide blocks, 8-bit exponent -> "
      f"{w_block.operand('W').bytes_per_element} bytes/element")

print("\n=== bit-serial weights (one weight bit per cycle) ===")


def bit_serial(bits, overhead):
    q = QuantConfig(precision_bits={"W": bits},
                    throughput_scaling_mode="bit-serial-weights",
                    bit_serial_fixed_overhead=overhead)
    return apply_quantization(arch, wl, q)[0]


clean8, clean2 = bit_serial(8, 0.0), bit_serial(2, 0.0)
print(f"no per-tile overhead: 8b costs "
      f"{clean2.array.a_op / clean8.array.a_op:g}x the cycles of 2b "
      f"(exactly the width ratio)")
slow8, slow2 = bit_serial(8, 0.5), bit_serial(2, 0.5)
print(f"half a cycle of scale/offset work per tile: energy ratio drops to "
      f"{slow8.array.energy_per_op / slow2.array.energy_per_op:.3f} - "
      f"the overhead does not shrink with the weights")

print("\n=== sparsity: dense vs 2:4 structured vs highly unstructured ===")
dense = analyze_mapping(arch, wl, mapping, label="dense")
rows = [("dense", dense)]

cfg24 = SparsityConfig(mode="structured-NM", density={"W": 0.5}, n=2, m=4,
                       utilization_penalty=0.9)
rows.append(("2:4 structured",
             analyze_mapping(arch, wl, mapping, label="2:4", transforms=(cfg24,))))

cfg_u = SparsityConfig(mode="unstructured", density={"W": 0.0039},
                       index_bits=32, utilization_penalty=0.5)
rows.append(("0.39% unstructured",
             analyze_mapping(arch, wl, mapping, label="sparse", transforms=(cfg_u,))))

print(f"{'variant':<20} {'eff ops':>9} {'AI_ref':>8} {'ops/cycle':>10} "
      f"{'of ceiling':>10}")
for label, r in rows:
    frac = r.point.ops_per_cycle / r.point.throughput_ceiling
    print(f"{label:<20} {r.effective_ops:9.0f} {r.point.ai_ref:8.3f} "
          f"{r.point.ops_per_cycle:10.2f} {frac:10.2%}")
print("""
Structured sparsity stays near the roof; the unstructured point both
shifts left (indices dilute the traffic) and detaches (the compressed
stream can't use the full burst bandwidth).  Whether it still wins
depends on the absolute numbers, not the picture alone.
""")
