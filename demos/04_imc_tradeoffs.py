"""In-memory compute: what the row-parallel reduction buys and costs.

An IMC macro executes a whole column reduction in one shot, so its
dynamic range grows with the row count and its readout must resolve
it.  Keeping the weights inside the array kills their L1 traffic, but
loading them is serialized row by row, and storing every weight
exactly once fights with keeping every cell busy.

Run from the repo root:  python3 demos/04_imc_tradeoffs.py
"""

from roofline_lab import ImcMacro, apply_imc, imc_dynamic_range, imc_mapping_tradeoff
from roofline_lab.config_io import fixture_path, parse_scenario
from roofline_lab.report import load_scenario, run_scenario

print("=== accumulation dynamic range vs array geometry ===")
print("rows  in-bits  w-bits  levels  readout bits")
for rows, bx, bw in ((1, 1, 1), (256, 1, 1), (256, 4, 4), (1024, 4, 4)):
    dr = imc_dynamic_range(ImcMacro(rows=rows, cols=256,
                                    input_bits=bx, weight_bits=bw))
    print(f"{rows:4d}  {bx:7d}  {bw:6d}  {dr.levels:6d}  {dr.output_bits:12d}")
print("every extra resolved bit costs readout energy and area")

print("\n=== a 256x256 macro as a mapped architecture ===")
loaded = load_scenario(parse_scenario(fixture_path("imc256.scenario")))
macro = ImcMacro(rows=256, cols=256, energy_per_op=0.01, adc_overhead=0.25)
arch, mapping = apply_imc(loaded.arch, loaded.mapping, macro)
print(f"peak {arch.array.a_op:g} ops/cycle, "
      f"{arch.array.energy_per_op:g} pJ/op with readout overhead")
print(f"weights pinned in the array ({mapping.pinned_operand}), "
      f"reload {mapping.reload_cycles_per_tile} cycles per tile")
print(f"streams {macro.rows} input words and {macro.cols} output words per cycle")

res = run_scenario(loaded)
u = res.utilization
print(f"\nshipped scenario '{res.label}': a 128-channel layer on the "
      f"256-wide columns,\n1024-cycle weight residency against a "
      f"256-cycle reload:")
print(f"  spatial {u.spatial}, temporal {u.temporal}, total {u.total}")
print(f"  attained {res.point.ops_per_cycle:g} ops/cycle "
      f"= {res.point.ops_per_cycle / res.point.throughput_ceiling:.0%} "
      f"of the {res.point.throughput_ceiling:g} ceiling")

print("\n=== storing weights once vs replicating for balance ===")
layers = [(1000, 1.0), (1000, 16.0)]
t = imc_mapping_tradeoff(layers)
print(f"two equal-size layers, 1 vs 16 ops per weight:")
print(f"  store-once compute utilization: "
      f"{t.storage_optimal_compute_utilization:.5f}")
print(f"  replicate-for-balance: factors {t.compute_optimal_replication}, "
      f"storage utilization {t.compute_optimal_storage_utilization:.4f}")
uniform = imc_mapping_tradeoff([(512, 8.0), (2048, 8.0)])
print(f"uniform reuse keeps both at "
      f"{uniform.storage_optimal_compute_utilization:.0%} / "
      f"{uniform.compute_optimal_storage_utilization:.0%} - the conflict "
      f"only appears when reuse varies across layers")
