"""Walk through the two ceilings of a small accelerator.

A 2048-op/cycle array behind a three-level memory hierarchy has two
very different roofs: attainable ops/cycle has a hard knee where the
slowest memory slope meets the compute plateau, while attainable
ops/pJ bends smoothly toward 1/E_op.  The same workload can sit on
opposite sides of the two transitions at once.

Run from the repo root:  python3 demos/01_dual_rooflines.py
"""

from roofline_lab import analyze_intensities
from roofline_lab.config_io import fixture_path, parse_arch, parse_workload
from roofline_lab.svgchart import emit_svg

arch = parse_arch(fixture_path("fig3.arch"))
wl = parse_workload(fixture_path("gemm.wl"))

print(f"array: {arch.array.a_op:g} ops/cycle at {arch.array.energy_per_op} pJ/op")
for lvl in arch.levels:
    print(f"  {lvl.name}: {lvl.bandwidth:g} B/cycle, {lvl.energy_per_byte} pJ/B")

# per-level intensities, AI_L2 = 16 at the reference level: the inner
# level sees 16x more bytes than the reference level, the outer level
# 16x fewer.  One evaluation places the task and both roofs from them;
# the roofs depend on the ratios r_i = AI_Li / AI_ref = (1/16, 1, 16)
# alone, so every AI_ref below reads the same two curves.
r = analyze_intensities(arch, wl, {1: 1.0, 2: 16.0, 3: 256.0})

tp = r.throughput_curve
knee_ai, knee_level = tp.knees[0]
print(f"\nthroughput roof: plateau {tp.asymptote:g} ops/cycle, "
      f"knee at AI {knee_ai:g} (limited by {knee_level})")

en = r.energy_curve
print(f"energy roof: asymptote {en.asymptote:g} ops/pJ")
for ai, name in en.knees:
    print(f"  {name} energy share matches compute at AI {ai:g}")

print("\n   AI_ref   ops/cycle     ops/pJ   tp-bound            energy-bound")
for ai in (1.0, 4.0, 16.0, 64.0, 256.0, 1024.0):
    print(f"{ai:9g}  {tp.value_at(ai):10.1f}  {en.value_at(ai):9.4f}"
          f"   {tp.bound_at(ai):<18}  {en.bound_at(ai)}")

# the concrete operating point: the 2048-op task at reference AI 16
lat = r.latency
print(f"\n{wl.name}: E_task {r.e_task_pj:g} pJ, "
      f"L_task {lat.cycles:g} cycles ({lat.seconds * 1e9:g} ns), "
      f"limited by {lat.limiter}")

emit_svg(
    [("throughput roof", tp)],
    [(wl.name, r.point.ai_ref, r.point.ops_per_cycle)],
    "dual_rooflines.svg",
)
print("wrote dual_rooflines.svg")
