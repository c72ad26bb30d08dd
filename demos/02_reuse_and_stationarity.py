"""How loop allocation turns into per-level traffic.

The same GEMM mapped two ways: with the contraction innermost the
output tile stays put (output-stationary) and the partial sums never
leave the registers; with the batch loop innermost the weight tile is
the one that rests.  The stationary-buffer counts come out of a closed
form, and the enumeration oracle replays the nest literally to confirm
them.

Run from the repo root:  python3 demos/02_reuse_and_stationarity.py
"""

from roofline_lab import (
    MappingSpec,
    SpatialUnroll,
    analyze_mapping,
    count_accesses,
    derive_stationarity,
    enumerate_accesses,
)
from roofline_lab.config_io import fixture_path, parse_arch, parse_workload

arch = parse_arch(fixture_path("fig3.arch"))
wl = parse_workload(fixture_path("gemm.wl"))
print(f"{wl.name}: N_op = {wl.n_op}")

spatial = (SpatialUnroll("row", "C", 4), SpatialUnroll("col", "K", 8))

mappings = {
    # C innermost at L1: o[b][k] ignores it, so outputs accumulate in place
    "output-stationary": MappingSpec(
        spatial=spatial, temporal=((("C", 2), ("B", 4)), (("B", 4),), ())
    ),
    # B innermost at L1: w[c][k] ignores it, so the weight tile rests
    "weight-stationary": MappingSpec(
        spatial=spatial, temporal=((("B", 4), ("C", 2)), (("B", 4),), ())
    ),
}

for label, mapping in mappings.items():
    profile = count_accesses(arch, wl, mapping)
    trace = enumerate_accesses(arch, wl, mapping)
    print(f"\n--- {label} ---")
    print("resident operand per level:", derive_stationarity(wl, mapping))
    print("lvl op  events  elems/event  bytes  (oracle bytes)")
    for li in profile.levels:
        for op in wl.operands:
            t = profile.traffic[(li, op.name)]
            check = "ok" if trace.bytes[(li, op.name)] == t.bytes else "MISMATCH"
            print(f" L{li}  {op.name}  {t.events:6d}  {t.elements_per_event:11d}"
                  f"  {t.bytes:6.0f}  ({trace.bytes[(li, op.name)]:.0f} {check})")
    ai = analyze_mapping(arch, wl, mapping).ai
    print("AI per level:", {f"L{li}": round(v, 3) for li, v in ai.items()})

print("""
Note how swapping the two L1 loops moves traffic between operands:
the innermost loop decides who rests, and only one operand can.
""")
