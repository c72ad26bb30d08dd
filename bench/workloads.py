"""The four closed-loop workloads.

Each workload builds one *round* of items in ``setup`` from its seed,
and the runner repeats whole rounds.  ``run`` is the timed call into
roofline-lab for one item; ``fault`` recognises a known fault in a
returned output; ``check`` verifies an output against independent
computations or required properties, fully on the first round and by
equality with the first round afterwards; ``final_checks`` holds the
costly cross-checks, run once after the measurement.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

import gen
import roofline_lab.cli  # the whole package, as every CLI user imports it
from roofline_lab import config_io, model, oracle, report, roofline
from roofline_lab import mapping as rl_mapping
from roofline_lab.transforms import ImcMacro

TOL = 1e-9
MAX_ERRORS = 20


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def traffic_bytes(profile) -> dict[int, float]:
    """N_Li summed from the per-operand traffic entries."""
    out = {li: 0.0 for li in profile.levels}
    for (li, _), t in profile.traffic.items():
        out[li] += t.events * t.elements_per_event * t.bytes_per_element * t.access_factor
    return out


def expected_energy(arch, wl, n_bytes: dict[int, float]) -> float:
    """E_task = N_op * E_op + sum_i N_Li * E_Li."""
    return wl.n_op * arch.array.energy_per_op + sum(
        n_bytes[lvl.level_index] * lvl.energy_per_byte for lvl in arch.levels
    )


def latency_floor(arch, wl, n_bytes: dict[int, float], cores: int) -> float:
    """max(N_L1 / (B_L1 * cores), N_Li / B_Li, N_op / (cores * A_op))."""
    terms = [wl.n_op / (cores * arch.array.a_op)]
    for lvl in arch.levels:
        share = cores if lvl.level_index == 1 else 1
        terms.append(n_bytes[lvl.level_index] / (lvl.bandwidth * share))
    return max(terms)


def oracle_mismatches(profile, trace) -> list[str]:
    """Every (level, operand) where count_accesses and
    enumerate_accesses disagree on events or bytes."""
    bad = []
    for key, t in profile.traffic.items():
        if t.events != trace.events[key] or not close(t.bytes, trace.bytes[key]):
            bad.append(f"{key}: count_accesses {t.events} events/{t.bytes} B, "
                       f"enumerate_accesses {trace.events[key]}/{trace.bytes[key]} B")
    return bad


def cross_check(arch, wl, mapping) -> list[str]:
    return oracle_mismatches(rl_mapping.count_accesses(arch, wl, mapping),
                             oracle.enumerate_accesses(arch, wl, mapping))


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int, out: Path):
        self.root = root
        self.seed = seed
        self.out = out
        self.rng = random.Random(f"{self.name}:{seed}")
        self.items: list = []
        self.errors: list[str] = []
        self.n_errors = 0
        self.first: dict[int, object] = {}

    def error(self, message: str) -> None:
        self.n_errors += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def fault(self, item, result) -> str | None:
        return None

    def expected_failure(self, item, problem: str) -> bool:
        """Whether a failure is the known fault this workload keeps."""
        return False

    def check(self, index: int, item, result, first: bool) -> None:
        summary = self.summarize(item, result, first)
        if first:
            self.first[index] = summary
        elif summary != self.first[index]:
            self.error(f"{self.name} item {index}: output differs from the first round")

    def summarize(self, item, result, first: bool):
        raise NotImplementedError

    def after_first_round(self) -> None:
        pass

    def final_checks(self) -> None:
        pass


# ---------------------------------------------------------------------------
# design-sweep


@dataclass
class Point:
    scenario: report.LoadedScenario
    param: str
    value: float
    fault: str | None  # the known fault this fixed point shows, if any


LEVEL_SCALES = (0.25, 0.5, 2.0, 4.0)
ROOF_FAULT = "point above its drawn roof"
CORE_SPLIT = "core-split"  # operating point and drawn roof ignore cores
THROUGHPUT_SCALE = "throughput-scale"  # temporal_steps ignores a lowered A_op
FAULT_PREFIXES = {CORE_SPLIT: ("AssertionError: attained", ROOF_FAULT),
                  THROUGHPUT_SCALE: ("AssertionError: attained",)}

# Seed-independent fault scenarios: (name, arch levels as (bandwidth,
# pJ/B), mapping, fault, sweeps).  gemm B64 x C32 x K32 on an 8x8 array
# (peak 128 ops/cycle).
CORE_SPLIT_SWEEPS = (("f_clk", (5e8, 2e9)), ("E_L2", (1.0, 4.0)),
                     ("B_L3", (16.0, 64.0)), ("dim:col", (4, 16)))
FAULT_SCENARIOS = (
    ("cs-l1-narrow", ((16, 0.1), (64, 2.0), (32, 50.0)),
     {"spatial": [{"axis": "row", "dim": "C", "factor": 8},
                  {"axis": "col", "dim": "K", "factor": 8}],
      "temporal": [[["C", 4], ["B", 8]], [["K", 4], ["B", 4]], []],
      "cores": 2, "core_split": ["B", 2]}, CORE_SPLIT, CORE_SPLIT_SWEEPS),
    ("cs-compute", ((4096, 0.1), (2048, 2.0), (1024, 50.0)),
     {"spatial": [{"axis": "row", "dim": "C", "factor": 8},
                  {"axis": "col", "dim": "K", "factor": 8}],
      "temporal": [[["B", 16], ["C", 4]], [["K", 2]], [["B", 4]]],
      "cores": 2, "core_split": ["K", 2]}, CORE_SPLIT, CORE_SPLIT_SWEEPS),
    ("cs-l3-narrow", ((256, 0.1), (64, 2.0), (2, 50.0)),
     {"spatial": [{"axis": "row", "dim": "C", "factor": 8},
                  {"axis": "col", "dim": "K", "factor": 8}],
      "temporal": [[["C", 4]], [["B", 16]], [["K", 2], ["B", 4]]],
      "cores": 2, "core_split": ["K", 2]}, CORE_SPLIT, CORE_SPLIT_SWEEPS),
    # compute-bound on one core: every A_op below 128, and every
    # precision above the native 8 bits, puts the point above its ceiling
    ("ts-compute", ((4096, 0.1), (2048, 2.0), (1024, 50.0)),
     {"spatial": [{"axis": "row", "dim": "C", "factor": 8},
                  {"axis": "col", "dim": "K", "factor": 8}],
      "temporal": [[["B", 16], ["C", 4]], [["K", 4]], [["B", 4]]],
      "cores": 1, "core_split": None}, THROUGHPUT_SCALE,
     (("A_op", (32.0, 64.0, 96.0)), ("precision", (12, 16)))),
)
# Fixed points on shipped scenarios: gemm_dense attains 51.2 ops/cycle.
SHIPPED_FAULT_SWEEPS = {"gemm_dense": (("A_op", (32.0,)),)}


class DesignSweep(Workload):
    """apply_sweep_value -> run_scenario -> analysis_row per design point."""

    name = "design-sweep"
    SHIPPED = ("fig3_ai16", "gemm_dense", "gemm_2to4", "imc256")
    # Generated scenario i has kind KINDS[i % 3], 2 + (i // 3) % 3 memory
    # levels, transform chain CHAINS[(i // 4) % 3] and sweeps four
    # parameters of GENERATED_PARAMS (Lout is its outermost level).  Only
    # values and the generated arch, workload and mapping depend on the
    # seed, so every seed calls the same functions as often.
    N_GENERATED = 12
    KINDS = ("gemm", "gemm_bias", "conv")
    CHAINS = (None, "quantization", "sparsity")
    GENERATED_PARAMS = ("A_op", "E_op", "f_clk", "precision", "density", "dim:row",
                        "dim:col", "B_L1", "B_Lout", "E_L1", "E_Lout")
    TRANSFORMS = {
        None: [],
        "quantization": [{"kind": "quantization", "precision_bits": {"W": 4},
                          "block_size": 32, "block_metadata_bits": 8}],
        "sparsity": [{"kind": "sparsity", "mode": "structured-NM", "density": {"W": 0.5},
                      "n": 2, "m": 4, "index_bits": 32, "utilization_penalty": 0.9}],
    }

    def setup(self) -> None:
        d = self.out / "design"
        d.mkdir(parents=True, exist_ok=True)
        self.mapped = []  # (label, arch, wl, mapping) for the oracle cross-check
        for name in self.SHIPPED:
            s = self._load(config_io.fixture_path(f"{name}.scenario"))
            self._queue(s, [(p, self._values(s, p, 2)) for p in self._params(s)])
            self._queue(s, SHIPPED_FAULT_SWEEPS.get(name, ()), THROUGHPUT_SCALE)
        for i in range(self.N_GENERATED):
            kind, n_levels = self.KINDS[i % 3], 2 + (i // 3) % 3
            rows, cols = self.rng.choice((4, 8, 16)), self.rng.choice((4, 8, 16))
            arch = gen.arch_dict(self.rng, n_levels, rows, cols)
            wl, mapping = gen.nest_dicts(
                self.rng, kind, n_levels, rows, cols, self.rng.randint(8, 11),
                self.rng.randint(1, 4), core_split=False, pinned=self.rng.random() < 0.3)
            params = [self.GENERATED_PARAMS[(4 * i + j) % len(self.GENERATED_PARAMS)]
                      .replace("Lout", f"L{n_levels}") for j in range(4)]
            s = self._load(self._write(d, f"gen{i}", arch, wl, mapping,
                                       self.TRANSFORMS[self.CHAINS[(i // 4) % 3]]))
            self._queue(s, [(p, self._values(s, p, 3)) for p in params])
        for name, levels, mapping, fault, sweeps in FAULT_SCENARIOS:
            arch = gen.arch_dict(random.Random(name), 3, 8, 8)
            for lvl, (bw, e) in zip(arch["levels"], levels):
                lvl.update(bandwidth=float(bw), energy_per_byte=e)
            arch["array"]["energy_per_op"] = 0.5
            wl = gen.workload_dict("gemm", {"B": 6, "C": 5, "K": 5}, "gemm64x32x32")
            mapping = dict(mapping, pinned_operand=None, reload_cycles_per_tile=None)
            self._queue(self._load(self._write(d, name, arch, wl, mapping, [])), sweeps, fault)

    def _write(self, d: Path, label: str, arch: dict, wl: dict, mapping: dict,
               transforms: list) -> Path:
        gen.write_json(d / f"{label}.arch", arch)
        gen.write_json(d / f"{label}.wl", wl)
        gen.write_json(d / f"{label}.map", mapping)
        return gen.write_json(d / f"{label}.scenario", {
            "label": label, "arch": f"{label}.arch", "workload": f"{label}.wl",
            "mapping": f"{label}.map", "transforms": transforms,
        })

    def _load(self, path: Path) -> report.LoadedScenario:
        loaded = report.load_scenario(config_io.parse_scenario(path))
        if loaded.mapping is not None:
            self.mapped.append((loaded.label, loaded.arch, loaded.workload, loaded.mapping))
        return loaded

    def _queue(self, s: report.LoadedScenario, sweeps, fault: str | None = None) -> None:
        """Queue one point per (parameter, values) sweep value."""
        for param, values in sweeps:
            for v in values:
                self.items.append(Point(s, param, v, fault))

    @staticmethod
    def _params(s: report.LoadedScenario) -> list[str]:
        params = ["A_op", "E_op", "f_clk", "precision", "density", "dim:row", "dim:col"]
        params += [f"B_{lvl.name}" for lvl in s.arch.levels]
        params += [f"E_{lvl.name}" for lvl in s.arch.levels]
        if any(isinstance(t, ImcMacro) for t in s.transforms):
            params.append("P_R")
        return params

    def _values(self, s: report.LoadedScenario, param: str, n: int) -> list[float]:
        """``n`` seeded values of ``param``, ascending."""
        pick = lambda options: sorted(self.rng.sample(options, n))  # noqa: E731
        arch = s.arch
        if param == "A_op":
            # Not below the array's own peak: temporal_steps ignores
            # throughput_scale, so a lowered A_op makes operating_point
            # raise on compute-bound mappings, on some seeds only.  The
            # fixed THROUGHPUT_SCALE points keep that fault.
            peak = arch.array.ops_per_mac * math.prod(size for _, size in arch.array.dims)
            return [peak * f for f in pick((1.0, 1.5, 2.0, 3.0, 4.0))]
        if param == "E_op":
            return [arch.array.energy_per_op * f for f in pick(LEVEL_SCALES)]
        if param == "f_clk":
            return pick((5e8, 1e9, 2e9, 3e9))
        if param == "precision":
            return pick((2, 4, 8))  # wider than native lowers A_op, as above
        if param == "density":
            return pick((0.125, 0.25, 0.5, 0.75, 1.0))
        if param.startswith("dim:"):
            return pick((4, 8, 16, 32, 64))
        if param == "P_R":
            return pick((64, 128, 256, 512))
        lvl = next(lv for lv in arch.levels if lv.name == param[2:])
        base = lvl.bandwidth if param.startswith("B_") else lvl.energy_per_byte
        return [base * f for f in pick(LEVEL_SCALES)]

    def run(self, p: Point):
        result = report.run_scenario(report.apply_sweep_value(p.scenario, p.param, p.value))
        return result, report.analysis_row(result)

    @staticmethod
    def drawn_roof(result) -> float:
        """Height of the drawn throughput roof at the point's AI_ref:
        the curve's plateau, or a level's slope min_i(ops * B_i / N_i)."""
        n_bytes = traffic_bytes(result.profile)
        roof = result.throughput_curve.asymptote
        for lvl in result.arch.levels:
            if n_bytes[lvl.level_index] > 0:
                roof = min(roof, result.effective_ops * lvl.bandwidth
                           / n_bytes[lvl.level_index])
        return roof

    def fault(self, p: Point, out) -> str | None:
        result, _ = out
        roof = self.drawn_roof(result)
        if result.point.ops_per_cycle > roof * (1 + TOL):
            return f"{ROOF_FAULT} {roof}: attained {result.point.ops_per_cycle} ops/cycle"
        return None

    def expected_failure(self, p: Point, problem: str) -> bool:
        """A fixed point's known fault: operating_point's own ceiling
        check raises, or (core split) the point lands above its drawn
        roof."""
        return p.fault is not None and problem.startswith(FAULT_PREFIXES[p.fault])

    def summarize(self, p: Point, out, first: bool):
        result, row = out
        if first:
            where = f"{p.scenario.label} {p.param}={p.value}"
            n_bytes = traffic_bytes(result.profile)
            e_task = expected_energy(result.arch, result.workload, n_bytes)
            if not close(result.e_task_pj, e_task):
                self.error(f"{where}: E_task {result.e_task_pj} != {e_task}")
            if not close(result.point.attained_efficiency * e_task, result.effective_ops):
                self.error(f"{where}: ops/pJ * E_task != effective ops")
            cores = result.mapping.cores if result.mapping is not None else 1
            floor = latency_floor(result.arch, result.workload, n_bytes, cores)
            if result.latency.cycles < floor * (1 - TOL):
                self.error(f"{where}: L_task {result.latency.cycles} below {floor}")
        return (row, result.point.ops_per_cycle, result.point.attained_efficiency)

    def after_first_round(self) -> None:
        """Raising a B_L* never lowers ops/cycle; raising an E_* never
        raises ops/pJ (values of one sweep are in ascending order)."""
        series: dict[tuple[str, str], list] = {}
        for i, p in enumerate(self.items):
            if i in self.first and p.fault is None:
                series.setdefault((p.scenario.label, p.param), []).append(self.first[i])
        for (label, param), outs in series.items():
            if param.startswith("B_"):
                vals = [o[1] for o in outs]
                if any(b < a * (1 - TOL) for a, b in zip(vals, vals[1:])):
                    self.error(f"{label}: ops/cycle falls as {param} rises: {vals}")
            elif param.startswith("E_"):
                vals = [o[2] for o in outs]
                if any(b > a * (1 + TOL) for a, b in zip(vals, vals[1:])):
                    self.error(f"{label}: ops/pJ rises with {param}: {vals}")

    def final_checks(self) -> None:
        for label, arch, wl, mapping in self.mapped:
            for bad in cross_check(arch, wl, mapping):
                self.error(f"{label}: {bad}")


# ---------------------------------------------------------------------------
# mapping-search


@dataclass
class Candidate:
    arch: model.ArchSpec
    workload: model.WorkloadSpec
    mapping: model.MappingSpec
    fits: bool  # the benchmark's own capacity verdict
    iterations: int


class MappingSearch(Workload):
    """validate -> count_accesses -> task_energy -> task_latency ->
    utilization per candidate mapping; no roofs are built."""

    name = "mapping-search"
    # (kind, memory levels, capacity-bounded levels)
    PROBLEMS = (("gemm", 2, ()), ("gemm_bias", 3, (1,)), ("conv", 3, (1, 2)),
                ("gemm", 4, (2,)), ("conv", 4, ()), ("gemm_bias", 2, (1,)))
    CANDIDATES = 100
    OVERFLOWING = 40  # per bounded problem
    PILOT = 40
    ORACLE_SAMPLE = 6

    def setup(self) -> None:
        rng = self.rng
        for kind, n_levels, bounded in self.PROBLEMS:
            if kind == "conv":
                sizes = {"N": rng.randint(0, 1), "K": rng.randint(4, 6), "C": rng.randint(3, 5),
                         "P": rng.randint(2, 3), "Q": rng.randint(2, 3),
                         "R": rng.randint(0, 1), "S": rng.randint(0, 1)}
            else:
                sizes = {d: rng.randint(4, 6) for d in gen.KIND_DIMS[kind]}
            rows, cols = rng.choice((8, 16)), rng.choice((8, 16))
            wl = gen.workload_dict(kind, sizes, f"{kind}-{n_levels}L")

            def draw():
                return gen.candidate_mapping(rng, kind, sizes, n_levels, rows, cols,
                                             core_split=rng.random() < 0.3,
                                             pinned=rng.random() < 0.2)

            capacity = {}
            if bounded:
                pilot = [draw() for _ in range(self.PILOT)]
                for li in bounded:
                    capacity[li] = sorted(gen.footprint_bytes(wl, m, li) for m in pilot)[
                        self.PILOT // 2]
            arch = gen.arch_dict(rng, n_levels, rows, cols, capacity)
            want = {True: self.CANDIDATES - (self.OVERFLOWING if bounded else 0),
                    False: self.OVERFLOWING if bounded else 0}
            for _ in range(100 * self.CANDIDATES):
                if not any(want.values()):
                    break
                m = draw()
                fits = all(gen.footprint_bytes(wl, m, li) <= cap for li, cap in capacity.items())
                if want[fits]:
                    want[fits] -= 1
                    a, w, mm = gen.to_objects(arch, wl, m)
                    self.items.append(Candidate(a, w, mm, fits, gen.temporal_iterations(m)))
            if any(want.values()):
                raise RuntimeError(f"could not draw the candidate mix for {kind}")
        rng.shuffle(self.items)

    def run(self, c: Candidate):
        violations = model.validate(c.arch, c.workload, c.mapping)
        if violations:
            return violations, None
        profile = rl_mapping.count_accesses(c.arch, c.workload, c.mapping)
        energy = roofline.task_energy(c.arch, c.workload, profile)
        latency = roofline.task_latency(c.arch, c.workload, profile)
        util = rl_mapping.utilization(c.arch, c.workload, c.mapping, profile)
        return violations, (profile, energy, latency, util)

    def summarize(self, c: Candidate, out, first: bool):
        violations, costs = out
        if costs is None:
            if first and (c.fits or not all("exceeds capacity" in v for v in violations)):
                self.error(f"candidate rejected unexpectedly: {violations}")
            return tuple(violations)
        profile, energy, latency, util = costs
        if first:
            if not c.fits:
                self.error("candidate over capacity passed validation")
            n_bytes = traffic_bytes(profile)
            if not close(energy, expected_energy(c.arch, c.workload, n_bytes)):
                self.error(f"task_energy {energy} disagrees with the recomputed E_task")
            floor = latency_floor(c.arch, c.workload, n_bytes, c.mapping.cores)
            if latency.cycles < floor * (1 - TOL):
                self.error(f"task_latency {latency.cycles} below {floor}")
            if not 0 < util.total <= 1:
                self.error(f"utilization {util.total} outside (0, 1]")
        return (energy, latency.cycles, latency.limiter, util.total)

    def final_checks(self) -> None:
        small = [c for c in self.items if c.fits and c.iterations <= 2**13]
        for c in random.Random(self.seed).sample(small, min(self.ORACLE_SAMPLE, len(small))):
            for bad in cross_check(c.arch, c.workload, c.mapping):
                self.error(f"{c.workload.name}: {bad}")


# ---------------------------------------------------------------------------
# oracle-check


@dataclass
class Nest:
    arch: model.ArchSpec
    workload: model.WorkloadSpec
    mapping: model.MappingSpec
    iterations: int


class OracleCheck(Workload):
    """enumerate_accesses and simulate_cycles (overlapped and
    serialized) on one generated nest, compared with count_accesses."""

    name = "oracle-check"
    # (log2 temporal iterations, kind, memory levels, core split, pinned W).
    # Two nests per size; operand x level counts differ by less than the
    # 2x between sizes, so the nests sort by size: the median lies
    # between the 2**7 nests and the 90th percentile between the 2**9
    # ones.  The largest item takes about 20 ms: on a shared host the
    # fastest of many short calls repeats from run to run, while the
    # fastest of calls of 40 ms to 1 s (2**10 to 2**14 iterations)
    # spread by 12 to 33 % between runs.
    SLOTS = ((5, "gemm", 3, False, False), (5, "conv", 4, True, True),
             (6, "gemm_bias", 4, True, False), (6, "conv", 3, False, True),
             (7, "gemm", 3, True, True), (7, "gemm_bias", 4, False, False),
             (8, "conv", 3, False, True), (8, "gemm_bias", 3, True, False),
             (9, "gemm_bias", 3, False, False), (9, "conv", 4, True, False))
    L1_LOG2 = 3  # iterations per tile, fixed so every seed walks as many tiles

    def setup(self) -> None:
        for log2, kind, n_levels, split, pinned in self.SLOTS:
            rows, cols = self.rng.choice((4, 8, 16)), self.rng.choice((4, 8, 16))
            arch = gen.arch_dict(self.rng, n_levels, rows, cols)
            wl, mapping = gen.nest_dicts(self.rng, kind, n_levels, rows, cols, log2,
                                         self.L1_LOG2, core_split=split, pinned=pinned)
            self.items.append(Nest(*gen.to_objects(arch, wl, mapping), 2**log2))

    def run(self, n: Nest):
        profile = rl_mapping.count_accesses(n.arch, n.workload, n.mapping)
        trace = oracle.enumerate_accesses(n.arch, n.workload, n.mapping)
        overlapped = oracle.simulate_cycles(n.arch, n.workload, n.mapping, overlap=True)
        serialized = oracle.simulate_cycles(n.arch, n.workload, n.mapping, overlap=False)
        return profile, trace, overlapped, serialized

    def summarize(self, n: Nest, out, first: bool):
        profile, trace, overlapped, serialized = out
        if first:
            self._check(n, profile, trace, overlapped, serialized)
        return (overlapped.cycles, serialized.cycles, tuple(sorted(trace.events.items())))

    def _check(self, n: Nest, profile, trace, overlapped, serialized) -> None:
        arch, mapping = n.arch, n.mapping
        where = n.workload.name
        for bad in oracle_mismatches(profile, trace):
            self.error(f"{where}: {bad}")
        passes = math.prod(-(-u.factor // arch.array.axis_size(u.axis)) for u in mapping.spatial)
        busy = {"compute": float(n.iterations * passes)}
        per_event: dict[tuple[int, str], float] = {}
        for lvl in arch.levels:
            li = lvl.level_index
            level_bytes = sum(b for (l, _), b in trace.bytes.items() if l == li)
            busy[lvl.name] = level_bytes / lvl.bandwidth
        for key, b in trace.bytes.items():
            per_event[key] = b / trace.events[key] if trace.events[key] else 0.0
        for sim in (overlapped, serialized):
            if set(sim.busy) != set(busy) or not all(close(sim.busy[r], busy[r]) for r in busy):
                self.error(f"{where}: simulated busy {sim.busy} != counted {busy}")
        if not close(serialized.cycles, sum(busy.values())):
            self.error(f"{where}: serialized {serialized.cycles} != busy sum {sum(busy.values())}")
        # overlapped: within one tile of pipeline fill above the busiest
        # resource.  The first tile loads one tile per operand at every
        # upper level and streams at most one L1 tile per step.
        l1_steps = math.prod(t for _, t in mapping.temporal_at(1))
        upper = max([sum(per_event[(lvl.level_index, op.name)] for op in n.workload.operands)
                     / lvl.bandwidth for lvl in arch.levels if lvl.level_index >= 2] or [0.0])
        l1 = arch.level(1)
        stream = sum(min(trace.events[(1, op.name)], l1_steps) * per_event[(1, op.name)]
                     for op in n.workload.operands) / l1.bandwidth
        fill = upper + max(l1_steps * passes, stream)
        top = max(busy.values())
        if not top * (1 - TOL) <= overlapped.cycles <= (top + fill) * (1 + TOL):
            self.error(f"{where}: overlapped {overlapped.cycles} not within "
                       f"[{top}, {top} + fill {fill}]")


# ---------------------------------------------------------------------------
# cli


@dataclass
class Call:
    kind: str  # text | csv | svg | sweep | compare | validate | oracle
    args: list[str]
    expect: object = None  # labels, stems or values the output must show


class Cli(Workload):
    """One ``roofline_lab.cli.main(argv)`` call per item, in this
    process.  Interpreter start and the package import are paid once
    per CLI process, so they are timed by ``setup_s`` (a fresh
    interpreter imports ``roofline_lab.cli``) and ``cli.import_ms``,
    not per item: a 250 ms subprocess per item spread by up to 40 %
    between runs on a shared host."""

    name = "cli"
    SWEEP_VALUES = 10

    def setup(self) -> None:
        d = self.out / "cli-inputs"
        d.mkdir(parents=True, exist_ok=True)
        self.cli_out = self.out / "cli-out"
        self.cli_out.mkdir(exist_ok=True)

        rows, cols = self.rng.choice((4, 8, 16)), self.rng.choice((4, 8, 16))
        arch = gen.arch_dict(self.rng, 3, rows, cols)
        wl, mapping = gen.nest_dicts(self.rng, "gemm_bias", 3, rows, cols, 9, 3,
                                     core_split=False, pinned=True)
        triple = []
        for suffix, data in (("arch", arch), ("wl", wl), ("map", mapping)):
            triple.append(str(gen.write_json(d / f"gen.{suffix}", data)))
        gen_scenario = gen.write_json(d / "gen.scenario", {
            "label": "gen", "arch": "gen.arch", "workload": "gen.wl", "mapping": "gen.map",
            "transforms": []})
        config_io.parse_scenario(gen_scenario)

        out = ["--out-dir", str(self.cli_out)]
        shipped = {name: config_io.fixture_path(f"{name}.scenario") for name in DesignSweep.SHIPPED}
        labels = {name: json.loads(p.read_text())["label"] for name, p in shipped.items()}
        for fmt in ("text", "csv", "svg"):
            for name, path in shipped.items():
                self.items.append(Call(fmt, ["analyze", "--scenario", str(path),
                                             "--format", fmt, *out], labels[name]))
        base = report.load_scenario(config_io.parse_scenario(shipped["gemm_dense"]))
        b_l2 = base.arch.level(2).bandwidth
        values = [round(b_l2 * 2 ** self.rng.uniform(-3, 3), 3) for _ in range(self.SWEEP_VALUES)]
        self.items.append(Call("sweep", ["sweep", "--scenario", str(shipped["gemm_dense"]),
                                         "--param", "B_L2",
                                         "--values", ",".join(map(str, values))], values))
        compared = [shipped["gemm_dense"], shipped["gemm_2to4"], gen_scenario]
        self.items.append(Call(
            "compare", ["compare", *[a for p in compared for a in ("--scenario", str(p))],
                        "--format", "svg", *out],
            [labels["gemm_dense"], labels["gemm_2to4"], "gen"]))
        triple_args = ["--arch", triple[0], "--workload", triple[1], "--mapping", triple[2]]
        self.items.append(Call("validate", ["validate", *triple_args]))
        self.items.append(Call("oracle", ["oracle-check", *triple_args]))

    def run(self, call: Call):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = roofline_lab.cli.main(call.args, stdout)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, stdout.getvalue(), stderr.getvalue()

    def summarize(self, call: Call, out, first: bool):
        code, stdout, stderr = out
        where = f"cli {call.kind} {call.args[:3]}"
        if code != 0:
            self.error(f"{where}: exit code {code}: {stderr[-300:]}")
            return code
        try:
            self._check(call, stdout)
        except (OSError, ET.ParseError, KeyError, ValueError) as exc:
            self.error(f"{where}: {exc!r}")
        return code

    def _check(self, call: Call, stdout: str) -> None:
        where = f"cli {call.kind}"
        if call.kind == "text":
            if not stdout.startswith(f"scenario: {call.expect}\n") or "operating point:" not in stdout:
                self.error(f"{where}: unexpected report {stdout[:80]!r}")
        elif call.kind in ("csv", "svg"):
            stem = call.expect.replace(" ", "_")
            if call.kind == "csv":
                rows = self._csv((self.cli_out / f"{stem}.csv").read_text())
                if [r["label"] for r in rows] != [call.expect]:
                    self.error(f"{where}: rows {rows}")
                self._consume(f"{stem}.csv")
            else:
                for suffix in ("throughput", "energy"):
                    self._svg(f"{stem}_{suffix}.svg")
        elif call.kind == "sweep":
            got = [float(r["value"]) for r in self._csv(stdout)]
            if len(got) != len(call.expect) or not all(map(close, got, call.expect)):
                self.error(f"{where}: rows not in input order")
        elif call.kind == "compare":
            if [r["label"] for r in self._csv(stdout.split("wrote ")[0])] != call.expect:
                self.error(f"{where}: labels not in input order")
            self._svg("compare_throughput.svg")
        elif call.kind == "validate":
            if stdout != "valid\n":
                self.error(f"{where}: {stdout!r}")
        elif stdout.splitlines()[-1:] != ["PASS"]:
            self.error(f"{where}: {stdout[-200:]!r}")

    @staticmethod
    def _csv(text: str) -> list[dict[str, str]]:
        return list(csv.DictReader(io.StringIO(text)))

    def _svg(self, name: str) -> None:
        root = ET.parse(self.cli_out / name).getroot()
        if not root.tag.endswith("svg") or len(root) == 0:
            self.error(f"{name}: not an SVG chart")
        self._consume(name)

    def _consume(self, name: str) -> None:
        # removed once checked, so the next round must write it again
        (self.cli_out / name).unlink()


WORKLOADS = {w.name: w for w in (DesignSweep, MappingSearch, OracleCheck, Cli)}
