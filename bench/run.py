"""roofline-lab benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one closed-loop workload (design-sweep, mapping-search,
oracle-check or cli) from a single process: one caller, one item at a
time, no think time.  Whole rounds of the workload's items repeat until
``--seconds`` have passed.  Outputs are checked, every metric is
printed with its unit, and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics from the
traced ones, plus the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
PYCACHE = OUT / "pycache"
SOURCE = ROOT / "src" / "roofline_lab" / "__init__.py"
SETUP_PROBES = 5
IMPORT_PROBES = 5
TSV_SPANS = 100_000
# Every round repeats the same items, so a program that memoizes across
# calls would time cache hits from the second round on, which a sweep
# evaluating each design point once never sees.  A run whose first
# untraced round takes more than this factor times the median of its
# later untraced rounds is reported as incorrect.  Warm-up makes the
# first round up to about 1.8x slower, and a slow stretch of the host
# can double it; reusing whole results makes it 10x or more.
CROSS_ROUND_SPEEDUP = 5.0


def pin_bytecode() -> None:
    """Cache bytecode under bench/_out for this process and every
    Python process it starts, whatever the caller's environment says,
    so that a fresh interpreter's import cost is the same for every
    caller: compiled once per checkout, then read from the cache."""
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(PYCACHE)


def warm_cache(workload: str, seed: int) -> None:
    """Fill the bytecode cache in a child that sets the workload up and
    runs one round of it.  So this process compiles nothing, not even
    the modules the program imports lazily (``numpy.ma`` on the first
    roof), and its peak memory does not depend on whether the cache was
    there.  A failure here shows again, with its message, in this
    process."""
    out = OUT / f"warm-{os.getpid()}"
    try:
        subprocess.run([sys.executable, str(BENCH / "probe.py"), workload, str(seed),
                        str(out), "round"], cwd=ROOT, capture_output=True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def load_program():
    """Import the benchmark modules against the checkout's own source."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import roofline_lab

    if Path(roofline_lab.__file__).resolve() != SOURCE.resolve():
        raise SystemExit(f"error: imported roofline_lab from {roofline_lab.__file__}")
    import tracer
    import workloads

    return tracer, workloads


def run_rounds(w, seconds: float, trace, setup: "SetupProbes | None") -> dict:
    """Repeat whole rounds for about ``seconds``.  With a tracer, odd
    rounds are traced and even rounds are not (at least one each).

    Each item keeps its fastest completed time over the rounds, so a
    stretch in which the host runs slower (other load on a shared
    machine) does not count against the program."""
    best: dict[bool, list[int | None]] = {False: [None] * len(w.items),
                                          True: [None] * len(w.items)}
    round_ns: list[int] = []  # summed item times of each untraced round
    attempted = failed = rounds = 0
    start = time.perf_counter()
    while True:
        traced = trace is not None and rounds % 2 == 1
        if traced:
            trace.install()
        fastest = best[traced]
        total = 0
        for i, item in enumerate(w.items):
            if traced:
                trace.begin_item(attempted)
            t0 = time.perf_counter_ns()
            try:
                result = w.run(item)
                problem = None
            except Exception as exc:  # a failing item is counted, not fatal
                problem = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter_ns() - t0
            total += dt
            if traced:
                trace.end_item()
            attempted += 1
            if problem is None:
                problem = w.fault(item, result)
            if problem is None:
                w.check(i, item, result, first=rounds == 0)
                if fastest[i] is None or dt < fastest[i]:
                    fastest[i] = dt
            else:
                failed += 1
                if not w.expected_failure(item, problem):
                    w.error(f"unexpected failure of item {i}: {problem}")
        if traced:
            trace.uninstall()
        else:
            round_ns.append(total)
        if rounds == 0:
            w.after_first_round()
        rounds += 1
        elapsed = time.perf_counter() - start
        if setup is not None:
            setup.run_due(elapsed / seconds)
        # no round may end past 1.25 x seconds, so long rounds on a slow
        # machine cannot stretch a run much beyond its budget
        last = elapsed / rounds
        if (elapsed >= seconds or elapsed + last > 1.25 * seconds) and (
                trace is None or rounds >= 2):
            break
    speedup = round_ns[0] / statistics.median(round_ns[1:]) if len(round_ns) > 1 else 1.0
    if speedup > CROSS_ROUND_SPEEDUP:
        w.error(f"later rounds ran {speedup:.1f}x faster than the first: "
                "results are reused across calls, see bench/README.md")
    return {"best_ns": {t: [b for b in best[t] if b is not None] for t in best},
            "attempted": attempted, "failed": failed, "rounds": rounds,
            "speedup": speedup}


class SetupProbes:
    """Set-up time of fresh interpreters (import, parsing, input
    generation), probed at even intervals through the run so that the
    median does not rest on one stretch of the machine's speed."""

    def __init__(self, name: str, seed: int, out: Path):
        self.args = [sys.executable, str(BENCH / "probe.py"), name, str(seed)]
        self.out = out
        self.times: list[float] = []

    def run_due(self, progress: float) -> None:
        while len(self.times) < SETUP_PROBES and len(self.times) <= progress * SETUP_PROBES:
            probe = subprocess.run(
                [*self.args, str(self.out / f"probe{len(self.times)}")],
                cwd=ROOT, capture_output=True, text=True, check=True)
            self.times.append(float(probe.stdout.split()[-1]))

    def median(self) -> float:
        self.run_due(1.0)
        return statistics.median(self.times)


def import_cost() -> tuple[float, int]:
    """(ms, modules): a fresh interpreter importing roofline_lab.cli
    minus a bare one, medians of alternating runs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    codes = {"bare": "import sys; print(len(sys.modules))",
             "cli": "import sys, roofline_lab.cli; print(len(sys.modules))"}
    wall: dict[str, list[float]] = {k: [] for k in codes}
    modules = {}
    for _ in range(IMPORT_PROBES):
        for key, code in codes.items():
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  capture_output=True, text=True, check=True)
            wall[key].append(time.perf_counter() - t0)
            modules[key] = int(proc.stdout)
    ms = (statistics.median(wall["cli"]) - statistics.median(wall["bare"])) * 1000
    return ms, modules["cli"] - modules["bare"]


def end_to_end(loop: dict, setup_s: float) -> dict:
    best = loop["best_ns"][False]
    lat = sorted(b / 1000 for b in best)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "work_per_s": (len(best) / (sum(best) / 1e9), "1/s"),
        "latency_us_p50": (statistics.median(lat), "us"),
        "latency_us_p90": (statistics.quantiles(lat, n=10, method="inclusive")[8], "us"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(tracer, trace, loop: dict) -> dict:
    inside = trace.summary(items_only=True)
    every = trace.summary(items_only=False)
    items = loop["traced_items"]

    def total(summary, names, key):
        return sum(summary.get(n, {}).get(key, 0) for n in names)

    def matching(prefix):
        return [n for n in every if n.startswith(prefix)]

    def per_call_us(names):
        calls = total(every, names, "calls")
        return total(every, names, "incl_ns") / 1000 / calls if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for mod in tracer.MODULES:
        names = matching(mod + ".")
        m[f"{mod}.self_us_per_item"] = (total(inside, names, "self_ns") / 1000 / items, "us")
        m[f"{mod}.calls_per_item"] = (total(inside, names, "calls") / items, "count")
    measured = trace.measured.get
    curves = ["roofline.throughput_roofline", "roofline.energy_roofline"]
    enum, sim = ["oracle.enumerate_accesses"], ["oracle.simulate_cycles"]
    validate = ["model.validate"]
    m["roofline.curves_per_item"] = (total(inside, curves, "calls") / items, "count")
    m["roofline.curve_us"] = (per_call_us(curves), "us")
    m["roofline.samples_per_curve"] = (
        ratio(sum(measured(n, 0) for n in curves), total(every, curves, "calls")), "count")
    m["mapping.count_accesses_us"] = (per_call_us(["mapping.count_accesses"]), "us")
    m["mapping.utilization_calls_per_item"] = (
        total(inside, ["mapping.utilization"], "calls") / items, "count")
    m["model.validate_us"] = (per_call_us(validate), "us")
    m["model.validate_calls_per_item"] = (total(inside, validate, "calls") / items, "count")
    m["model.valid_ratio"] = (
        ratio(measured("model.validate", 0), total(every, validate, "calls")), "ratio")
    m["transforms.apply_us"] = (per_call_us(matching("transforms.apply_")), "us")
    m["oracle.enumerate_us_per_iter"] = (
        ratio(total(every, enum, "incl_ns") / 1000, measured(enum[0], 0)), "us")
    m["oracle.simulate_us_per_iter"] = (
        ratio(total(every, sim, "incl_ns") / 1000, measured(sim[0], 0)), "us")
    m["oracle.iters_per_item"] = (
        (measured(enum[0], 0) + measured(sim[0], 0)) / items, "count")
    import_ms, modules = import_cost()
    m["cli.import_ms"] = (import_ms, "ms")
    m["cli.modules_loaded"] = (modules, "count")
    m["config_io.parse_us"] = (per_call_us(matching("config_io.parse_")), "us")
    m["report.render_us"] = (per_call_us(["report.render_text", "report.rows_to_csv"]), "us")
    m["svgchart.emit_svg_us"] = (per_call_us(["svgchart.emit_svg"]), "us")
    m["svgchart.svg_bytes"] = (
        ratio(measured("svgchart.emit_svg", 0), total(every, ["svgchart.emit_svg"], "calls")),
        "B")
    cost = {t: sum(loop["best_ns"][t]) for t in (False, True)}
    m["trace.overhead_pct"] = ((cost[True] / cost[False] - 1) * 100, "%")
    m["trace.spans_per_item"] = (
        sum(s["calls"] for n, s in inside.items() if n != tracer.ITEM) / items, "count")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not SOURCE.is_file():
        raise SystemExit(f"error: roofline-lab source not found at {SOURCE}")
    pin_bytecode()
    warm_cache(args.workload, args.seed)
    tracer, workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    out = OUT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    out.mkdir(parents=True)
    try:
        w = workloads.WORKLOADS[args.workload](ROOT, args.seed, out)
        trace = tracer.Tracer() if args.trace else None
        if trace is not None:
            trace.install()  # set-up parsing is traced too
        w.setup()
        if trace is not None:
            trace.uninstall()
        setup = None if trace else SetupProbes(args.workload, args.seed, out)
        t0 = time.perf_counter()
        loop = run_rounds(w, args.seconds, trace, setup)
        elapsed = time.perf_counter() - t0
        if setup is not None:
            metrics = end_to_end(loop, setup.median())
        else:
            loop["traced_items"] = len(w.items) * (loop["rounds"] // 2)
            metrics = per_layer(tracer, trace, loop)
            spans = OUT / f"trace-{args.workload}-s{args.seed}.tsv"
            written = trace.write_tsv(spans, TSV_SPANS)
            print(f"wrote {written} of {len(trace.name)} spans to {spans.relative_to(ROOT)}")
        w.final_checks()
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {loop['rounds']} rounds of {len(w.items)} "
          f"items in {elapsed:.1f} s; attempted {loop['attempted']}, failed {loop['failed']}; "
          f"latencies are each item's fastest of its rounds; "
          f"first round {loop['speedup']:.2f}x the later rounds' median")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for message in w.errors:
        print(f"check failed: {message}", file=sys.stderr)
    if w.n_errors > len(w.errors):
        print(f"... {w.n_errors - len(w.errors)} more check failures", file=sys.stderr)
    print(json.dumps({
        "correct": w.n_errors == 0,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
