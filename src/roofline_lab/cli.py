"""Command-line front end.

Verbs:
  analyze       evaluate one scenario (text / CSV / SVG output)
  sweep         re-evaluate a scenario across one swept parameter
  compare       evaluate several scenarios side by side
  validate      structural validation of an (arch, workload, mapping)
  oracle-check  analytic access counts vs brute-force enumeration

Exit codes: 0 success, 1 validation or check failure, 2 parse failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import AnalysisResult
from .config_io import (
    ParseError,
    parse_arch,
    parse_mapping,
    parse_scenario,
    parse_workload,
)
from .mapping import count_accesses
from .model import InvalidMappingError, validate
from .oracle import enumerate_accesses
from .report import (
    ANALYSIS_FIELDS,
    SWEEP_FIELDS,
    LoadedScenario,
    SweepParameterError,
    analysis_row,
    load_scenario,
    render_text,
    rows_to_csv,
    run_scenario,
    run_sweep,
)
from .svgchart import emit_svg

OK, FAIL, PARSE_FAIL = 0, 1, 2


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="roofline-lab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="verb", required=True)

    def add_triple(sp):
        sp.add_argument("--arch", help="architecture file")
        sp.add_argument("--workload", help="workload file")
        sp.add_argument("--mapping", help="mapping file")

    def add_common(sp):
        sp.add_argument("--out-dir", default=".", help="directory for csv/svg output")
        sp.add_argument("--format", choices=("text", "csv", "svg"), default="text")
        sp.add_argument("--overlap", choices=("overlapped", "serialized"),
                        default=None, help="rewrite the architecture's latency_overlap")
        sp.add_argument("--ai-ref-level", type=int, default=None,
                        help="memory level whose AI is the x axis")

    sp = sub.add_parser("analyze", help="evaluate one scenario")
    sp.add_argument("--scenario", help="scenario file")
    add_triple(sp)
    add_common(sp)

    sp = sub.add_parser("sweep", help="sweep one parameter")
    sp.add_argument("--scenario", required=True)
    sp.add_argument("--param", required=True)
    sp.add_argument("--values", required=True,
                    help="comma-separated numeric values")
    add_common(sp)

    sp = sub.add_parser("compare", help="evaluate several scenarios")
    sp.add_argument("--scenario", action="append", required=True,
                    help="repeatable scenario file")
    add_common(sp)

    sp = sub.add_parser("validate", help="check structural invariants")
    add_triple(sp)

    sp = sub.add_parser("oracle-check", help="analytic counts vs enumeration")
    add_triple(sp)
    sp.add_argument("--cap", type=int, default=2**20,
                    help="iteration-space cap for the enumerator")
    return p


# Built once per process, at import: parse_args keeps no state on the
# parser, so repeated main() calls share it.
_PARSER = _build_parser()


def _load_triple(args) -> tuple:
    if not (args.arch and args.workload and args.mapping):
        raise ParseError("<args>", "arguments",
                         "--arch, --workload and --mapping are all required")
    return (parse_arch(args.arch), parse_workload(args.workload),
            parse_mapping(args.mapping))


def _scenario_from_args(args, path: str | None, parsed: dict | None = None
                        ) -> LoadedScenario:
    """The scenario at ``path`` (its files parsed through ``parsed``, as
    in ``load_scenario``), else the --arch/--workload/--mapping triple,
    with the --ai-ref-level and --overlap overrides written into it."""
    if path is not None:
        loaded = load_scenario(parse_scenario(path), parsed)
    else:
        arch, wl, mapping = _load_triple(args)
        loaded = LoadedScenario(Path(args.workload).stem, arch, wl, mapping, None, None, ())
    if args.ai_ref_level is not None:
        loaded = loaded._replace(ref_level=args.ai_ref_level)
    if args.overlap is not None:
        loaded = loaded._replace(arch=loaded.arch._replace(latency_overlap=args.overlap))
    return loaded


def _emit(result: AnalysisResult, args, stdout) -> None:
    if args.format == "text":
        stdout.write(render_text(result))
        return
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = (result.label or result.workload.name).replace(" ", "_")
    if args.format == "csv":
        path = out_dir / f"{stem}.csv"
        path.write_text(rows_to_csv(ANALYSIS_FIELDS, [analysis_row(result)]))
        stdout.write(f"wrote {path}\n")
    else:
        tp_path = out_dir / f"{stem}_throughput.svg"
        e_path = out_dir / f"{stem}_energy.svg"
        point = [(result.label or "point", result.point.ai_ref,
                  result.point.ops_per_cycle)]
        emit_svg([("throughput roof", result.throughput_curve)], point, tp_path,
                 ylabel="ops/cycle")
        epoint = [(result.label or "point", result.point.ai_ref,
                   result.point.attained_efficiency)]
        emit_svg([("energy roof", result.energy_curve)], epoint, e_path,
                 ylabel="ops/pJ")
        stdout.write(f"wrote {tp_path}\nwrote {e_path}\n")


def _cmd_analyze(args, stdout) -> int:
    result = run_scenario(_scenario_from_args(args, args.scenario))
    _emit(result, args, stdout)
    return OK


def _cmd_sweep(args, stdout) -> int:
    loaded = _scenario_from_args(args, args.scenario)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ParseError("<args>", "--values", str(exc)) from exc
    rows = run_sweep(loaded, args.param, values)
    csv_text = rows_to_csv(SWEEP_FIELDS, rows)
    if args.format == "text":
        stdout.write(csv_text)
    else:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{loaded.label}_{args.param.replace(':', '_')}_sweep.csv"
        path.write_text(csv_text)
        stdout.write(f"wrote {path}\n")
    return OK


def _cmd_compare(args, stdout) -> int:
    parsed: dict = {}  # files shared by the scenarios, for this call only
    results = [run_scenario(_scenario_from_args(args, spath, parsed))
               for spath in args.scenario]
    rows = [analysis_row(r) for r in results]
    stdout.write(rows_to_csv(ANALYSIS_FIELDS, rows))
    if args.format == "svg":
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "compare_throughput.svg"
        curves = [(r.label or f"s{i}", r.throughput_curve)
                  for i, r in enumerate(results)]
        points = [(r.label or f"s{i}", r.point.ai_ref, r.point.ops_per_cycle)
                  for i, r in enumerate(results)]
        emit_svg(curves, points, path, ylabel="ops/cycle")
        stdout.write(f"wrote {path}\n")
    return OK


def _cmd_validate(args, stdout) -> int:
    arch, wl, mapping = _load_triple(args)
    violations = validate(arch, wl, mapping)
    if not violations:
        stdout.write("valid\n")
        return OK
    for v in violations:
        stdout.write(f"violation: {v}\n")
    return FAIL


def _cmd_oracle_check(args, stdout) -> int:
    arch, wl, mapping = _load_triple(args)
    profile = count_accesses(arch, wl, mapping)
    trace = enumerate_accesses(arch, wl, mapping, cap=args.cap)
    ok = True
    stdout.write("level operand analytic_events oracle_events analytic_bytes oracle_bytes\n")
    for li in profile.levels:
        for op in wl.operands:
            t = profile.traffic[(li, op.name)]
            oe = trace.events[(li, op.name)]
            ob = trace.bytes[(li, op.name)]
            match = t.events == oe and abs(t.bytes - ob) < 1e-9
            ok = ok and match
            stdout.write(
                f"L{li} {op.name} {t.events} {oe} {t.bytes:g} {ob:g}"
                f"{'' if match else '  MISMATCH'}\n"
            )
    stdout.write("PASS\n" if ok else "FAIL\n")
    return OK if ok else FAIL


def _joined_values(argv: list[str]) -> list[str]:
    """argv with a ``--values`` list that starts with ``-`` joined to its
    flag: argparse takes a word such as ``-1e3``, ``-1,-2`` or ``-inf``
    for an option, and reads it as a value only in ``--values=<list>``."""
    out: list[str] = []
    for word in argv:
        if out and out[-1] == "--values" and word[:1] == "-" and word[:2] != "--":
            out[-1] = f"--values={word}"
        else:
            out.append(word)
    return out


def main(argv: list[str] | None = None, stdout=None) -> int:
    stdout = stdout or sys.stdout
    args = _PARSER.parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    handlers = {
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "compare": _cmd_compare,
        "validate": _cmd_validate,
        "oracle-check": _cmd_oracle_check,
    }
    try:
        return handlers[args.verb](args, stdout)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_FAIL
    except (InvalidMappingError, SweepParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAIL


if __name__ == "__main__":
    sys.exit(main())
