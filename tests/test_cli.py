"""CLI contract: verbs, exit codes, deterministic CSV/SVG output."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roofline_lab

from roofline_lab.cli import main
from roofline_lab.config_io import fixture_path, parse_scenario
from roofline_lab.report import load_scenario


def run(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


def scenario_arg(name: str) -> str:
    return str(fixture_path(name))


def fixture_scenario(tmp_path: Path, data: dict) -> Path:
    """Write ``data`` as a scenario whose string file references name
    the shipped fixtures."""
    files = ("arch", "workload", "mapping")
    data = {k: str(fixture_path(v)) if k in files and isinstance(v, str) else v
            for k, v in data.items()}
    path = tmp_path / "case.scenario"
    path.write_text(json.dumps(data))
    return path


class TestAnalyze:
    def test_reference_scenario_text_report(self):
        code, out = run("analyze", "--scenario", scenario_arg("fig3_ai16.scenario"))
        assert code == 0
        assert "L_task: 16 cycles" in out
        assert "limiter L1" in out
        assert "E_task: 2412.8 pJ" in out
        assert "0.848806366 ops/pJ" in out
        assert "throughput knee: AI_ref 256" in out

    def test_imc_scenario_reports_utilization(self):
        code, out = run("analyze", "--scenario", scenario_arg("imc256.scenario"))
        assert code == 0
        assert "spatial 0.5, temporal 0.8, core 1, total 0.4" in out

    def test_explicit_triple(self):
        code, out = run(
            "analyze",
            "--arch", str(fixture_path("fig3.arch")),
            "--workload", str(fixture_path("gemm.wl")),
            "--mapping", str(fixture_path("os_map.map")),
        )
        assert code == 0 and "operating point" in out

    def test_parse_failure_exit_code_2(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text("{")
        code, _ = run("analyze", "--scenario", str(bad))
        assert code == 2

    def test_ai_ref_level_flag_moves_the_reference_level(self):
        code, out = run("analyze", "--scenario", scenario_arg("gemm_dense.scenario"),
                        "--ai-ref-level", "3")
        assert code == 0 and "AI_ref(L3)" in out

    def test_ai_ref_level_outside_the_levels_exits_one(self, capsys):
        for level in ("7", "0", "-1"):
            code, _ = run("analyze", "--scenario", scenario_arg("gemm_dense.scenario"),
                          "--ai-ref-level", level)
            assert code == 1
            assert f"reference level {level} is outside" in capsys.readouterr().err

    def test_non_integer_scenario_ref_level_is_a_parse_error(self, tmp_path, capsys):
        data = json.loads(fixture_path("gemm_dense.scenario").read_text())
        for key in ("arch", "workload", "mapping"):
            data[key] = str(fixture_path(data[key]))
        for bad in ([2], 2.5, 0, True):
            data["ref_level"] = bad
            path = tmp_path / "bad_ref.scenario"
            path.write_text(json.dumps(data))
            code, _ = run("analyze", "--scenario", str(path))
            assert code == 2
            assert "scenario.ref_level" in capsys.readouterr().err

    def test_ai_profile_must_cover_exactly_the_levels(self, tmp_path, capsys):
        data = json.loads(fixture_path("fig3_ai16.scenario").read_text())
        for key in ("arch", "workload"):
            data[key] = str(fixture_path(data[key]))
        for profile, named in (({"1": 1.0, "2": 16.0}, "missing [3], extra []"),
                               ({"1": 1.0, "2": 16.0, "3": 256.0, "5": 9.0},
                                "missing [], extra [5]")):
            data["ai_profile"] = profile
            path = tmp_path / "short_ai.scenario"
            path.write_text(json.dumps(data))
            code, _ = run("analyze", "--scenario", str(path))
            err = capsys.readouterr().err
            assert code == 1 and "Traceback" not in err
            assert f"ai_profile levels must be exactly 1..3: {named}" in err

    def test_imc_transform_refuses_the_mapping_reload_cost(self, tmp_path, capsys):
        # the macro sets the reload cost; the mapping's own is not dropped silently
        mapping = json.loads(fixture_path("imc256.map").read_text())
        mapping.update(pinned_operand="W", reload_cycles_per_tile=5)
        (tmp_path / "reload.map").write_text(json.dumps(mapping))
        data = json.loads(fixture_path("imc256.scenario").read_text())
        data["mapping"] = str(tmp_path / "reload.map")
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert ("the mapping sets reload_cycles_per_tile 5, but the IMC macro sets its own "
                "(256)") in err

    def test_imc_transform_refuses_an_ai_profile(self, tmp_path, capsys):
        data = json.loads(fixture_path("fig3_ai16.scenario").read_text())
        data["transforms"] = [{"kind": "imc", "rows": 32, "cols": 32}]
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "an IMC transform needs a concrete mapping" in err

    def test_imc_transform_refuses_a_mapping_that_pins_another_operand(self, tmp_path,
                                                                      capsys):
        mapping = json.loads(fixture_path("imc256.map").read_text())
        mapping["pinned_operand"] = "I"
        (tmp_path / "pin_i.map").write_text(json.dumps(mapping))
        data = json.loads(fixture_path("imc256.scenario").read_text())
        data["mapping"] = str(tmp_path / "pin_i.map")
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "the mapping pins 'I', but an IMC transform pins 'W'" in err

    def test_imc_transform_refuses_the_mapping_reload_cost_of_an_overlapped_macro(
            self, tmp_path, capsys):
        mapping = json.loads(fixture_path("imc256.map").read_text())
        mapping.update(pinned_operand="W", reload_cycles_per_tile=3)
        (tmp_path / "reload.map").write_text(json.dumps(mapping))
        data = json.loads(fixture_path("imc256.scenario").read_text())
        data["mapping"] = str(tmp_path / "reload.map")
        data["transforms"][0]["reload_overlapped"] = True
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert ("the mapping sets reload_cycles_per_tile 3, but the IMC macro overlaps "
                "its reloads") in err

    @pytest.mark.parametrize("first, kind", [
        ({"kind": "quantization", "precision_bits": {"W": 4}}, "quantization"),
        ({"kind": "imc", "rows": 32, "cols": 32}, "imc"),
    ])
    def test_imc_transform_refuses_an_array_an_earlier_pass_changed(self, tmp_path, capsys,
                                                                    first, kind):
        data = json.loads(fixture_path("imc256.scenario").read_text())
        data["transforms"].insert(0, first)
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert (f"transforms[1] (imc) would replace the array transforms[0] ({kind}) "
                "changed; no pass may change the array before an imc pass") in err

    def test_imc_transform_runs_after_a_pass_that_keeps_the_array(self, tmp_path, capsys):
        # re-quantizing only I leaves the array as it is
        data = json.loads(fixture_path("imc256.scenario").read_text())
        data["transforms"].insert(0, {"kind": "quantization", "precision_bits": {"I": 4}})
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        assert code == 0, capsys.readouterr().err

    def test_mapping_and_ai_profile_together_is_a_parse_error(self, tmp_path, capsys):
        data = json.loads(fixture_path("gemm_dense.scenario").read_text())
        data["ai_profile"] = {"1": 1000.0, "2": 1000.0, "3": 1000.0}
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "scenario.ai_profile: not allowed with 'mapping'" in err

    def test_all_zero_energy_is_an_error_naming_the_fields(self, tmp_path, capsys):
        arch = json.loads(fixture_path("fig3.arch").read_text())
        arch["array"]["energy_per_op"] = 0
        triple = ["--workload", str(fixture_path("gemm.wl")),
                  "--mapping", str(fixture_path("os_map.map"))]
        path = tmp_path / "free_compute.arch"
        path.write_text(json.dumps(arch))
        code, out = run("analyze", "--arch", str(path), *triple)
        assert code == 0 and "operating point" in out
        for level in arch["levels"]:
            level["energy_per_byte"] = 0
        path = tmp_path / "free.arch"
        path.write_text(json.dumps(arch))
        code, _ = run("analyze", "--arch", str(path), *triple)
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "energy_per_op and the energy_per_byte of every level (L1, L2, L3)" in err

    def test_operand_density_is_an_unknown_key(self, tmp_path, capsys):
        data = json.loads(fixture_path("gemm.wl").read_text())
        data["operands"][1]["density"] = 0.5
        path = tmp_path / "dense.wl"
        path.write_text(json.dumps(data))
        code, _ = run("analyze", "--arch", str(fixture_path("fig3.arch")),
                      "--workload", str(path), "--mapping", str(fixture_path("os_map.map")))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "workload.operands[1]: unknown keys: ['density']" in err

    def test_non_string_label_is_a_parse_error(self, tmp_path, capsys):
        data = json.loads(fixture_path("gemm_dense.scenario").read_text())
        for key in ("arch", "workload", "mapping"):
            data[key] = str(fixture_path(data[key]))
        for bad in (7, ["gemm"], None):
            data["label"] = bad
            path = tmp_path / "bad_label.scenario"
            path.write_text(json.dumps(data))
            code, _ = run("analyze", "--scenario", str(path))
            err = capsys.readouterr().err
            assert code == 2 and "Traceback" not in err
            assert "scenario.label: expected a string" in err

    @pytest.mark.parametrize("key", ["arch", "workload", "mapping"])
    def test_non_string_file_reference_is_a_parse_error(self, tmp_path, capsys, key):
        data = json.loads(fixture_path("gemm_dense.scenario").read_text())
        for bad in (5, ["gemm.wl"], {"path": "x"}):
            data[key] = bad
            path = fixture_scenario(tmp_path, data)
            code, _ = run("analyze", "--scenario", str(path))
            err = capsys.readouterr().err
            assert code == 2 and "Traceback" not in err
            assert f"scenario.{key}: expected a file path string" in err

    def test_non_list_spatial_is_a_parse_error(self, tmp_path, capsys):
        data = json.loads(fixture_path("os_map.map").read_text())
        data["spatial"] = 3
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(data))
        code, _ = run("analyze", "--arch", str(fixture_path("fig3.arch")),
                      "--workload", str(fixture_path("gemm.wl")), "--mapping", str(path))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "mapping.spatial: expected a list of unrolls" in err

    def test_unknown_sparsity_mode_without_density_is_an_error(self, tmp_path, capsys):
        data = json.loads(fixture_path("gemm_dense.scenario").read_text())
        data["transforms"] = [{"kind": "sparsity", "mode": "bogus"}]
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "unknown sparsity mode 'bogus'" in err

    def test_unknown_weight_operand_is_an_error_naming_it(self, tmp_path, capsys):
        data = json.loads(fixture_path("gemm_dense.scenario").read_text())
        for key in ("arch", "workload", "mapping"):
            data[key] = str(fixture_path(data[key]))
        data["transforms"] = [{"kind": "quantization", "precision_bits": {"W": 4},
                               "weight_operand": "Wt"}]
        path = tmp_path / "bad_weight.scenario"
        path.write_text(json.dumps(data))
        code, _ = run("analyze", "--scenario", str(path))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert "weight_operand 'Wt' names no operand" in err

    @pytest.mark.parametrize("scenario", ["gemm_dense", "fig3_ai16"])
    @pytest.mark.parametrize("index, change, message", [
        (1, {"name": "W"}, "duplicate operand names in workload: ['W', 'W', 'O']"),
        (0, {"relevant_dims": ["C", "K", "C"]},
         "operand W: relevant dims ['C', 'K', 'C'] name a dim more than once"),
    ], ids=["duplicate-name", "repeated-dim"])
    def test_ambiguous_operand_is_an_error(self, tmp_path, capsys, scenario, index,
                                           change, message):
        wl = json.loads(fixture_path("gemm.wl").read_text())
        wl["operands"][index].update(change)
        (tmp_path / "gemm.wl").write_text(json.dumps(wl))
        data = json.loads(fixture_path(f"{scenario}.scenario").read_text())
        data["workload"] = str(tmp_path / "gemm.wl")
        code, _ = run("analyze", "--scenario", str(fixture_scenario(tmp_path, data)))
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert message in err

    def test_svg_output_marks_the_knee(self, tmp_path):
        code, out = run(
            "analyze", "--scenario", scenario_arg("fig3_ai16.scenario"),
            "--format", "svg", "--out-dir", str(tmp_path),
        )
        assert code == 0
        svg = (tmp_path / "ref-ai16_throughput.svg").read_text()
        assert svg.count('class="knee"') == 1
        assert 'data-ai="256"' in svg
        assert "ops/cycle" in svg and "ops/byte" in svg

    def test_svg_bytes_are_deterministic(self, tmp_path):
        for d in ("a", "b"):
            run("analyze", "--scenario", scenario_arg("fig3_ai16.scenario"),
                "--format", "svg", "--out-dir", str(tmp_path / d))
        a = (tmp_path / "a" / "ref-ai16_throughput.svg").read_bytes()
        b = (tmp_path / "b" / "ref-ai16_throughput.svg").read_bytes()
        assert a == b

    def test_empty_points_layer_is_fine(self, tmp_path):
        from roofline_lab import throughput_roofline
        from roofline_lab.config_io import parse_arch
        from roofline_lab.svgchart import emit_svg

        arch = parse_arch(fixture_path("fig3.arch"))
        curve = throughput_roofline(arch, {1: 1 / 16, 2: 1.0, 3: 16.0})
        out = tmp_path / "bare.svg"
        emit_svg([("roof", curve)], [], out)
        assert out.read_text().count('class="point"') == 0


class TestValidateVerb:
    def test_valid_triple_exits_zero(self):
        code, out = run(
            "validate",
            "--arch", str(fixture_path("fig3.arch")),
            "--workload", str(fixture_path("gemm.wl")),
            "--mapping", str(fixture_path("os_map.map")),
        )
        assert code == 0 and out.strip() == "valid"

    def test_violations_exit_one(self, tmp_path):
        data = json.loads(fixture_path("os_map.map").read_text())
        data["temporal"][0] = [["C", 2], ["B", 2]]
        p = tmp_path / "short.map"
        p.write_text(json.dumps(data))
        code, out = run(
            "validate",
            "--arch", str(fixture_path("fig3.arch")),
            "--workload", str(fixture_path("gemm.wl")),
            "--mapping", str(p),
        )
        assert code == 1 and "violation" in out


class TestOracleCheckVerb:
    def test_reference_mapping_passes(self):
        code, out = run(
            "oracle-check",
            "--arch", str(fixture_path("fig3.arch")),
            "--workload", str(fixture_path("gemm.wl")),
            "--mapping", str(fixture_path("os_map.map")),
        )
        assert code == 0
        assert out.strip().endswith("PASS")


def _knob_fields(name: str) -> list[tuple[str, str, str]]:
    """(scenario, knob, the field its error names) for every knob that
    acts on a shipped scenario; an IMC macro replaces the compute array,
    so A_op, E_op and the array axes act only without one."""
    loaded = load_scenario(parse_scenario(fixture_path(f"{name}.scenario")))
    knobs = {"f_clk": "clock", "precision": "precision_bits", "density": "density"}
    for lvl in loaded.arch.levels:
        knobs[f"B_{lvl.name}"] = f"level {lvl.name}: bandwidth"
        knobs[f"E_{lvl.name}"] = f"level {lvl.name}: energy_per_byte"
    if name == "imc256":
        knobs["P_R"] = "axis row"
    else:
        knobs.update({"A_op": "throughput_scale", "E_op": "energy_per_op"})
        knobs.update({f"dim:{a}": f"axis {a}" for a, _ in loaded.arch.array.dims})
    return [(name, knob, field) for knob, field in knobs.items()]


class TestSweep:
    @pytest.mark.parametrize("name, knob, field", [
        case for name in ("fig3_ai16", "gemm_dense", "gemm_2to4", "imc256")
        for case in _knob_fields(name)])
    def test_out_of_range_value_fails_naming_the_field(self, capsys, name, knob, field):
        zero_in_range = knob == "E_op" or knob.startswith("E_L")  # free energy is fine
        for value in ("0", "-1"):
            code, out = run("sweep", "--scenario", scenario_arg(f"{name}.scenario"),
                            "--param", knob, "--values", value)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if zero_in_range and value == "0":
                assert code == 0 and len(out.splitlines()) == 2
            else:
                assert code in (1, 2) and field in err, (value, code, err)

    def test_list_as_pinned_operand_is_a_parse_error(self, tmp_path, capsys):
        mapping = json.loads(fixture_path("os_map.map").read_text())
        mapping["pinned_operand"] = []
        (tmp_path / "pinned.map").write_text(json.dumps(mapping))
        data = json.loads(fixture_path("gemm_dense.scenario").read_text())
        data["mapping"] = str(tmp_path / "pinned.map")
        code, _ = run("sweep", "--scenario", str(fixture_scenario(tmp_path, data)),
                      "--param", "B_L2", "--values", "8,16")
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert "mapping.pinned_operand: expected a string" in err

    def test_weight_precision_sweep_doubles_plateau(self):
        code, out = run(
            "sweep", "--scenario", scenario_arg("fig3_ai16.scenario"),
            "--param", "precision", "--values", "8,4,2",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        header = rows[0]
        plateau = [float(r[header.index("plateau_ops_per_cycle")])
                   for r in rows[1:]]
        assert plateau == [2048.0, 4096.0, 8192.0]

    def test_outer_bandwidth_sweep_halves_the_knee(self, tmp_path):
        # flat intensity ratios make the outermost level the limiter
        scenario = {
            "label": "flat",
            "arch": str(fixture_path("fig3.arch")),
            "workload": str(fixture_path("gemm.wl")),
            "mapping": None,
            "ai_profile": {"1": 16.0, "2": 16.0, "3": 16.0},
            "ref_level": 2,
            "transforms": [],
        }
        p = tmp_path / "flat.scenario"
        p.write_text(json.dumps(scenario))
        code, out = run("sweep", "--scenario", str(p),
                        "--param", "B_L3", "--values", "8,16,32")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        header = rows[0]
        knees = [float(r[header.index("knee_ai_ref")]) for r in rows[1:]]
        assert knees == [256.0, 128.0, 64.0]

    def test_density_sweep_scales_effective_ops_quadratically(self):
        code, out = run(
            "sweep", "--scenario", scenario_arg("gemm_dense.scenario"),
            "--param", "density", "--values", "1.0,0.5,0.25",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        header = rows[0]
        eff = [float(r[header.index("effective_ops")]) for r in rows[1:]]
        assert eff == [2048.0, 2048.0 * 0.25, 2048.0 * 0.0625]

    def test_unknown_parameter_fails(self):
        code, _ = run(
            "sweep", "--scenario", scenario_arg("fig3_ai16.scenario"),
            "--param", "warp_size", "--values", "1,2",
        )
        assert code == 1

    def test_fractional_array_size_fails(self, capsys):
        code, out = run("sweep", "--scenario", scenario_arg("gemm_dense.scenario"),
                        "--param", "dim:row", "--values", "4,2.5")
        err = capsys.readouterr().err
        assert code == 1 and out == "" and "Traceback" not in err
        assert "dim:row takes whole numbers (got 2.5)" in err

    @pytest.mark.parametrize("knob, values, message", [
        ("B_L2", "nan,inf", "B_L2 takes finite numbers (got nan)"),
        ("f_clk", "inf", "f_clk takes finite numbers (got inf)"),
        ("A_op", "-inf", "A_op takes finite numbers (got -inf)"),
    ])
    def test_non_finite_value_fails_naming_the_knob(self, capsys, knob, values, message):
        code, out = run("sweep", "--scenario", scenario_arg("gemm_dense.scenario"),
                        "--param", knob, f"--values={values}")
        err = capsys.readouterr().err
        assert code == 1 and out == "" and "Traceback" not in err
        assert message in err

    def test_p_r_below_one_fails_naming_p_r(self, capsys):
        code, out = run("sweep", "--scenario", scenario_arg("imc256.scenario"),
                        "--param", "P_R", "--values", "0")
        err = capsys.readouterr().err
        assert code == 1 and out == "" and "Traceback" not in err
        assert "P_R" in err and "(got 0.0)" in err

    def test_integral_float_array_size_runs_as_the_integer(self):
        code, out = run("sweep", "--scenario", scenario_arg("gemm_dense.scenario"),
                        "--param", "dim:row", "--values", "4.0,2.0")
        assert (code, out) == run("sweep", "--scenario", scenario_arg("gemm_dense.scenario"),
                                  "--param", "dim:row", "--values", "4,2")
        assert code == 0

    @pytest.mark.parametrize("values", ["-1e3", "-1,-2", "-inf"])
    def test_a_list_starting_with_minus_reaches_the_knob(self, capsys, values):
        # argparse took these for options and exited 2, naming --values
        args = ("sweep", "--scenario", scenario_arg("gemm_dense.scenario"), "--param", "B_L2")
        joined = run(*args, f"--values={values}") + (capsys.readouterr().err,)
        code, out, err = run(*args, "--values", values) + (capsys.readouterr().err,)
        assert (code, out, err) == joined
        assert code == 1 and out == "" and "Traceback" not in err
        assert err.startswith("error: ") and "L2" in err

    def test_csv_is_deterministic(self):
        args = ("sweep", "--scenario", scenario_arg("fig3_ai16.scenario"),
                "--param", "B_L3", "--values", "8,16")
        assert run(*args) == run(*args)


class TestTransformChains:
    def test_quantization_then_sparsity_compose_left_to_right(self, tmp_path):
        scenario = {
            "label": "chained",
            "arch": str(fixture_path("fig3.arch")),
            "workload": str(fixture_path("gemm.wl")),
            "mapping": str(fixture_path("os_map.map")),
            "transforms": [
                {"kind": "quantization", "precision_bits": {"W": 4, "I": 4, "O": 4}},
                {"kind": "sparsity", "mode": "unstructured",
                 "density": {"W": 0.5, "I": 0.5}, "index_bits": 0},
            ],
        }
        p = tmp_path / "chain.scenario"
        p.write_text(json.dumps(scenario))
        code, out = run("analyze", "--scenario", str(p), "--format", "csv",
                        "--out-dir", str(tmp_path))
        assert code == 0
        row = (tmp_path / "chained.csv").read_text().splitlines()[1].split(",")
        header = (tmp_path / "chained.csv").read_text().splitlines()[0].split(",")
        assert float(row[header.index("plateau_ops_per_cycle")]) == 4096.0
        assert float(row[header.index("effective_ops")]) == 2048 * 0.25

    def test_overlap_override_slows_the_point(self, tmp_path):
        base = run("analyze", "--scenario", scenario_arg("gemm_dense.scenario"),
                   "--format", "csv", "--out-dir", str(tmp_path / "a"))
        slow = run("analyze", "--scenario", scenario_arg("gemm_dense.scenario"),
                   "--overlap", "serialized", "--format", "csv",
                   "--out-dir", str(tmp_path / "b"))
        assert base[0] == 0 and slow[0] == 0
        a = (tmp_path / "a" / "gemm-dense.csv").read_text().splitlines()
        b = (tmp_path / "b" / "gemm-dense.csv").read_text().splitlines()
        idx = a[0].split(",").index("l_task_cycles")
        assert float(b[1].split(",")[idx]) > float(a[1].split(",")[idx])
        code, text = run("analyze", "--scenario", scenario_arg("gemm_dense.scenario"),
                         "--overlap", "serialized")
        temporal = float(text.split("temporal ")[1].split(",")[0])
        assert code == 0 and temporal < 1

    def test_text_header_names_the_latency_mode_in_use(self):
        for overlap in ("overlapped", "serialized"):
            code, text = run("analyze", "--scenario", scenario_arg("gemm_dense.scenario"),
                             "--overlap", overlap)
            assert code == 0
            assert text.splitlines()[1].endswith(f"pJ/op, {overlap}")

    def test_every_verb_runs_the_architecture_overlap_rewrites(self):
        from roofline_lab.report import (ANALYSIS_FIELDS, SWEEP_FIELDS, analysis_row,
                                         apply_sweep_value, render_text, rows_to_csv,
                                         run_scenario)

        def serialized(path):
            loaded = load_scenario(parse_scenario(path))
            return loaded._replace(arch=loaded.arch._replace(latency_overlap="serialized"))

        paths = [scenario_arg(f"{n}.scenario") for n in ("gemm_dense", "imc256")]
        flag = ("--overlap", "serialized")
        compare = ("compare", "--scenario", paths[0], "--scenario", paths[1])
        assert run(*compare, *flag) == (0, rows_to_csv(ANALYSIS_FIELDS, [
            analysis_row(run_scenario(serialized(p))) for p in paths]))
        assert run(*compare)[1] != run(*compare, *flag)[1]
        sweep = ("sweep", "--scenario", paths[0], "--param", "B_L2", "--values", "8,16")
        assert run(*sweep, *flag) == (0, rows_to_csv(SWEEP_FIELDS, [
            {"parameter": "B_L2", "value": v,
             **analysis_row(run_scenario(apply_sweep_value(serialized(paths[0]), "B_L2",
                                                           float(v))))}
            for v in ("8", "16")]))
        assert run(*sweep)[1] != run(*sweep, *flag)[1]
        assert run("analyze", "--scenario", paths[1], *flag) == (
            0, render_text(run_scenario(serialized(paths[1]))))

    def test_lowered_a_op_sweep_prints_a_row(self):
        code, out = run("sweep", "--scenario", scenario_arg("gemm_dense.scenario"),
                        "--param", "A_op", "--values", "32")
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 2 and rows[1].startswith("A_op,32,gemm-dense,")


class TestTransformParsing:
    """Each transform map value is checked as a number by the parser."""

    @pytest.mark.parametrize("transform, field, message", [
        ({"density": {"W": [0.5]}}, "density.W", "expected a number"),
        ({"density": {"W": "half"}}, "density.W", "expected a number"),
        ({"density": [0.5]}, "density", "expected an object"),
        ({"n": "two"}, "n", "expected an integer"),
        ({"m": 2.5}, "m", "expected an integer"),
        ({"m": 0}, "m", "must be >= 1"),
        ({"kind": "quantization", "precision_bits": {"W": [4]}},
         "precision_bits.W", "expected an integer"),
        ({"kind": "quantization", "precision_bits": {"W": 0}},
         "precision_bits.W", "must be >= 1"),
        ({"kind": "quantization", "precision_bits": {"W": 4.5}},
         "precision_bits.W", "expected an integer"),
        ({"kind": "quantization", "precision_bits": {"W": 4}, "block_size": 2.5},
         "block_size", "expected an integer"),
        ({"kind": "quantization", "precision_bits": {"W": 4}, "block_metadata_bits": 8.0},
         "block_metadata_bits", "expected an integer"),
        ({"index_bits": 1.5}, "index_bits", "expected an integer"),
        ({"kind": "imc", "rows": 256.5, "cols": 128}, "rows", "expected an integer"),
        ({"kind": "imc", "rows": 256, "cols": 128.0}, "cols", "expected an integer"),
        ({"kind": "imc", "rows": 256, "cols": 128, "input_bits": 1.5},
         "input_bits", "expected an integer"),
        ({"kind": "imc", "rows": 256, "cols": 128, "weight_bits": 2.5},
         "weight_bits", "expected an integer"),
        ({"kind": "imc", "rows": 256, "cols": 128, "weight_write_rows_per_cycle": 0.5},
         "weight_write_rows_per_cycle", "expected an integer"),
        *[({"kind": "imc", "rows": 256, "cols": 128, "reload_overlapped": bad},
           "reload_overlapped", "expected true or false") for bad in ("no", "false", 0, 1, None)],
    ])
    def test_bad_value_is_a_parse_error_naming_the_field(
            self, tmp_path, capsys, transform, field, message):
        data = json.loads(fixture_path("gemm_2to4.scenario").read_text())
        for key in ("arch", "workload", "mapping"):
            data[key] = str(fixture_path(data[key]))
        if "kind" in transform:
            data["transforms"] = [transform]
        else:
            data["transforms"][0].update(transform)
        path = tmp_path / "bad_transform.scenario"
        path.write_text(json.dumps(data))
        code, _ = run("analyze", "--scenario", str(path))
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err
        assert f"scenario.transforms[0].{field}: {message}" in err


class TestCompare:
    def test_sparse_point_sits_left_of_and_below_dense(self, tmp_path):
        code, out = run(
            "compare",
            "--scenario", scenario_arg("gemm_dense.scenario"),
            "--scenario", scenario_arg("gemm_2to4.scenario"),
            "--format", "svg", "--out-dir", str(tmp_path),
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()
                if not line.startswith("wrote")]
        header = rows[0]
        ai = [float(r[header.index("ai_ref")]) for r in rows[1:]]
        attained = [float(r[header.index("attained_ops_per_cycle")])
                    for r in rows[1:]]
        assert ai[1] < ai[0]
        assert attained[1] < attained[0]
        svg = (tmp_path / "compare_throughput.svg").read_text()
        assert svg.count('class="point"') == 2
        assert 'data-label="gemm-dense"' in svg
        assert 'data-label="gemm-2to4"' in svg

    def test_each_file_is_parsed_once_per_call(self, monkeypatch):
        import roofline_lab.report as report
        from roofline_lab.report import ANALYSIS_FIELDS, analysis_row, rows_to_csv, run_scenario

        paths = [scenario_arg("gemm_dense.scenario"), scenario_arg("gemm_2to4.scenario")]
        expected = rows_to_csv(ANALYSIS_FIELDS, [
            analysis_row(run_scenario(load_scenario(parse_scenario(p)))) for p in paths])
        parsed = []
        for name in ("parse_arch", "parse_workload", "parse_mapping"):
            def counting(path, parse=getattr(report, name)):
                parsed.append(path)
                return parse(path)
            monkeypatch.setattr(report, name, counting)
        for _ in range(2):  # and nothing is kept from one call to the next
            parsed.clear()
            assert run("compare", "--scenario", paths[0], "--scenario", paths[1]) == (
                0, expected)
            assert sorted(p.name for p in parsed) == ["fig3.arch", "gemm.wl", "os_map.map"]


class TestSharedParser:
    """``main`` reuses the parser built at import; no call leaks into
    the next."""

    def _calls(self, out_dir):
        triple = ["--arch", str(fixture_path("fig3.arch")),
                  "--workload", str(fixture_path("gemm.wl")),
                  "--mapping", str(fixture_path("os_map.map"))]
        dense = scenario_arg("gemm_dense.scenario")
        return [
            ["analyze", "--scenario", dense],
            ["analyze", "--scenario", dense, "--format", "svg", "--out-dir", str(out_dir)],
            ["sweep", "--scenario", dense, "--param", "B_L2", "--values", "8,16"],
            ["compare", "--scenario", dense, "--scenario", scenario_arg("gemm_2to4.scenario")],
            ["validate", *triple],
            ["oracle-check", *triple],
        ]

    def test_main_does_not_build_a_parser(self, monkeypatch):
        import roofline_lab.cli as cli

        def forbidden():
            raise AssertionError("main() built a parser")

        monkeypatch.setattr(cli, "_build_parser", forbidden)
        assert run("validate", "--arch", str(fixture_path("fig3.arch")),
                   "--workload", str(fixture_path("gemm.wl")),
                   "--mapping", str(fixture_path("os_map.map"))) == (0, "valid\n")

    def test_every_verb_run_twice_prints_the_same_bytes(self, tmp_path):
        for argv in self._calls(tmp_path):
            first = run(*argv)
            assert first[0] == 0
            assert run(*argv) == first

    def test_compare_rows_do_not_accumulate(self):
        argv = ("compare", "--scenario", scenario_arg("gemm_dense.scenario"),
                "--scenario", scenario_arg("gemm_2to4.scenario"))
        for _ in range(2):
            code, out = run(*argv)
            assert code == 0 and len(out.strip().splitlines()) == 1 + 2

    def test_ai_ref_level_does_not_carry_over(self):
        dense = scenario_arg("gemm_dense.scenario")
        assert "AI_ref(L3)" in run("analyze", "--scenario", dense, "--ai-ref-level", "3")[1]
        code, out = run("analyze", "--scenario", dense)
        assert code == 0 and "AI_ref(L2)" in out and "AI_ref(L3)" not in out

    def test_argparse_error_between_calls_changes_nothing(self, tmp_path, capsys):
        calls = self._calls(tmp_path)
        before = [run(*argv) for argv in calls]
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--scenario", scenario_arg("gemm_dense.scenario"),
                  "--format", "pdf"], stdout=io.StringIO())
        assert exc.value.code == 2
        assert "invalid choice: 'pdf'" in capsys.readouterr().err
        assert [run(*argv) for argv in calls] == before


def _loaded_by_cli_import(modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after
    importing roofline_lab.cli."""
    env = dict(os.environ, PYTHONPATH=str(Path(roofline_lab.__file__).parents[1]))
    code = f"import sys, roofline_lab.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_cli_import_does_not_load_numpy():
    assert _loaded_by_cli_import(("numpy",)) == []


def test_cli_import_does_not_load_dataclasses_or_inspect():
    assert _loaded_by_cli_import(("dataclasses", "inspect")) == []
