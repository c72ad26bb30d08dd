"""Input parsing: shipped fixtures, the field tables, error reporting."""

import json
import os

import pytest

from roofline_lab import validate
from roofline_lab.config_io import (
    ParseError,
    fixture_path,
    parse_arch,
    parse_mapping,
    parse_scenario,
    parse_workload,
)
from roofline_lab.report import load_scenario


class TestShippedFixtures:
    def test_reference_triple_parses_and_validates(self):
        arch = parse_arch(fixture_path("fig3.arch"))
        wl = parse_workload(fixture_path("gemm.wl"))
        mapping = parse_mapping(fixture_path("os_map.map"))
        assert validate(arch, wl, mapping) == []
        assert arch.array.a_op == 2048
        assert wl.n_op == 2048

    def test_imc_triple_parses_and_validates(self):
        arch = parse_arch(fixture_path("imc256.arch"))
        wl = parse_workload(fixture_path("imc256.wl"))
        mapping = parse_mapping(fixture_path("imc256.map"))
        assert validate(arch, wl, mapping) == []

    @pytest.mark.parametrize("name", [
        "fig3_ai16.scenario", "imc256.scenario",
        "gemm_dense.scenario", "gemm_2to4.scenario",
    ])
    def test_scenarios_parse(self, name):
        scenario = parse_scenario(fixture_path(name))
        assert scenario.label


class TestRoundTrip:
    def test_tables_follow_the_constructors(self):
        from roofline_lab import config_io

        tables = [config_io.ARRAY, config_io.LEVEL, config_io.ARCH, config_io.OPERAND,
                  config_io.WORKLOAD, config_io.SPATIAL, config_io.MAPPING,
                  config_io.SCENARIO, *config_io.TRANSFORMS.values()]
        for table in tables:  # _read builds each record positionally
            assert tuple(f.attr for f in table.fields) == table.cls._fields


class TestErrors:
    def _write(self, tmp_path, data):
        p = tmp_path / "bad.arch"
        p.write_text(json.dumps(data))
        return p

    def test_negative_bandwidth_names_the_field(self, tmp_path):
        data = json.loads(fixture_path("fig3.arch").read_text())
        data["levels"][0]["bandwidth"] = -1
        with pytest.raises(ParseError) as err:
            parse_arch(self._write(tmp_path, data))
        assert "bandwidth" in str(err.value)
        assert "levels[0]" in str(err.value)

    def test_duplicate_level_name_names_the_field(self, tmp_path):
        data = json.loads(fixture_path("fig3.arch").read_text())
        data["levels"][2]["name"] = "L1"
        with pytest.raises(ParseError) as err:
            parse_arch(self._write(tmp_path, data))
        assert ("arch.levels[2].name: duplicate level name 'L1' (also arch.levels[0])"
                in str(err.value))

    @pytest.mark.parametrize("fixture, parse, keys, where", [
        ("fig3.arch", parse_arch, ("array", "ops_per_mac"), "arch.array.ops_per_mac"),
        ("fig3.arch", parse_arch, ("levels", 1, "level_index"), "arch.levels[1].level_index"),
        ("fig3.arch", parse_arch, ("base_precision_bits",), "arch.base_precision_bits"),
        ("gemm.wl", parse_workload, ("operands", 0, "precision_bits"),
         "workload.operands[0].precision_bits"),
        ("os_map.map", parse_mapping, ("spatial", 0, "factor"), "mapping.spatial[0].factor"),
        ("os_map.map", parse_mapping, ("cores",), "mapping.cores"),
        ("fig3.arch", parse_arch, ("array", "dims", 0, 1), "arch.array.dims[0][1]"),
        ("fig3.arch", parse_arch, ("levels", 0, "capacity"), "arch.levels[0].capacity"),
        ("gemm.wl", parse_workload, ("dims", 1, 1), "workload.dims[1][1]"),
        ("gemm.wl", parse_workload, ("operands", 2, "accum_bits"),
         "workload.operands[2].accum_bits"),
        ("os_map.map", parse_mapping, ("temporal", 0, 1, 1), "mapping.temporal[0][1][1]"),
        ("os_map.map", parse_mapping, ("reload_cycles_per_tile",),
         "mapping.reload_cycles_per_tile"),
    ])
    def test_non_integer_count_is_not_truncated(self, tmp_path, fixture, parse, keys, where):
        for bad in (2.5, 2.0, True):
            data = json.loads(fixture_path(fixture).read_text())
            target = data
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = bad
            path = tmp_path / fixture
            path.write_text(json.dumps(data))
            with pytest.raises(ParseError) as err:
                parse(path)
            assert f"{where}: expected an integer" in str(err.value)

    @pytest.mark.parametrize("fixture, parse, keys, bad, where, message", [
        ("os_map.map", parse_mapping, ("core_split",), ["B", True],
         "mapping.core_split[1]", "expected an integer"),
        ("os_map.map", parse_mapping, ("core_split",), ["B", 0],
         "mapping.core_split[1]", "must be >= 1 (got 0)"),
        ("fig3.arch", parse_arch, ("levels", 1, "capacity"), 0,
         "arch.levels[1].capacity", "must be > 0 (got 0)"),
        ("gemm.wl", parse_workload, ("operands", 2, "accum_bits"), "x",
         "workload.operands[2].accum_bits", "expected an integer"),
        ("gemm.wl", parse_workload, ("operands", 2, "accum_bits"), 0,
         "workload.operands[2].accum_bits", "must be >= 1 (got 0)"),
        *[("gemm.wl", parse_workload, ("operands", 0, "bytes_per_element"), bad,
           "workload.operands[0].bytes_per_element", message)
          for bad, message in (("x", "expected a number"), (True, "expected a number"),
                               (-1, "must be > 0.0 (got -1)"),
                               (0, "must be > 0.0 (got 0)"))],
    ])
    def test_bad_value_names_the_field(self, tmp_path, fixture, parse, keys, bad, where,
                                       message):
        data = json.loads(fixture_path(fixture).read_text())
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = bad
        path = tmp_path / fixture
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as err:
            parse(path)
        assert f"{where}: {message}" in str(err.value)

    @pytest.mark.parametrize("raw", [
        b'{"name": "caf\xe9"}',  # Latin-1
        '{"name": "x"}'.encode("utf-16"),
    ], ids=["latin-1", "utf-16"])
    def test_non_utf8_file_is_a_parse_error_naming_it(self, tmp_path, raw):
        p = tmp_path / "latin.wl"
        p.write_bytes(raw)
        with pytest.raises(ParseError) as err:
            parse_workload(p)
        assert err.value.path == str(p) and "not UTF-8 text" in str(err.value)

    def test_byte_order_mark_is_a_parse_error(self, tmp_path):
        p = tmp_path / "bom.arch"
        p.write_bytes(b"\xef\xbb\xbf" + fixture_path("fig3.arch").read_bytes())
        with pytest.raises(ParseError) as err:
            parse_arch(p)
        assert "line 1" in str(err.value) and "BOM" in str(err.value)

    def test_unknown_key_is_an_error(self, tmp_path):
        data = json.loads(fixture_path("fig3.arch").read_text())
        data["frequency"] = 2e9
        with pytest.raises(ParseError) as err:
            parse_arch(self._write(tmp_path, data))
        assert "unknown keys" in str(err.value)

    def test_malformed_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.arch"
        p.write_text('{"array": [,]}')
        with pytest.raises(ParseError) as err:
            parse_arch(p)
        assert "line" in str(err.value)

    def test_short_factorization_surfaces_dim_name(self, tmp_path):
        arch = parse_arch(fixture_path("fig3.arch"))
        wl = parse_workload(fixture_path("gemm.wl"))
        data = json.loads(fixture_path("os_map.map").read_text())
        data["temporal"][0] = [["C", 2], ["B", 2]]  # product short of 16
        p = tmp_path / "short.map"
        p.write_text(json.dumps(data))
        mapping = parse_mapping(p)  # structurally fine
        violations = validate(arch, wl, mapping)
        assert len(violations) == 1 and "B" in violations[0]

    def test_scenario_needs_mapping_or_intensities(self, tmp_path):
        p = tmp_path / "s.scenario"
        p.write_text(json.dumps({
            "label": "x",
            "arch": str(fixture_path("fig3.arch")),
            "workload": str(fixture_path("gemm.wl")),
        }))
        with pytest.raises(ParseError):
            parse_scenario(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_arch(tmp_path / "absent.arch")


class TestScenarioPaths:
    def test_dotdot_through_a_symlinked_directory_reads_the_real_parent(self, tmp_path):
        # real/sub/s.scenario names ../x.arch, and link -> real/sub; a
        # decoy x.arch sits where a purely lexical ".." would land
        (tmp_path / "real" / "sub").mkdir(parents=True)
        real = tmp_path / "real" / "x.arch"
        real.write_text(fixture_path("fig3.arch").read_text())
        decoy = json.loads(fixture_path("fig3.arch").read_text())
        decoy["clock"] = 2e9
        (tmp_path / "x.arch").write_text(json.dumps(decoy))
        (tmp_path / "real" / "sub" / "s.scenario").write_text(json.dumps({
            "label": "linked",
            "arch": "../x.arch",
            "workload": str(fixture_path("gemm.wl")),
            "mapping": str(fixture_path("os_map.map")),
        }))
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        scenario = parse_scenario(tmp_path / "link" / "s.scenario")
        assert scenario.arch_path.is_absolute()
        assert os.path.samefile(scenario.arch_path, real)
        assert load_scenario(scenario).arch == parse_arch(real)
