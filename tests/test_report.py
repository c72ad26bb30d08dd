"""Scenario evaluation in two stages: the traffic stage (transform chain
and access counts), then the cost stage (roofs, task cost, point).  A
sweep counts each distinct traffic once per call and must print the
rows that evaluating every swept point on its own prints."""

import pytest

from roofline_lab import analysis, mapping, report
from roofline_lab.config_io import fixture_path, parse_scenario
from roofline_lab.transforms import ImcMacro

SCENARIOS = ("fig3_ai16", "gemm_2to4", "gemm_dense", "imc256")


def _scenario(name):
    return report.load_scenario(parse_scenario(fixture_path(f"{name}.scenario")))


def _sweeps(loaded) -> dict[str, list[float]]:
    """In-range values of every knob that acts on the scenario, unsorted
    and with a repeat.  The IMC macro replaces the compute array, so
    A_op, E_op and the array axes act only without one."""
    arch = loaded.arch
    out = {
        "f_clk": [arch.clock, arch.clock * 2, arch.clock / 2, arch.clock],
        "precision": [8, 4, 2, 4, 16],
        "density": [1.0, 0.5, 0.25, 0.5],
    }
    for lvl in arch.levels:
        out[f"B_{lvl.name}"] = [lvl.bandwidth * f for f in (1, 4, 0.25, 4)]
        out[f"E_{lvl.name}"] = [lvl.energy_per_byte * f for f in (1, 2, 0, 0.5)]
    if any(isinstance(t, ImcMacro) for t in loaded.transforms):
        out["P_R"] = [256, 128, 512, 128]
    else:
        peak = arch.array.a_op
        out["A_op"] = [peak, peak * 2, peak / 2, peak * 2]
        out["E_op"] = [arch.array.energy_per_op * f for f in (1, 0.5, 0, 2)]
        for axis, size in arch.array.dims:
            out[f"dim:{axis}"] = [size, size * 2, size // 2, size * 2]
    return out


CASES = [(name, knob) for name in SCENARIOS for knob in _sweeps(_scenario(name))]


class TestSweepRows:
    @pytest.mark.parametrize("overlap", ["overlapped", "serialized"])
    @pytest.mark.parametrize("name, knob", CASES)
    def test_rows_equal_the_per_point_reference(self, name, knob, overlap):
        loaded = _scenario(name)
        loaded = loaded._replace(arch=loaded.arch._replace(latency_overlap=overlap))
        values = _sweeps(loaded)[knob]
        expected = []
        for v in values:
            r = report.run_scenario(report.apply_sweep_value(loaded, knob, v))
            expected.append({"parameter": knob, "value": report._g(v),
                             **report.analysis_row(r)})
        assert report.run_sweep(loaded, knob, values) == expected


class TestOnePath:
    """The library entry points run the scenario pipeline: called with a
    loaded scenario's fields, they report what ``run_scenario`` of that
    scenario reports, in either latency mode."""

    @pytest.mark.parametrize("overlap", ["overlapped", "serialized"])
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_entry_point_reports_what_run_scenario_reports(self, name, overlap):
        loaded = _scenario(name)
        loaded = loaded._replace(arch=loaded.arch._replace(latency_overlap=overlap))
        arch, wl = loaded.arch, loaded.workload
        if loaded.mapping is None:
            assert loaded.transforms == ()
            r = analysis.analyze_intensities(arch, wl, loaded.ai_profile, label=loaded.label,
                                             ref_level=loaded.ref_level)
        else:
            r = analysis.analyze_mapping(arch, wl, loaded.mapping, label=loaded.label,
                                         ref_level=loaded.ref_level,
                                         transforms=loaded.transforms)
        expected = report.run_scenario(loaded)
        assert report.render_text(r) == report.render_text(expected)
        assert report.analysis_row(r) == report.analysis_row(expected)
        assert r.arch.latency_overlap == overlap

    @pytest.mark.parametrize("name", ["gemm_2to4", "imc256"])
    def test_analyze_mapping_applies_the_chain(self, name):
        loaded = _scenario(name)
        assert loaded.transforms
        chained = analysis.analyze_mapping(loaded.arch, loaded.workload, loaded.mapping,
                                           transforms=loaded.transforms)
        bare = analysis.analyze_mapping(loaded.arch, loaded.workload, loaded.mapping)
        assert report.analysis_row(chained) != report.analysis_row(bare)


class TestOneCountPerSweep:
    @pytest.fixture
    def counts(self, monkeypatch):
        calls = []
        count = mapping.count_accesses

        def counting(*args):
            calls.append(args)
            return count(*args)

        for module in (analysis, report):
            monkeypatch.setattr(module, "count_accesses", counting, raising=False)
        return calls

    @pytest.mark.parametrize("knob, values", [
        ("B_L2", [8.0, 16.0, 32.0, 64.0]),
        ("E_op", [0.25, 0.5, 1.0]),
        ("f_clk", [5e8, 1e9, 2e9]),
    ])
    def test_cost_knob_counts_once(self, counts, knob, values):
        report.run_sweep(_scenario("gemm_dense"), knob, values)
        assert len(counts) == 1
        report.run_sweep(_scenario("gemm_dense"), knob, values)
        assert len(counts) == 2  # nothing is kept across calls

    def test_precision_counts_once_per_value(self, counts):
        report.run_sweep(_scenario("gemm_dense"), "precision", [8, 4, 2])
        assert len(counts) == 3

    def test_one_profile_backs_every_row(self, monkeypatch):
        results = []
        evaluate = report._evaluate

        def recording(*args, **kwargs):
            results.append(evaluate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(report, "_evaluate", recording)
        report.run_sweep(_scenario("gemm_dense"), "B_L2", [8.0, 16.0, 32.0])
        assert len(results) == 3
        assert all(r.profile is results[0].profile for r in results)

    def test_a_bad_later_value_is_still_validated(self):
        with pytest.raises(ValueError, match=r"level L2: bandwidth must be > 0 \(got 0.0\)"):
            report.run_sweep(_scenario("gemm_dense"), "B_L2", [16.0, 0.0])


class TestSweepValues:
    @pytest.mark.parametrize("name, knob, value", [
        ("gemm_dense", "dim:row", 2.5),
        ("gemm_dense", "precision", 4.5),
        ("imc256", "P_R", 128.5),
        ("gemm_dense", "dim:col", float("inf")),
        ("gemm_dense", "precision", float("nan")),
    ])
    def test_a_fraction_of_a_whole_number_knob_is_an_error(self, name, knob, value):
        # int() would run 2.5 rows as 2 under a row labelled 2.5
        with pytest.raises(report.SweepParameterError,
                           match=f"^{knob} takes whole numbers \\(got {value}\\)$"):
            report.apply_sweep_value(_scenario(name), knob, value)

    @pytest.mark.parametrize("name", SCENARIOS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_value_is_an_error_naming_the_knob(self, name, value):
        # nan passes every range check (nan <= 0 is false) and inf is in range
        loaded = _scenario(name)
        knobs = ["A_op", "E_op", "f_clk", "precision", "density"]
        knobs += [f"{kind}_{lvl.name}" for lvl in loaded.arch.levels for kind in "BE"]
        knobs += [f"dim:{axis}" for axis, _ in loaded.arch.array.dims]
        knobs += ["P_R"] if any(isinstance(t, ImcMacro) for t in loaded.transforms) else []
        for knob in knobs:
            with pytest.raises(report.SweepParameterError,
                               match=f"^{knob} takes (finite|whole) numbers \\(got {value}\\)$"):
                report.apply_sweep_value(loaded, knob, value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_p_r_below_one_is_an_error_naming_p_r(self, value):
        # not the array axis the macro's rows become
        with pytest.raises(report.SweepParameterError,
                           match=f"^P_R .* must be >= 1 \\(got {value}\\)$"):
            report.apply_sweep_value(_scenario("imc256"), "P_R", value)

    @pytest.mark.parametrize("value", [4, 4.0])  # as design points and the CLI pass it
    def test_an_integral_value_is_taken_as_an_int(self, value):
        loaded = _scenario("gemm_dense")
        rows = dict(report.apply_sweep_value(loaded, "dim:row", value).arch.array.dims)["row"]
        assert type(rows) is int and rows == 4
        bits = report.apply_sweep_value(loaded, "precision", value).transforms[-1].precision_bits
        assert type(bits["W"]) is int and bits == {"W": 4}
        macro = report.apply_sweep_value(_scenario("imc256"), "P_R", value).transforms[-1]
        assert type(macro.rows) is int and macro.rows == 4


def test_a_scenario_without_a_source_of_traffic_is_an_error():
    loaded = _scenario("gemm_dense")._replace(mapping=None)
    assert loaded.ai_profile is None
    with pytest.raises(ValueError, match="needs either 'mapping' or 'ai_profile'"):
        report.run_scenario(loaded)


class TestRecords:
    @pytest.mark.parametrize("name", SCENARIOS)
    def test_result_records_are_immutable(self, name):
        r = report.run_scenario(_scenario(name))
        traffic = next(iter(r.profile.traffic.values()))
        for record, field in ((r, "label"), (r.point, "ai_ref"), (r.latency, "cycles"),
                              (r.utilization, "spatial"), (traffic, "events")):
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
