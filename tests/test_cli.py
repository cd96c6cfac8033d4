"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from degradesched import cli, storage
from degradesched.cli import main
from degradesched.exampleday import load_example_day
from degradesched.lod import EconParams, LodConfig
from test_lod import constant_model
from test_milp import day_case
from test_storage import MALFORMED_ARTIFACTS

runner = CliRunner()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared inputs: a tiny dataset, a 24h case file and a model artifact."""
    root = tmp_path_factory.mktemp("cli")
    grid = [
        {"soc_high": 0.8, "dod": 0.5, "temp_amb": 25.0, "c_rate": 1.0},
        {"soc_high": 1.0, "dod": 0.8, "temp_amb": 45.0, "c_rate": 2.0},
    ]
    (root / "grid.json").write_text(json.dumps(grid))
    result = runner.invoke(
        main,
        ["simulate-aging", "--grid", str(root / "grid.json"),
         "--out", str(root / "aging.csv"), "--noise", "0.02", "--seed", "7"],
    )
    assert result.exit_code == 0, result.output
    storage.write_case(root / "case.json", day_case(), series_csv="series.csv")
    storage.write_model_artifact(root / "stub_model.json", constant_model(2e-4))
    return root


class TestSimulateAging:
    def test_writes_rows_and_meta(self, workdir):
        meta = json.loads((workdir / "aging.csv.meta.json").read_text())
        assert meta["noise_sigma"] == 0.02
        assert meta["row_count"] > 400
        assert "manifest" in meta

    def test_deterministic_digest(self, workdir, tmp_path):
        for out in (tmp_path / "a.csv", tmp_path / "b.csv"):
            result = runner.invoke(
                main,
                ["simulate-aging", "--grid", str(workdir / "grid.json"),
                 "--out", str(out), "--noise", "0.02", "--seed", "7"],
            )
            assert result.exit_code == 0, result.output
        assert storage.file_digest(tmp_path / "a.csv") == storage.file_digest(
            tmp_path / "b.csv"
        )
        assert (tmp_path / "a.csv").read_text() == (workdir / "aging.csv").read_text()

    def test_invalid_grid_names_entry(self, tmp_path):
        bad = [{"soc_high": 0.5, "dod": 0.9, "temp_amb": 25.0, "c_rate": 1.0}]
        (tmp_path / "grid.json").write_text(json.dumps(bad))
        result = runner.invoke(
            main,
            ["simulate-aging", "--grid", str(tmp_path / "grid.json"),
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert "dod" in result.output

    def test_config_overrides_flags(self, workdir, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"seed": 7}))
        result = runner.invoke(
            main,
            ["simulate-aging", "--grid", str(workdir / "grid.json"),
             "--out", str(tmp_path / "c.csv"), "--noise", "0.02",
             "--seed", "999", "--config", str(cfgfile)],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "c.csv").read_text() == (workdir / "aging.csv").read_text()


class TestTrain:
    def test_named_pair_records_variants(self, workdir, tmp_path):
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"), "--out", str(out),
             "--ubdf", "5", "--bdp", "10", "--epochs", "8", "--seed", "3"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(out.read_text())
        assert (doc["ubdf_variant"], doc["bdp_variant"]) == (5, 10)
        model = storage.read_model_artifact(out)
        x = np.random.default_rng(1).uniform(0.2, 0.8, size=(4, 7))
        again = storage.read_model_artifact(out)
        assert np.array_equal(model.bdp.predict(x), again.bdp.predict(x))

    def test_closure_incompatible_rejected_before_training(self, workdir, tmp_path):
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"),
             "--out", str(tmp_path / "m.json"), "--ubdf", "1", "--bdp", "10",
             "--epochs", "5"],
        )
        assert result.exit_code == 2
        assert "does not produce" in result.output

    def test_missing_pair_flags_rejected(self, workdir, tmp_path):
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"),
             "--out", str(tmp_path / "m.json")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags, message", [
        (["--variant-search", "--bdp", "3"], "--variant-search excludes --ubdf/--bdp"),
        (["--ubdf", "1"], "provide --ubdf and --bdp"),
        (["--ubdf", "1", "--bdp", "10"], "does not produce"),
    ])
    def test_flags_checked_before_reading_dataset(self, tmp_path, flags, message):
        result = runner.invoke(
            main,
            ["train", "--dataset", str(tmp_path / "missing.csv"),
             "--out", str(tmp_path / "m.json"), *flags],
        )
        assert result.exit_code == 2
        assert message in result.output

    def test_benchmarks_write_comparison_table(self, workdir, tmp_path):
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"), "--out", str(out),
             "--ubdf", "3", "--bdp", "4", "--epochs", "8", "--seed", "3",
             "--with-benchmarks", "--report-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        table = (tmp_path / "performance_comparison.csv").read_text().splitlines()
        assert table[0] == "model_id,tol05,tol10,tol15,tol20"
        assert {line.split(",")[0] for line in table[1:]} == {"hdl-bdq", "nnbd", "nnbd2"}

    @pytest.mark.parametrize("mode, phase", [
        (["--variant-search"], "search_seconds"),
        (["--ubdf", "3", "--bdp", "4"], "pair_seconds"),
    ])
    def test_manifest_times_each_phase(self, workdir, tmp_path, mode, phase):
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"), "--out", str(out),
             *mode, "--with-benchmarks", "--epochs", "2", "--seed", "3",
             "--report-dir", str(tmp_path)],
        )
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
        timings = manifest["timings"]
        phases = ("read_seconds", phase, "benchmarks_seconds")
        assert set(timings) == {"wall_seconds", *phases}
        assert all(timings[k] >= 0 for k in phases)
        assert sum(timings[k] for k in phases) <= timings["wall_seconds"]


class TestSchedule:
    def test_traditional_writes_schedule_and_summary(self, workdir, tmp_path):
        out = tmp_path / "trad"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "schedule.csv").exists()
        assert not (out / "trace.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_cost"] == pytest.approx(
            summary["operation_cost"] + summary["degradation_cost"]
        )

    def test_lod_writes_trace_with_decreasing_caps(self, workdir, tmp_path):
        out = tmp_path / "lod"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "lod",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out),
             "--alpha", "0.1", "--max-iterations", "5", "--patience", "3"],
        )
        assert result.exit_code == 0, result.output
        rows = storage.read_trace(out / "trace.csv")
        caps = [r["usage_cap_kwh"] for r in rows if r["usage_cap_kwh"] is not None]
        assert all(b < a for a, b in zip(caps, caps[1:]))

    def test_solve_seconds_excludes_reading_inputs(self, workdir, tmp_path, monkeypatch):
        read = storage.read_model_artifact

        def slow_read(path):
            time.sleep(0.2)
            return read(path)

        monkeypatch.setattr(storage, "read_model_artifact", slow_read)
        out = tmp_path / "timed"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solve_seconds"] < 0.2

    def test_missing_model_is_validation_error(self, workdir, tmp_path):
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "lod",
             "--model", str(tmp_path / "nope.json"), "--out-dir", str(tmp_path / "x")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("damage", MALFORMED_ARTIFACTS.values(), ids=MALFORMED_ARTIFACTS)
    def test_malformed_model_is_validation_error(self, workdir, tmp_path, damage):
        doc = json.loads((workdir / "stub_model.json").read_text())
        model = tmp_path / "model.json"
        model.write_text(json.dumps(damage(doc)))
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(model), "--out-dir", str(tmp_path / "x")],
        )
        assert result.exit_code == 2, result.output
        assert "model.json" in result.output

    def test_non_object_config_is_validation_error(self, workdir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text("5")
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path / "x"),
             "--config", str(config)],
        )
        assert result.exit_code == 2, result.output
        assert "expected a JSON object" in result.output

    def test_two_battery_case_rejected_before_solving(self, workdir, tmp_path, monkeypatch):
        day = load_example_day()
        storage.write_case(tmp_path / "two.json", dataclasses.replace(day, bess=day.bess * 2))
        solved = []
        monkeypatch.setattr(cli, "run_traditional", lambda *a, **k: solved.append(a))
        out = tmp_path / "two"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(tmp_path / "two.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "1 generator and 1 battery" in result.output
        assert not solved
        assert not out.exists()

    def test_lod_schedules_two_day_case(self, workdir, tmp_path):
        day = load_example_day()
        two_days = dataclasses.replace(
            day, **{field: np.tile(getattr(day, field), 2) for field in storage.SERIES_FIELDS}
        )
        storage.write_case(tmp_path / "two_days.json", two_days, series_csv="series.csv")
        out = tmp_path / "lod48"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(tmp_path / "two_days.json"), "--mode", "lod",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert storage.read_schedule(out / "schedule.csv")["hour"].tolist() == list(range(48))

    def test_help_shows_library_defaults(self):
        result = runner.invoke(main, ["schedule", "--help"])
        assert result.exit_code == 0, result.output
        text = " ".join(result.output.split())
        defaults = {
            "--salvage-value": EconParams.salvage_value,
            "--soh-eol": EconParams.soh_eol,
            "--linear-rate": EconParams.linear_bdc_rate,
            "--alpha": LodConfig.alpha,
            "--max-iterations": LodConfig.max_iterations,
            "--patience": LodConfig.patience,
        }
        for option, value in defaults.items():
            pattern = rf"{option} [A-Z]+ [^[]*\[default: {re.escape(str(value))}\]"
            assert re.search(pattern, text), option

    @pytest.mark.parametrize("key, value", [
        ("mode", "foo"), ("soh", 0.5), ("alpha", "abc"), ("patience", 2.5),
    ])
    def test_bad_config_value_is_validation_error(
        self, workdir, tmp_path, monkeypatch, key, value
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        solved = []
        for runner_name in ("run_traditional", "run_linear_bdc", "run_lod"):
            monkeypatch.setattr(cli, runner_name, lambda *a, **k: solved.append(a))
        result = runner.invoke(
            main,
            ["schedule", "--case", "example-day", "--mode", "lod",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path / "x"),
             "--config", str(config)],
        )
        assert result.exit_code == 2, result.output
        assert f"config key '{key}'" in result.output
        assert not solved

    def test_engine_config_key_rejected(self, workdir, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"engine": "highs"}))
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path / "x"),
             "--config", str(config)],
        )
        assert result.exit_code == 2
        assert "unknown config keys: ['engine']" in result.output

    def test_negative_startup_cost_is_validation_error(self, workdir, tmp_path):
        doc = json.loads((workdir / "case.json").read_text())
        doc["generators"][0]["cost_startup"] = -5.0
        (tmp_path / "case.json").write_text(json.dumps(doc))
        (tmp_path / "series.csv").write_bytes((workdir / "series.csv").read_bytes())
        out = tmp_path / "x"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(tmp_path / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "cost_startup must be >= 0" in result.output
        assert not out.exists()

    def test_example_day_case_loads(self, workdir, tmp_path):
        out = tmp_path / "ex"
        result = runner.invoke(
            main,
            ["schedule", "--case", "example-day", "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert (out / "schedule.csv").exists()

    def test_infeasible_case_writes_report_file(self, workdir, tmp_path):
        # An 800 kW tie-line leaves hour 19 short of its reserve.
        case = dataclasses.replace(load_example_day(), p_grid_max=800.0)
        storage.write_case(tmp_path / "narrow.json", case, series_csv="series.csv")
        out = tmp_path / "narrow"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(tmp_path / "narrow.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 1, result.output
        doc = json.loads((out / "infeasible.json").read_text())
        assert doc["mode"] == "traditional"
        reserve = [line for line in doc["report"] if line.startswith("reserve:")]
        assert len(reserve) == 1 and "interval 19 " in reserve[0]
        assert f"infeasible: {reserve[0]}" in result.output
        assert not (out / "schedule.csv").exists()

    def test_lod_ending_infeasible_writes_the_best_iteration(self, workdir, tmp_path):
        # At 900 kW hour 19 needs 68 kWh of discharge, about 152 kWh of
        # throughput with its recharge; at alpha 0.3 pass 6 caps throughput
        # at 128 kWh and is infeasible, after six solved passes.
        case = dataclasses.replace(load_example_day(), p_grid_max=900.0)
        storage.write_case(tmp_path / "c900.json", case, series_csv="series.csv")
        out = tmp_path / "lod"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(tmp_path / "c900.json"), "--mode", "lod",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out),
             "--alpha", "0.3"],
        )
        assert result.exit_code == 0, result.output
        summary = json.loads((out / "summary.json").read_text())
        assert summary["termination_reason"] == "infeasible"
        assert summary["iterations"] == len(storage.read_trace(out / "trace.csv")) == 6
        best = storage.read_schedule(out / "schedule.csv")
        assert best["p_disc"].sum() + best["p_char"].sum() == pytest.approx(
            summary["bess_throughput_kwh"]
        )
        doc = json.loads((out / "infeasible.json").read_text())
        assert doc["mode"] == "lod"
        assert any(line.startswith("reserve: interval 19 ") for line in doc["report"])

    @pytest.mark.parametrize("soh", ["0.5", "0.8", "1.5"])
    def test_soh_outside_range_is_validation_error(self, workdir, tmp_path, soh):
        out = tmp_path / "x"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out),
             "--soh", soh],
        )
        assert result.exit_code == 2
        assert "Invalid value for '--soh'" in result.output
        assert not out.exists()


class TestReport:
    def test_merges_three_schedules(self, workdir, tmp_path):
        sched_dirs = {}
        for mode in ("traditional", "linear-bdc"):
            out = tmp_path / mode
            result = runner.invoke(
                main,
                ["schedule", "--case", str(workdir / "case.json"), "--mode", mode,
                 "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
            )
            assert result.exit_code == 0, result.output
            sched_dirs[mode] = out / "schedule.csv"
        lod_out = tmp_path / "lod"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "lod",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(lod_out),
             "--alpha", "0.1", "--max-iterations", "4", "--patience", "3"],
        )
        assert result.exit_code == 0, result.output

        report_out = tmp_path / "report"
        result = runner.invoke(
            main,
            ["report", "--traditional", str(sched_dirs["traditional"]),
             "--linear", str(sched_dirs["linear-bdc"]),
             "--lod", str(lod_out / "schedule.csv"),
             "--trace", str(lod_out / "trace.csv"), "--out-dir", str(report_out)],
        )
        assert result.exit_code == 0, result.output
        cmp_lines = (report_out / "bess_comparison.csv").read_text().splitlines()
        assert len(cmp_lines) == 25
        series = (report_out / "cost_vs_iteration.csv").read_text().splitlines()
        assert series[0] == "iteration,operation_cost,degradation_cost,total_cost"

    @pytest.mark.parametrize("cell", ["abc", "nan", "inf"])
    def test_bad_trace_number_is_validation_error(self, workdir, tmp_path, cell):
        sched = tmp_path / "trad"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(sched)],
        )
        assert result.exit_code == 0, result.output
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "iteration,usage_cap_kwh,throughput_kwh,operation_cost,degradation_cost,total_cost\n"
            "0,,100.0,50.0,5.0,55.0\n"
            f"1,90.0,90.0,51.0,{cell},55.5\n"
        )
        schedule = str(sched / "schedule.csv")
        report_out = tmp_path / "report"
        result = runner.invoke(
            main,
            ["report", "--traditional", schedule, "--linear", schedule, "--lod", schedule,
             "--trace", str(trace), "--out-dir", str(report_out)],
        )
        assert result.exit_code == 2
        assert "row 2" in result.output
        assert not (report_out / "cost_vs_iteration.csv").exists()

    def test_missing_input_named(self, tmp_path):
        result = runner.invoke(
            main,
            ["report", "--traditional", str(tmp_path / "a.csv"),
             "--linear", str(tmp_path / "b.csv"), "--lod", str(tmp_path / "c.csv"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2
        assert "a.csv" in result.output
