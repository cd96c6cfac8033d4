"""End-to-end tests of the command-line interface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from degradesched import cli, net, quantifier, storage
from degradesched.aging import DATASET_COLUMNS
from degradesched.cli import main
from degradesched.exampleday import load_example_day
from degradesched.lod import EconParams, LodConfig
from test_lod import constant_model
from test_milp import day_case
from test_quantifier import see_cpus
from test_storage import MALFORMED_ARTIFACTS

runner = CliRunner()

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared inputs: a tiny dataset, a 24h case file, a model artifact and
    that case's traditional schedule."""
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
    result = runner.invoke(
        main,
        ["schedule", "--case", str(root / "case.json"), "--mode", "traditional",
         "--model", str(root / "stub_model.json"), "--out-dir", str(root / "sched")],
    )
    assert result.exit_code == 0, result.output
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

    @pytest.mark.parametrize("text, message", [
        ('[{"soc_high": 0.8, "dod": 0.5, "temp_amb": 25, "c_rate": true}]',
         "entry 0: c_rate must be a number: True"),
        ('[{"soc_high": 0.8, "dod": 0.5, "temp_amb": 25, "c_rate": 1},'
         ' {"soc_high": "abc", "dod": 0.5, "temp_amb": 25, "c_rate": 1}]',
         "entry 1: soc_high must be a number: 'abc'"),
        ("{bad", "not valid JSON"),
        ('{"a": 1}', "expected a JSON array, got dict"),
        ("[1]", "entry 0: expected an object, got int"),
        ('[{"soc_high": 0.8, "dod": 0.5, "temp_amb": 25, "c_rate": 1, "x": 1}]',
         "entry 0: CycleConditions.__init__() got an unexpected keyword argument 'x'"),
        ('[{"soc_high": 0.8, "dod": 0.5, "temp_amb": 25, "c_rate": 1, "soh": 0.9}]',
         "entry 0: soh must be 1.0, where aging tests start, got 0.9"),
    ], ids=["bool_value", "string_value", "not_json", "object", "number_entry", "unknown_key",
            "aged_start"])
    def test_bad_grid_names_file_and_entry(self, tmp_path, text, message):
        (tmp_path / "grid.json").write_text(text)
        result = runner.invoke(
            main,
            ["simulate-aging", "--grid", str(tmp_path / "grid.json"),
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2
        assert f"grid.json: {message}" in result.output
        assert not (tmp_path / "x.csv").exists()

    def test_creates_the_output_directory(self, workdir, tmp_path):
        out = tmp_path / "new" / "aging.csv"
        result = runner.invoke(
            main,
            ["simulate-aging", "--grid", str(workdir / "grid.json"), "--out", str(out),
             "--noise", "0.02", "--seed", "7"],
        )
        assert result.exit_code == 0, result.output
        assert out.read_text() == (workdir / "aging.csv").read_text()

    def test_unusable_out_rejected_before_generating(self, tmp_path, monkeypatch):
        generated = []
        monkeypatch.setattr(cli, "generate_dataset",
                            lambda *args, **kwargs: generated.append(args))
        (tmp_path / "adir").mkdir()
        result = runner.invoke(main, ["simulate-aging", "--out", str(tmp_path / "adir")])
        assert result.exit_code == 2, result.output
        assert "Is a directory" in result.output and str(tmp_path / "adir") in result.output
        assert generated == []
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]

    def test_unusable_sidecar_rejected_before_generating(self, tmp_path, monkeypatch):
        generated = []
        monkeypatch.setattr(cli, "generate_dataset",
                            lambda *args, **kwargs: generated.append(args))
        (tmp_path / "d.csv.meta.json").mkdir()
        result = runner.invoke(main, ["simulate-aging", "--out", str(tmp_path / "d.csv")])
        assert result.exit_code == 2, result.output
        assert "Is a directory" in result.output and "d.csv.meta.json" in result.output
        assert generated == []
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv.meta.json"]

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

    def test_environment_seed_is_the_default(self, workdir, tmp_path):
        def simulate(name, env_seed, *flags):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["simulate-aging", "--grid", str(workdir / "grid.json"),
                 "--out", str(out), "--noise", "0.02", *flags],
                env={"DEGRADESCHED_SEED": env_seed},
            )
            assert result.exit_code == 0, result.output
            return out.read_text()

        seven = (workdir / "aging.csv").read_text()
        assert simulate("env7.csv", "7") == seven
        seed0 = simulate("seed0.csv", None, "--seed", "0")
        assert seed0 != seven
        assert simulate("env7_seed0.csv", "7", "--seed", "0") == seed0


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

    def test_creates_the_artifact_directory_before_training(self, workdir, tmp_path):
        out = tmp_path / "new" / "model.json"
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"), "--out", str(out),
             "--report-dir", str(tmp_path / "reports"), "--ubdf", "1", "--bdp", "3",
             "--epochs", "2", "--with-benchmarks"],
        )
        assert result.exit_code == 0, result.output
        assert storage.read_model_artifact(out).bdp_id == 3
        assert (tmp_path / "reports" / "performance_comparison.csv").exists()

    def test_unusable_out_rejected_before_training(self, workdir, tmp_path):
        (tmp_path / "outdir").mkdir()
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"), "--out", str(tmp_path / "outdir"),
             "--ubdf", "1", "--bdp", "3", "--epochs", "2", "--with-benchmarks",
             "--report-dir", str(tmp_path / "rep")],
        )
        assert result.exit_code == 2, result.output
        assert "Is a directory" in result.output and str(tmp_path / "outdir") in result.output
        assert list((tmp_path / "rep").iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "rep"]

    def test_unusable_report_table_rejected_before_training(
        self, workdir, tmp_path, monkeypatch
    ):
        fitted = []
        monkeypatch.setattr(quantifier, "fit_networks", lambda *a: fitted.append(a))
        (tmp_path / "R" / "composed_pairs.csv").mkdir(parents=True)
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"),
             "--out", str(tmp_path / "m" / "model.json"), "--variant-search",
             "--report-dir", str(tmp_path / "R")],
        )
        assert result.exit_code == 2, result.output
        assert "Is a directory" in result.output and "composed_pairs.csv" in result.output
        assert not fitted
        assert [p.name for p in (tmp_path / "R").iterdir()] == ["composed_pairs.csv"]
        assert list((tmp_path / "m").iterdir()) == []

    def test_an_existing_out_keeps_its_bytes_when_training_fails(
        self, workdir, tmp_path, monkeypatch
    ):
        # The check before training opens an existing file without truncating it.
        def failing(*args):
            raise RuntimeError("training diverged")

        monkeypatch.setattr(cli, "select_best_combination", failing)
        out = tmp_path / "model.json"
        out.write_text("old")
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"), "--out", str(out),
             "--ubdf", "1", "--bdp", "3"],
        )
        assert result.exit_code == 1, result.output
        assert out.read_text() == "old"

    def test_worker_count_changes_no_output(self, workdir, tmp_path, monkeypatch):
        # One CPU trains the stacks in this process, two in worker processes.
        outputs = {}
        for n_cpus in (1, 2):
            see_cpus(monkeypatch, n_cpus)
            out = tmp_path / str(n_cpus)
            result = runner.invoke(
                main,
                ["train", "--dataset", str(workdir / "aging.csv"),
                 "--out", str(out / "model.json"), "--variant-search", "--with-benchmarks",
                 "--epochs", "3", "--seed", "0"],
            )
            assert result.exit_code == 0, result.output
            outputs[n_cpus] = {name: (out / name).read_bytes() for name in (
                "model.json", "ubdf_models.csv", "bdp_models.csv", "composed_pairs.csv",
                "performance_comparison.csv")}
        assert outputs[1] == outputs[2]

    def test_split_is_drawn_once_per_run(self, workdir, tmp_path, monkeypatch):
        # Every network of one run, benchmarks included, shares one split.
        calls = []

        def counting(*args):
            calls.append(args)
            return split_indices(*args)

        split_indices = net.split_indices
        monkeypatch.setattr(net, "split_indices", counting)
        see_cpus(monkeypatch, 1)  # every call in this process
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"),
             "--out", str(tmp_path / "model.json"), "--variant-search", "--with-benchmarks",
             "--epochs", "1"],
        )
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_comparison_scores_the_selected_pair_as_the_search_did(self, workdir, tmp_path):
        # Both tables score the composed pair on the run's validation rows.
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"),
             "--out", str(tmp_path / "model.json"), "--variant-search", "--with-benchmarks",
             "--epochs", "2", "--seed", "4"],
        )
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "model.json").read_text())
        selected = f"{doc['ubdf_variant']}-{doc['bdp_variant']}"

        def rows(name):
            lines = (tmp_path / f"{name}.csv").read_text().splitlines()
            return {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}

        assert rows("performance_comparison")["hdl-bdq"] == rows("composed_pairs")[selected]

    def test_comparison_row_is_the_saved_pair_recomposed(self, workdir, tmp_path):
        # Recompose the artifact's pair on the run's validation rows,
        # independently of the search that the row is read from.
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"),
             "--out", str(tmp_path / "model.json"), "--ubdf", "6", "--bdp", "10",
             "--with-benchmarks", "--epochs", "3", "--seed", "2"],
        )
        assert result.exit_code == 0, result.output
        dataset = storage.read_dataset(workdir / "aging.csv")
        model = storage.read_model_artifact(tmp_path / "model.json")
        _, val = quantifier.shared_split(dataset, net.TrainConfig(seed=2))

        def columns(names):
            return dataset.data[np.ix_(val, [DATASET_COLUMNS.index(n) for n in names])]

        scores = model.bdp.predict(
            quantifier.stage_two_inputs(model, columns(quantifier.BDF_FEATURES)))
        want = quantifier.accuracy_row(scores, columns(quantifier.DEGRADATION), "hdl-bdq")
        header, *lines = (tmp_path / "performance_comparison.csv").read_text().splitlines()
        [cells] = [line.split(",") for line in lines if line.startswith("hdl-bdq,")]
        got = dict(zip(header.split(","), [cells[0], *map(float, cells[1:])]))
        assert got == want

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

    def test_one_row_dataset_is_validation_error(self, workdir, tmp_path):
        lines = (workdir / "aging.csv").read_text().splitlines()
        (tmp_path / "one.csv").write_text("\n".join(lines[:2]) + "\n")
        result = runner.invoke(
            main,
            ["train", "--dataset", str(tmp_path / "one.csv"),
             "--out", str(tmp_path / "m.json"), "--ubdf", "1", "--bdp", "3"],
        )
        assert result.exit_code == 2, result.output
        assert "at least 2" in result.output and "got 1" in result.output

    @pytest.mark.parametrize("flags, message", [
        (["--lr", "-1"], "initial_lr"),
        (["--out", "{tmp}"], "Is a directory"),
    ], ids=["bad_lr", "out_is_a_directory"])
    def test_flags_and_outputs_checked_before_reading_dataset(
        self, workdir, tmp_path, monkeypatch, flags, message
    ):
        def unread(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli.storage, "read_dataset", unread)
        result = runner.invoke(
            main,
            ["train", "--dataset", str(workdir / "aging.csv"), "--out", str(tmp_path / "m.json"),
             "--ubdf", "1", "--bdp", "3", *(f.format(tmp=tmp_path) for f in flags)],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_constant_feature_is_validation_error(self, tmp_path):
        grid = [{"soc_high": 0.8, "dod": 0.5, "temp_amb": 25, "c_rate": 1}]
        (tmp_path / "grid.json").write_text(json.dumps(grid))
        result = runner.invoke(
            main,
            ["simulate-aging", "--grid", str(tmp_path / "grid.json"),
             "--out", str(tmp_path / "one.csv")],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(
            main,
            ["train", "--dataset", str(tmp_path / "one.csv"),
             "--out", str(tmp_path / "m.json"), "--ubdf", "1", "--bdp", "3"],
        )
        assert result.exit_code == 2, result.output
        assert "features soc, dod, temp" in result.output
        assert not (tmp_path / "m.json").exists()

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


# A case-document value out of range, or not a finite number (NaN passes
# every range check): where it goes, its key, and the error that names it.
BAD_CASE_VALUES = [
    ("generator", "cost_startup", -5.0, "cost_startup must be >= 0"),
    ("generator", "cost_energy", float("nan"), "cost_energy must be a finite number"),
    ("generator", "cost_energy", "abc", "cost_energy must be a finite number"),
    ("generator", "ramp", float("nan"), "ramp must be a finite number"),
    ("generator", "cost_no_load", float("nan"), "cost_no_load must be a finite number"),
    ("generator", "cost_startup", float("nan"), "cost_startup must be a finite number"),
    ("generator", "initially_on", "yes", "initially_on must be true or false"),
    ("generator", "initially_on", 2, "initially_on must be true or false"),
    ("bess", "e_max", float("inf"), "e_max must be a finite number"),
    ("tie_line", "p_grid_max", float("nan"), "p_grid_max must be a finite number"),
    ("tie_line", "p_grid_max", "abc", "p_grid_max must be a finite number"),
    ("case", "reserve_fraction", float("nan"), "reserve_fraction must be a finite number"),
    ("case", "dt_hours", float("nan"), "dt_hours must be a finite number"),
]


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
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_cost"] == pytest.approx(
            summary["operation_cost"] + summary["degradation_cost"]
        )
        (row,) = storage.read_trace(out / "trace.csv")
        assert row == {
            "iteration": 0, "usage_cap_kwh": None,
            "throughput_kwh": summary["bess_throughput_kwh"],
            "operation_cost": summary["operation_cost"],
            "degradation_cost": summary["degradation_cost"],
            "total_cost": summary["total_cost"],
        }
        assert (summary["iterations"], summary["best_index"]) == (1, 0)
        assert summary["termination_reason"] == "single_solve"

    def test_every_mode_writes_the_same_record(self, workdir, tmp_path):
        files, keys = {}, {}
        for mode in ("traditional", "linear-bdc", "lod"):
            out = tmp_path / mode
            result = runner.invoke(
                main,
                ["schedule", "--case", str(workdir / "case.json"), "--mode", mode,
                 "--model", str(workdir / "stub_model.json"), "--out-dir", str(out),
                 "--max-iterations", "3"],
            )
            assert result.exit_code == 0, result.output
            files[mode] = sorted(p.name for p in out.iterdir())
            keys[mode] = sorted(json.loads((out / "summary.json").read_text()))
        assert files["traditional"] == files["linear-bdc"] == files["lod"] == [
            "manifest.json", "schedule.csv", "summary.json", "trace.csv"]
        assert keys["traditional"] == keys["linear-bdc"] == keys["lod"]

    def test_summary_counts_milp_solves(self, workdir, tmp_path):
        counts = {}
        for mode in ("traditional", "linear-bdc", "lod"):
            result = runner.invoke(
                main,
                ["schedule", "--case", "example-day", "--mode", mode,
                 "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path / mode)],
            )
            assert result.exit_code == 0, result.output
            summary = json.loads((tmp_path / mode / "summary.json").read_text())
            counts[mode] = tuple(summary[key] for key in (
                "milp_solves", "bound_proofs", "lp_solves", "iterations"))
        assert counts["traditional"] == counts["linear-bdc"] == (1, 0, 0, 1)
        solves, proofs, lp_solves, iterations = counts["lod"]
        # Every pass solves a MILP or takes a commitment LP that proves
        # itself or that the relaxation proves.
        assert 1 <= solves < iterations
        assert solves + proofs == iterations
        # Basis lines and self-proving LPs leave fewer LP runs than proofs.
        assert 1 <= lp_solves < proofs

    def test_lod_pass_0_alone_is_the_traditional_schedule(self, workdir, tmp_path):
        for mode, flags in (("traditional", []), ("lod", ["--max-iterations", "0"])):
            result = runner.invoke(
                main,
                ["schedule", "--case", "example-day", "--mode", mode,
                 "--model", str(workdir / "stub_model.json"),
                 "--out-dir", str(tmp_path / mode), *flags],
            )
            assert result.exit_code == 0, result.output
        schedules = [(tmp_path / mode / "schedule.csv").read_bytes()
                     for mode in ("traditional", "lod")]
        assert schedules[0] == schedules[1]
        assert len(storage.read_trace(tmp_path / "lod" / "trace.csv")) == 1

    def test_unusable_output_rejected_before_solving(self, workdir, tmp_path, monkeypatch):
        solved = []
        monkeypatch.setattr(cli, "run_lod", lambda *a, **k: solved.append(a))
        out = tmp_path / "S"
        (out / "schedule.csv").mkdir(parents=True)
        result = runner.invoke(
            main,
            ["schedule", "--case", "example-day", "--mode", "lod",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert "Is a directory" in result.output
        assert not solved
        assert [p.name for p in out.iterdir()] == ["schedule.csv"]

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

    def test_lod_prints_a_range_warning_once(self, workdir, tmp_path):
        """Under Python's default filter a warning shows once per location,
        however many passes raise it. A fresh interpreter has that filter;
        this one has pyproject.toml's, which turns every warning into an error."""
        narrow = constant_model(2e-4)
        n_in = narrow.bdp.x_norm.lo.size
        narrow.bdp.x_norm = net.Normalizer(np.full(n_in, -2.0), np.full(n_in, -1.0),
                                            np.ones(n_in, bool))
        storage.write_model_artifact(tmp_path / "narrow.json", narrow)
        out = tmp_path / "lod"
        done = run_fresh(
            "import sys\nfrom degradesched.cli import main\nmain(sys.argv[1:])\n",
            "schedule", "--case", str(workdir / "case.json"), "--mode", "lod",
            "--model", str(tmp_path / "narrow.json"), "--out-dir", str(out),
            "--alpha", "0.1", "--max-iterations", "5", "--patience", "3",
        )
        assert done.returncode == 0, done.stderr
        assert len(storage.read_trace(out / "trace.csv")) > 2
        assert done.stderr.count("FeatureRangeWarning") == 1, done.stderr

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

    @pytest.mark.parametrize("mode", ["traditional", "lod"])
    def test_manifest_times_each_phase(self, workdir, tmp_path, mode):
        out = tmp_path / mode
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", mode,
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out),
             "--max-iterations", "3"],
        )
        assert result.exit_code == 0, result.output
        timings = json.loads((out / "manifest.json").read_text())["timings"]
        phases = ("read_seconds", "solve_seconds", "write_seconds")
        assert set(timings) == {"wall_seconds", *phases}
        assert all(timings[k] >= 0 for k in phases)
        assert sum(timings[k] for k in phases) <= timings["wall_seconds"]
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solve_seconds"] == timings["solve_seconds"]

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
        ("mode", "foo"), ("soh", 0.5), ("alpha", "abc"), ("patience", 2.5), ("case", None),
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

    @pytest.mark.parametrize("where, key, value, message", BAD_CASE_VALUES,
                             ids=[f"{key}={value}" for _, key, value, _ in BAD_CASE_VALUES])
    def test_bad_case_value_is_validation_error(
        self, workdir, tmp_path, where, key, value, message
    ):
        doc = json.loads((workdir / "case.json").read_text())
        target = {"generator": doc["generators"][0], "bess": doc["bess"][0],
                  "tie_line": doc["tie_line"], "case": doc}
        target[where][key] = value
        (tmp_path / "case.json").write_text(json.dumps(doc))
        (tmp_path / "series.csv").write_bytes((workdir / "series.csv").read_bytes())
        out = tmp_path / "x"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(tmp_path / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output
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

    def test_feasible_run_removes_an_earlier_report(self, workdir, tmp_path):
        case = dataclasses.replace(load_example_day(), p_grid_max=800.0)
        storage.write_case(tmp_path / "narrow.json", case)
        out = tmp_path / "o"
        for case_path, code in ((tmp_path / "narrow.json", 1), (workdir / "case.json", 0)):
            result = runner.invoke(
                main,
                ["schedule", "--case", str(case_path), "--mode", "lod",
                 "--model", str(workdir / "stub_model.json"), "--out-dir", str(out),
                 "--max-iterations", "2"],
            )
            assert result.exit_code == code, result.output
            assert (out / "infeasible.json").exists() == (code == 1)

    def test_infeasible_run_removes_an_earlier_record(self, workdir, tmp_path):
        case = dataclasses.replace(load_example_day(), p_grid_max=800.0)
        storage.write_case(tmp_path / "narrow.json", case)
        out = tmp_path / "o"
        record = ("schedule.csv", "trace.csv", "summary.json", "manifest.json")
        for case_arg, code in (("example-day", 0), (str(tmp_path / "narrow.json"), 1)):
            result = runner.invoke(
                main,
                ["schedule", "--case", case_arg, "--mode", "traditional",
                 "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
            )
            assert result.exit_code == code, result.output
            assert [(out / name).exists() for name in record] == [code == 0] * 4
        assert sorted(p.name for p in out.iterdir()) == ["infeasible.json"]

    def test_manifest_digests_the_series_csv(self, workdir, tmp_path):
        case = day_case()
        storage.write_case(tmp_path / "case.json", case, series_csv="series.csv")
        digests = []
        for load in (case.load, case.load + 1.0):
            storage.write_series_csv(tmp_path / "series.csv", dataclasses.replace(case, load=load))
            result = runner.invoke(
                main,
                ["schedule", "--case", str(tmp_path / "case.json"), "--mode", "traditional",
                 "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path / "o")],
            )
            assert result.exit_code == 0, result.output
            manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
            digests.append(manifest["input_digests"])
        series = str(tmp_path / "series.csv")
        assert set(digests[0]) == {
            str(tmp_path / "case.json"), series, str(workdir / "stub_model.json")}
        assert digests[0][series] != digests[1][series]

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


class TestNonFiniteFlags:
    """Every numeric flag is a finite number: NaN passes every range check
    and would reach the solver or the outputs."""

    @pytest.mark.parametrize("argv, name", [
        (["simulate-aging", "--noise", "nan"], "noise_sigma"),
        (["train", "--ubdf", "3", "--bdp", "4", "--epochs", "2", "--lr", "nan"], "initial_lr"),
        (["schedule", "--mode", "linear-bdc", "--linear-rate", "nan"], "linear_bdc_rate"),
        (["schedule", "--mode", "traditional", "--soh", "nan"], "--soh"),
        (["schedule", "--mode", "traditional", "--capital-cost", "inf"], "capital_cost"),
    ], ids=["noise", "lr", "linear_rate", "soh", "capital_cost"])
    def test_flag_is_validation_error(self, workdir, tmp_path, argv, name):
        out = tmp_path / "out"
        files = {
            "simulate-aging": ["--grid", str(workdir / "grid.json"), "--out", str(out)],
            "train": ["--dataset", str(workdir / "aging.csv"), "--out", str(out)],
            "schedule": ["--case", str(workdir / "case.json"),
                         "--model", str(workdir / "stub_model.json"), "--out-dir", str(out)],
        }
        result = runner.invoke(main, [*argv, *files[argv[0]]])
        assert result.exit_code == 2, result.output
        assert name in result.output
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

    @pytest.mark.parametrize("header", [storage.SCHEDULE_HEADER, storage.TRACE_HEADER],
                             ids=["schedule", "trace"])
    def test_header_only_input_is_validation_error(self, workdir, tmp_path, header):
        sched = tmp_path / "trad"
        result = runner.invoke(
            main,
            ["schedule", "--case", str(workdir / "case.json"), "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(sched)],
        )
        assert result.exit_code == 0, result.output
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(header) + "\n")
        trace = tmp_path / "trace.csv"
        trace.write_text(",".join(storage.TRACE_HEADER) + "\n0,,100.0,50.0,5.0,55.0\n")
        schedule = str(sched / "schedule.csv")
        lod = str(empty) if header == storage.SCHEDULE_HEADER else schedule
        trace_arg = str(empty) if header == storage.TRACE_HEADER else str(trace)
        report_out = tmp_path / "report"
        result = runner.invoke(
            main,
            ["report", "--traditional", schedule, "--linear", schedule, "--lod", lod,
             "--trace", trace_arg, "--out-dir", str(report_out)],
        )
        assert result.exit_code == 2
        assert "empty.csv: table has no data rows" in result.output
        assert not (report_out / "cost_vs_iteration.csv").exists()

    def test_mismatched_horizons_name_each_schedule(self, workdir, tmp_path):
        schedule = workdir / "sched" / "schedule.csv"
        short = tmp_path / "short.csv"
        short.write_text("\n".join(schedule.read_text().splitlines()[:3]) + "\n")
        report_out = tmp_path / "report"
        result = runner.invoke(
            main,
            ["report", "--traditional", str(schedule), "--linear", str(short),
             "--lod", str(schedule), "--out-dir", str(report_out)],
        )
        assert result.exit_code == 2
        assert (f"schedules have mismatched horizons: {schedule} has 24 rows, "
                f"{short} has 2 rows, {schedule} has 24 rows") in result.output
        assert not report_out.exists()

    def test_missing_input_named(self, tmp_path):
        result = runner.invoke(
            main,
            ["report", "--traditional", str(tmp_path / "a.csv"),
             "--linear", str(tmp_path / "b.csv"), "--lod", str(tmp_path / "c.csv"),
             "--out-dir", str(tmp_path / "out")],
        )
        assert result.exit_code == 2
        assert "a.csv" in result.output
        assert not (tmp_path / "out").exists()


# Each command given a path it cannot use: a directory where a file goes, a
# file where a directory goes, or a file that is not text.
BAD_PATHS = {
    "grid_dir": ["simulate-aging", "--grid", "{dir}", "--out", "{tmp}/x.csv"],
    "config_dir": ["simulate-aging", "--out", "{tmp}/x.csv", "--config", "{dir}"],
    "dataset_dir": ["train", "--dataset", "{dir}", "--out", "{tmp}/m.json",
                    "--ubdf", "1", "--bdp", "3"],
    "case_dir": ["schedule", "--case", "{dir}", "--mode", "lod", "--model", "{model}",
                 "--out-dir", "{tmp}/o"],
    "model_dir": ["schedule", "--case", "example-day", "--mode", "lod", "--model", "{dir}",
                  "--out-dir", "{tmp}/o"],
    "schedule_out_file": ["schedule", "--case", "example-day", "--mode", "lod",
                          "--model", "{model}", "--out-dir", "{file}"],
    "report_out_file": ["report", "--traditional", "{schedule}", "--linear", "{schedule}",
                        "--lod", "{schedule}", "--out-dir", "{file}"],
    "report_binary_input": ["report", "--traditional", "{binary}", "--linear", "{binary}",
                            "--lod", "{binary}", "--out-dir", "{tmp}/r"],
}


class TestExitCodes:
    @pytest.mark.parametrize("argv", BAD_PATHS.values(), ids=BAD_PATHS)
    def test_unusable_path_is_validation_error(self, workdir, tmp_path, argv):
        paths = {"dir": tmp_path / "adir", "file": tmp_path / "afile",
                 "binary": tmp_path / "binary.csv"}
        paths["dir"].mkdir()
        paths["file"].write_text("")
        paths["binary"].write_bytes(b"\xff\xfe\x00\x01\n")
        args = [a.format(tmp=tmp_path, model=workdir / "stub_model.json",
                         schedule=workdir / "sched" / "schedule.csv", **paths)
                for a in argv]
        named = next(str(path) for key, path in paths.items() if f"{{{key}}}" in argv)
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")
        assert named in result.output

    def test_runtime_failure_exits_1(self, workdir, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise RuntimeError("solver failed: x")

        monkeypatch.setattr(cli, "run_traditional", failing)
        result = runner.invoke(
            main,
            ["schedule", "--case", "example-day", "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error: solver failed: x" in result.output

    def test_a_bug_keeps_its_traceback(self, workdir, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("x")

        monkeypatch.setattr(cli, "run_traditional", broken)
        result = runner.invoke(
            main,
            ["schedule", "--case", "example-day", "--mode", "traditional",
             "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path / "o")],
        )
        assert isinstance(result.exception, KeyError)


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a new interpreter that imports the package from src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


class TestColdStart:
    """A fresh interpreter, because pytest has imported every module of the
    package already, and loads scipy.sparse itself to resolve the
    filterwarnings entries of pyproject.toml. Commands that never solve or
    train load neither scipy nor the process pool that training uses."""

    @pytest.mark.parametrize("module", [
        "aging", "net", "quantifier", "milp", "lod", "storage", "cli", "exampleday",
    ])
    def test_each_module_imports_on_its_own(self, module):
        done = run_fresh(f"import degradesched.{module}")
        assert done.returncode == 0, done.stderr

    def test_import_and_help_leave_scipy_unloaded(self):
        done = run_fresh(
            "import sys, degradesched, degradesched.cli\n"
            "try:\n"
            "    degradesched.cli.main(['--help'])\n"
            "except SystemExit:\n"
            "    pass\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))\n"
        )
        assert done.returncode == 0, done.stderr
        assert "Usage:" in done.stdout
        assert done.stdout.splitlines()[-1] == "[]"

    def test_schedule_loads_the_solver_itself(self, workdir, tmp_path):
        done = run_fresh(
            "import sys\n"
            "from degradesched.cli import main\n"
            "assert 'scipy' not in sys.modules, 'scipy loaded before the first solve'\n"
            "main(sys.argv[1:])\n",
            "schedule", "--case", "example-day", "--mode", "traditional",
            "--model", str(workdir / "stub_model.json"), "--out-dir", str(tmp_path),
        )
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "schedule.csv").exists()
