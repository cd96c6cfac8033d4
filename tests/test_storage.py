"""Tests for file formats and persistence."""

import json
from pathlib import Path

import numpy as np
import pytest

from degradesched import aging, net, storage
from degradesched.milp import build_model, solve
from degradesched.storage import FileFormatError
from test_lod import arbitrage_case, constant_model
from test_milp import day_case


class NumericTableChecks:
    """Rejections every numeric CSV format read through the shared table reader
    must make. A subclass sets `header` and `read(path)` for its format."""

    def table(self, tmp_path, bad_row):
        """A file of the format: one good row, then bad_row(good cells)."""
        good = ["1.0"] * len(self.header)
        lines = [",".join(self.header), ",".join(good), ",".join(bad_row(good))]
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FileFormatError, match="header"):
            self.read(path)

    def test_wrong_column_count_rejected(self, tmp_path):
        path = self.table(tmp_path, lambda good: good[:3])
        with pytest.raises(FileFormatError, match="row 2 has 3 columns"):
            self.read(path)

    def test_non_finite_rejected(self, tmp_path):
        for text in ("nan", "inf"):
            path = self.table(tmp_path, lambda good: good[:2] + [text] + good[3:])
            with pytest.raises(FileFormatError, match=f"row 2: non-finite value '{text}'"):
                self.read(path)

    def test_non_numeric_rejected(self, tmp_path):
        for text in ("abc", ""):
            path = self.table(tmp_path, lambda good: good[:2] + [text] + good[3:])
            with pytest.raises(FileFormatError, match=f"row 2: not a number: '{text}'"):
                self.read(path)

    @pytest.mark.parametrize("bad_row, message", [
        (lambda good: good[:3], "row 5 has 3 columns"),
        (lambda good: good[:2] + ["inf"] + good[3:], "row 5: non-finite value 'inf'"),
        (lambda good: good[:2] + ["abc"] + good[3:], "row 5: not a number: 'abc'"),
    ], ids=["width", "non_finite", "non_numeric"])
    def test_rows_numbered_across_chunks(self, tmp_path, monkeypatch, bad_row, message):
        # Two rows per chunk: row 5 is the first row of the third chunk.
        monkeypatch.setattr(storage, "READ_CHUNK_ROWS", 2)
        good = ",".join(["1.0"] * len(self.header))
        bad = ",".join(bad_row(["1.0"] * len(self.header)))
        path = tmp_path / "table.csv"
        path.write_text("\n".join([",".join(self.header), *[good] * 4, bad]) + "\n")
        with pytest.raises(FileFormatError, match=message):
            self.read(path)


@pytest.fixture(scope="module")
def small_dataset():
    return aging.generate_dataset(aging.default_grid(n_groups=2), noise_sigma=0.01, seed=4)


class TestDatasetFiles(NumericTableChecks):
    header = aging.DATASET_COLUMNS
    read = staticmethod(storage.read_dataset)

    def test_round_trip(self, tmp_path, small_dataset):
        path = storage.write_dataset(tmp_path / "aging.csv", small_dataset)
        back = storage.read_dataset(path)
        assert np.array_equal(back.to_array(), small_dataset.to_array())
        assert back.meta["row_count"] == len(small_dataset)

    def test_round_trip_in_uneven_chunks(self, tmp_path, small_dataset, monkeypatch):
        monkeypatch.setattr(storage, "READ_CHUNK_ROWS", 7)
        assert len(small_dataset) % 7
        path = storage.write_dataset(tmp_path / "aging.csv", small_dataset)
        assert np.array_equal(storage.read_dataset(path).to_array(), small_dataset.to_array())

    def test_meta_sidecar(self, tmp_path, small_dataset):
        storage.write_dataset(tmp_path / "aging.csv", small_dataset, manifest="m.json")
        meta = json.loads((tmp_path / "aging.csv.meta.json").read_text())
        assert meta["noise_sigma"] == 0.01
        assert meta["seed"] == 4
        assert meta["manifest"] == "m.json"

    def test_header_is_pinned(self, tmp_path, small_dataset):
        path = storage.write_dataset(tmp_path / "aging.csv", small_dataset)
        first = path.read_text().splitlines()[0]
        assert first == "soc,dod,temp,c_rate,soh,it,ir,elcn,degradation"



# Ways to break a model artifact document that a reader must reject.
MALFORMED_ARTIFACTS = {
    "missing_variant": lambda doc: {k: v for k, v in doc.items() if k != "ubdf_variant"},
    "unknown_variant": lambda doc: {**doc, "ubdf_variant": 99},
    "top_level_list": lambda doc: [doc],
}


# Damage to one network's values that its own checks reject: the network it
# hits and the change, made in place.
DAMAGED_NETWORKS = {
    "negative_lr": ("bdp", lambda n: n["config"].update(initial_lr=-1)),
    "non_numeric_weight": ("ubdf", lambda n: n["weights"][0].__setitem__(0, "abc")),
    "degenerate_range": ("ubdf", lambda n: n["x_norm"].update(hi=n["x_norm"]["lo"])),
    "zero_width_layer": ("bdp", lambda n: n.update(layer_sizes=[7, 0, 1])),
}


class TestModelArtifacts:
    def test_round_trip_bit_identical_predictions(self, tmp_path):
        model = constant_model(2e-4)
        path = storage.write_model_artifact(tmp_path / "model.json", model)
        back = storage.read_model_artifact(path)
        x = np.random.default_rng(0).uniform(0, 1, size=(6, 7))
        assert np.array_equal(back.bdp.predict(x), model.bdp.predict(x))
        assert (back.ubdf_id, back.bdp_id) == (model.ubdf_id, model.bdp_id)

    def test_log_target_round_trip_predicts_identically(self, tmp_path):
        rng = np.random.default_rng(2)
        x = rng.uniform(0.1, 1.0, size=(200, 7))
        y = 1e-4 * np.exp(2.0 * x[:, :1] - x[:, 1:2])
        bdp = net.train(
            x, y, net.NetworkSpec((7, 6, 4, 1)), net.TrainConfig(epochs=3, seed=2),
            y_mask=np.array([True]), log_target=True,
        )
        model = constant_model(2e-4)
        model.bdp = bdp
        path = storage.write_model_artifact(tmp_path / "model.json", model)
        back = storage.read_model_artifact(path)
        assert back.bdp.log_target and not back.ubdf.log_target
        assert np.array_equal(back.bdp.predict(x), model.bdp.predict(x))

    def test_document_without_log_key_reads_as_linear_target(self):
        # An artifact written before log-scaled targets existed.
        path = Path(__file__).parents[1] / "perfbench" / "model" / "degradesched-model-v1.json"
        doc = json.loads(path.read_text())
        assert "log_target" not in doc["bdp"]
        model = storage.read_model_artifact(path)
        assert not model.bdp.log_target
        x = np.random.default_rng(3).uniform(0.2, 0.9, size=(6, model.bdp.spec.n_inputs))
        # Linear read-out computed from the document's own numbers.
        h = x.copy()
        x_mask = np.array(doc["bdp"]["x_norm"]["mask"], dtype=bool)
        lo, hi = (np.array(doc["bdp"]["x_norm"][k]) for k in ("lo", "hi"))
        h[:, x_mask] = (x[:, x_mask] - lo[x_mask]) / (hi[x_mask] - lo[x_mask])
        sizes = doc["bdp"]["layer_sizes"]
        layers = list(zip(doc["bdp"]["weights"], doc["bdp"]["biases"]))
        for k, (w, b) in enumerate(layers):
            h = h @ np.array(w).reshape(sizes[k], sizes[k + 1]) + np.array(b)
            if k < len(layers) - 1:
                h = np.maximum(0.0, h)
        y_lo, y_hi = (np.array(doc["bdp"]["y_norm"][k]) for k in ("lo", "hi"))
        assert doc["bdp"]["y_norm"]["mask"] == [1]
        expected = h * (y_hi - y_lo) + y_lo
        assert np.array_equal(model.bdp.predict(x), expected)

    def test_non_boolean_log_target_rejected(self, tmp_path):
        path = storage.write_model_artifact(tmp_path / "model.json", constant_model(2e-4))
        doc = json.loads(path.read_text())
        doc["bdp"]["log_target"] = "yes"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="log_target"):
            storage.read_model_artifact(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        model = constant_model(2e-4)
        path = storage.write_model_artifact(tmp_path / "model.json", model)
        doc = json.loads(path.read_text())
        doc["closure_checksum"] = "sha256:0000"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="checksum"):
            storage.read_model_artifact(path)

    def test_open_variant_pair_names_file(self, tmp_path):
        # Stage one of variant 1 does not produce the ir and elcn that 10 reads.
        path = storage.write_model_artifact(tmp_path / "model.json", constant_model(2e-4))
        doc = json.loads(path.read_text())
        doc["ubdf_variant"] = 1
        doc["closure_checksum"] = storage.closure_checksum(1, 10)
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=r"model\.json: stage-two variant 10 needs"):
            storage.read_model_artifact(path)

    @pytest.mark.parametrize("damage", MALFORMED_ARTIFACTS.values(), ids=MALFORMED_ARTIFACTS)
    def test_malformed_document_rejected(self, tmp_path, damage):
        path = storage.write_model_artifact(tmp_path / "model.json", constant_model(2e-4))
        path.write_text(json.dumps(damage(json.loads(path.read_text()))))
        with pytest.raises(FileFormatError, match="variant|JSON object"):
            storage.read_model_artifact(path)

    @pytest.mark.parametrize("side, damage", DAMAGED_NETWORKS.values(), ids=DAMAGED_NETWORKS)
    def test_damaged_network_names_file(self, tmp_path, side, damage):
        file = storage.write_model_artifact(tmp_path / "model.json", constant_model(2e-4))
        doc = json.loads(file.read_text())
        damage(doc[side])
        file.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match=f"model.json#{side}: malformed network"):
            storage.read_model_artifact(file)

    def test_shape_mismatch_rejected(self, tmp_path):
        model = constant_model(2e-4)
        path = storage.write_model_artifact(tmp_path / "model.json", model)
        doc = json.loads(path.read_text())
        doc["bdp"]["biases"][-1] = [0.0, 0.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            storage.read_model_artifact(path)


class TestCaseFiles(NumericTableChecks):
    header = storage.SERIES_HEADER

    @staticmethod
    def read(path):
        # A series CSV is read through the case document that names it.
        case_path = storage.write_case(path.parent / "case.json", day_case())
        doc = json.loads(case_path.read_text())
        doc["series"] = {"csv": path.name}
        case_path.write_text(json.dumps(doc))
        return storage.read_case(case_path)

    def day24(self):
        return day_case()

    def test_inline_round_trip(self, tmp_path):
        case = self.day24()
        path = storage.write_case(tmp_path / "case.json", case)
        back = storage.read_case(path)
        assert back.horizon == 24
        assert np.allclose(back.load, case.load)
        assert back.generators == case.generators
        assert back.bess == case.bess

    def test_csv_series_round_trip(self, tmp_path):
        case = self.day24()
        path = storage.write_case(tmp_path / "case.json", case, series_csv="series.csv")
        back = storage.read_case(path)
        assert np.allclose(back.price_buy, case.price_buy)
        header = (tmp_path / "series.csv").read_text().splitlines()[0]
        assert header == "hour,load_kw,wind_kw,solar_kw,buy_price,sell_price,temp_c"

    @pytest.mark.parametrize("series_csv", [None, "series.csv"])
    def test_six_interval_round_trip(self, tmp_path, series_csv):
        case = arbitrage_case()  # 6 intervals
        path = storage.write_case(tmp_path / "case.json", case, series_csv=series_csv)
        back = storage.read_case(path)
        assert back.horizon == 6
        for field in storage.SERIES_FIELDS:
            assert np.array_equal(getattr(back, field), getattr(case, field))

    @pytest.mark.parametrize(
        "hours, message",
        [
            ({0: "1", 1: "0"}, "row 1: hour 1, expected 0"),
            ({5: "99.5"}, "row 6: hour 99.5, expected 5"),
        ],
        ids=["swapped", "fractional"],
    )
    def test_csv_misnumbered_hour_rejected(self, tmp_path, hours, message):
        path = storage.write_case(tmp_path / "case.json", self.day24(), series_csv="series.csv")
        lines = (tmp_path / "series.csv").read_text().splitlines()
        for row, hour in hours.items():
            line = lines[row + 1]  # after the header
            lines[row + 1] = hour + line[line.index(","):]
        (tmp_path / "series.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match=f"series.csv: {message}"):
            storage.read_case(path)

    def test_inline_unequal_lengths_rejected(self, tmp_path):
        path = storage.write_case(tmp_path / "case.json", self.day24())
        doc = json.loads(path.read_text())
        doc["series"]["wind_kw"] = doc["series"]["wind_kw"][:23]
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="lengths differ"):
            storage.read_case(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_inline_non_finite_rejected(self, tmp_path, value):
        path = storage.write_case(tmp_path / "case.json", self.day24())
        doc = json.loads(path.read_text())
        doc["series"]["load_kw"][5] = value
        path.write_text(json.dumps(doc))  # NaN and Infinity tokens
        with pytest.raises(FileFormatError, match="load contains non-finite"):
            storage.read_case(path)

    def test_sell_above_buy_rejected(self, tmp_path):
        case = self.day24()
        path = storage.write_case(tmp_path / "case.json", case)
        doc = json.loads(path.read_text())
        doc["series"]["sell_price"][3] = doc["series"]["buy_price"][3] + 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError, match="sell price"):
            storage.read_case(path)


TRACE_TEXT = (
    "iteration,usage_cap_kwh,throughput_kwh,operation_cost,degradation_cost,total_cost\n"
    "0,,100.0,50.0,5.0,55.0\n"
    "1,90.0,90.0,51.0,{cell},55.5\n"
)


class TestScheduleAndTraceFiles(NumericTableChecks):
    header = storage.SCHEDULE_HEADER
    read = staticmethod(storage.read_schedule)

    def test_schedule_round_trip(self, tmp_path):
        case = day_case()
        sched = solve(build_model(case))
        path = storage.write_schedule(tmp_path / "schedule.csv", sched, case)
        back = storage.read_schedule(path)
        assert np.allclose(back["p_char"], sched.p_char[0])
        assert np.allclose(back["energy_kwh"], sched.energy[0])
        assert back["hour"].tolist() == list(range(24))

    def test_trace_round_trip_with_empty_cap(self, tmp_path):
        from degradesched.lod import EconParams, LodConfig, run_lod

        case = arbitrage_case()
        trace = run_lod(
            case, constant_model(5e-4), EconParams(capital_cost=120_000.0),
            LodConfig(alpha=0.1, max_iterations=4, patience=10),
        )
        path = storage.write_trace(tmp_path / "trace.csv", trace)
        rows = storage.read_trace(path)
        assert rows[0]["usage_cap_kwh"] is None
        assert rows[1]["usage_cap_kwh"] == pytest.approx(
            trace.iterations[1].usage_cap_kwh
        )
        assert [r["iteration"] for r in rows] == list(range(len(trace.iterations)))

    def test_trace_empty_cap_read_in_its_own_chunk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(storage, "READ_CHUNK_ROWS", 1)
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_TEXT.format(cell="4.5"))
        rows = storage.read_trace(path)
        assert [r["usage_cap_kwh"] for r in rows] == [None, 90.0]
        assert rows[1]["degradation_cost"] == 4.5

    @pytest.mark.parametrize("cell", ["abc", "", "nan", "inf"])
    def test_trace_bad_number_rejected(self, tmp_path, cell):
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_TEXT.format(cell=cell))
        with pytest.raises(FileFormatError, match="row 2: (not a number|non-finite)"):
            storage.read_trace(path)

    def test_trace_fractional_iteration_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(TRACE_TEXT.format(cell="4.5").replace("\n1,", "\n1.5,"))
        with pytest.raises(FileFormatError, match="row 2: iteration"):
            storage.read_trace(path)

    def test_comparison_requires_matching_horizons(self, tmp_path):
        case = day_case()
        sched = solve(build_model(case))
        path = storage.write_schedule(tmp_path / "s.csv", sched, case)
        full = storage.read_schedule(path)
        short = {k: v[:12] for k, v in full.items()}
        with pytest.raises(FileFormatError, match="horizon"):
            storage.write_bess_comparison(tmp_path / "cmp.csv", full, full, short)

    def test_comparison_sign_convention(self, tmp_path):
        case = day_case()
        sched = solve(build_model(case))
        path = storage.write_schedule(tmp_path / "s.csv", sched, case)
        data = storage.read_schedule(path)
        out = storage.write_bess_comparison(tmp_path / "cmp.csv", data, data, data)
        lines = out.read_text().splitlines()
        assert lines[0] == "hour,p_bess_traditional,p_bess_linear,p_bess_lod"
        charging_hours = np.flatnonzero(sched.p_char[0] > 1e-6)
        assert charging_hours.size > 0
        t = int(charging_hours[0])
        value = float(lines[1 + t].split(",")[1])
        assert value == pytest.approx(-(sched.p_char[0, t] - sched.p_disc[0, t]))
        assert value < 0


class TestManifest:
    def test_manifest_fields(self, tmp_path):
        src = tmp_path / "input.txt"
        src.write_text("hello")
        path = storage.write_manifest(
            tmp_path / "manifest.json",
            command="train",
            config={"epochs": 3},
            inputs=[src],
            seed=7,
            timings={"wall_seconds": 1.5},
        )
        doc = json.loads(path.read_text())
        assert doc["command"] == "train"
        assert doc["seed"] == 7
        assert doc["input_digests"][str(src)].startswith("sha256:")
        assert doc["tool_version"]
