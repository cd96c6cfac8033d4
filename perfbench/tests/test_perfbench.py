"""Tests of the benchmark itself: inputs, metric names, statistics and spans.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cases  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from degradesched import aging, storage  # noqa: E402
from degradesched.milp import DispatchSchedule, validate_schedule  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _write_days(directory: Path, seed: int, days: int) -> dict[str, bytes]:
    files = {}
    for index in range(days):
        day = directory / f"day{index}"
        day.mkdir(parents=True)
        storage.write_case(day / "case.json", cases.day_case(seed, index), series_csv="series.csv")
        for name in ("case.json", "series.csv"):
            files[f"day{index}/{name}"] = (day / name).read_bytes()
    return files


class TestCaseGenerator:
    def test_same_seed_gives_byte_identical_files(self, tmp_path):
        first = _write_days(tmp_path / "a", seed=7, days=5)
        second = _write_days(tmp_path / "b", seed=7, days=5)
        assert first == second

    def test_other_seed_gives_other_series(self, tmp_path):
        first = _write_days(tmp_path / "a", seed=7, days=2)
        other = _write_days(tmp_path / "b", seed=8, days=2)
        assert first["day0/series.csv"] != other["day0/series.csv"]
        assert first["day0/case.json"] == other["day0/case.json"]

    def test_day_depends_only_on_seed_and_index(self):
        late = cases.day_case(3, 9)
        for index in range(9):
            cases.day_case(3, index)
        assert np.array_equal(late.load, cases.day_case(3, 9).load)

    def test_week_is_seven_days_back_to_back(self):
        week = cases.week_case(2, 1)
        assert week.horizon == 168
        assert np.array_equal(week.load[24:48], cases.day_case(2, 8).load)

    @pytest.mark.parametrize("seed", range(5))
    def test_every_day_is_inside_the_feasible_band(self, seed):
        for index in range(40):
            assert cases.infeasibility(cases.day_case(seed, index)) == []

    def test_band_check_flags_an_overload(self):
        case = cases.day_case(0, 0)
        case.load[19] = 2_000.0
        assert [m.split(":")[0] for m in cases.infeasibility(case)] == ["hour 19"]

    @pytest.mark.parametrize("index", range(10))
    def test_idle_battery_dispatch_passes_the_validator(self, index):
        """Tie-line first, the committed unit covers the rest: feasible as is."""
        case = cases.day_case(11, index)
        T, grid = case.horizon, case.p_grid_max
        net = case.load - case.wind - case.solar
        gen = np.maximum(net - grid, 0.0)
        zeros = np.zeros((1, T))
        sched = DispatchSchedule(
            p_gen=gen[None, :], u_gen=np.ones((1, T), int),
            v_gen=np.eye(1, T, dtype=int),
            p_buy=np.maximum(net - gen, 0.0), p_sell=np.maximum(-net, 0.0),
            u_buy=(net > 0).astype(int), u_sell=(net <= 0).astype(int),
            p_char=zeros, p_disc=zeros, u_char=zeros.astype(int), u_disc=zeros.astype(int),
            energy=np.full((1, T), case.bess[0].e_initial), objective=0.0,
        )
        assert validate_schedule(case, sched) == []
        # The reserve row in the form p_max * u - p_gen, with u = 1 throughout.
        headroom = grid - sched.p_buy + sched.p_sell + case.generators[0].p_max - gen
        assert (headroom >= case.reserve_fraction * case.load).all()


class TestMetricNames:
    @pytest.fixture(scope="class")
    def contract(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_and_units_follow_the_grammar(self, contract):
        entries = contract["workloads"] + contract["end_to_end"] + contract["per_layer"]
        names = [e["name"] for e in entries]
        assert len(names) == len(set(names))
        for entry in entries:
            assert NAME.fullmatch(entry["name"]), entry["name"]
            if "unit" in entry:
                assert UNIT.fullmatch(entry["unit"]), entry["unit"]

    def test_contract_lists_what_the_code_reports(self, contract):
        assert [m["name"] for m in contract["per_layer"]] == layers.result_metrics()
        assert [w["name"] for w in contract["workloads"]] == list(workloads.WORKLOADS)
        for metric in contract["per_layer"]:
            unit, better, _ = layers.PER_LAYER[metric["name"]]
            assert (metric["unit"], metric["better"]) == (unit, better)

    def test_result_line_times_are_measured_on_every_workload(self, contract):
        times = [m["name"] for m in contract["per_layer"] if m["unit"] in ("s", "ms")]
        assert times == list(layers.ALWAYS_TIMED)

    def test_setup_time_has_the_largest_bound(self, contract):
        bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values()) <= 0.25


class TestPercentile:
    def test_median_is_always_given(self):
        assert tracing.percentile([4.0], 0.5) == 4.0
        for n in range(1, 30):
            samples = list(np.random.default_rng(n).random(n))
            assert tracing.percentile(samples, 0.5) == pytest.approx(statistics.median(samples))

    def test_upper_percentile_needs_ten_samples_beyond_it(self):
        assert tracing.percentile(list(range(39)), 0.75) is None
        assert tracing.percentile(list(range(40)), 0.75) == pytest.approx(29.25)
        assert tracing.percentile(list(range(99)), 0.9) is None
        assert tracing.percentile(list(range(100)), 0.9) is not None

    def test_no_samples_no_value(self):
        assert tracing.percentile([], 0.5) is None


class TestReference:
    @pytest.mark.parametrize("kind", ["highs", "training"])
    def test_samples_at_most_once_per_interval(self, kind):
        ref = reference.Reference(kind)
        ref.maybe_sample()
        ref.maybe_sample()
        assert len(ref.samples) == 1 and ref.samples[0] > 0


class _Owner:
    @staticmethod
    def double(x):
        return 2 * x

    def triple(self, x):
        return 3 * x


def _span(name, start, end, parent=None, op=1):
    return tracing.Span(name, start, end, parent, op)


class TestSpans:
    def test_self_time_subtracts_direct_children(self):
        spans = [_span("cli.a", 0.0, 10.0), _span("lod.b", 1.0, 5.0, 0),
                 _span("milp.c", 2.0, 4.0, 1), _span("storage.d", 6.0, 7.0, 0)]
        assert tracing.self_times(spans) == [5.0, 2.0, 2.0, 1.0]
        assert tracing.nesting_errors(spans) == []

    def test_check_flags_children_longer_than_parent(self):
        spans = [_span("cli.a", 0.0, 2.0), _span("lod.b", 0.0, 1.5, 0),
                 _span("lod.c", 0.5, 2.0, 0)]
        assert any("children take" in e for e in tracing.nesting_errors(spans))

    def test_check_flags_a_child_outside_its_parent_or_operation(self):
        spans = [_span("cli.a", 0.0, 1.0), _span("lod.b", 0.5, 1.5, 0, op=2)]
        errors = tracing.nesting_errors(spans)
        assert any("leaves parent" in e for e in errors)
        assert any("operation id" in e for e in errors)

    def test_wrap_records_inside_operations_only_and_restores(self):
        tracer = tracing.Tracer()
        tracer.wrap(_Owner, "double", "x.double")
        tracer.wrap(_Owner, "triple", "x.triple")
        assert _Owner.double(1) == 2  # outside any operation: not recorded
        with tracer.operation("bench.op"):
            assert _Owner.double(2) == 4
            assert _Owner().triple(2) == 6
        with tracer.operation("bench.op"):
            _Owner.double(3)
        assert [(s.name, s.op, s.parent) for s in tracer.spans] == [
            ("bench.op", 1, None), ("x.double", 1, 0), ("x.triple", 1, 0),
            ("bench.op", 2, None), ("x.double", 2, 3)]
        assert tracing.nesting_errors(tracer.spans) == []
        tracer.restore()
        assert isinstance(_Owner.__dict__["double"], staticmethod)
        assert _Owner.double.__qualname__ == "_Owner.double"

    def test_failed_call_is_marked_on_its_span(self):
        tracer = tracing.Tracer()
        with pytest.raises(ZeroDivisionError), tracer.operation("bench.op"):
            _ = 1 / 0
        assert tracer.spans[0].attrs["error"] == "ZeroDivisionError"

    def test_layer_hooks_reach_the_callers_lookups(self):
        tracer, counts = tracing.Tracer(), {}
        layers.install(tracer, counts)
        try:
            grid = aging.default_grid(2)
            with tracer.operation("bench.op"):
                from degradesched import cli
                data = cli.generate_dataset(grid)
                aging.AgingDataset.from_array(data.to_array())
        finally:
            tracer.restore()
        names = [s.name for s in tracer.spans]
        assert names == ["bench.op", "aging.generate_dataset", "aging.to_array",
                         "aging.from_array"]
        metrics = layers.layer_metrics(tracer.spans, counts, units=1, overhead_s=0.0)
        assert set(metrics) == set(layers.PER_LAYER)
        assert metrics["aging.rows"] == (len(data), 1)
        assert metrics["aging.to_array_calls"] == (1, 1)
