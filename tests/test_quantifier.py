"""Tests for the two-stage degradation quantifier and cycle extraction."""

import concurrent.futures
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degradesched import aging, net, quantifier
from degradesched.quantifier import (
    BDF_FEATURES,
    BDP_VARIANTS,
    CYCLE_FEATURES,
    FLAT_SOC_EPS,
    NETWORKS,
    UBDF_VARIANTS,
    DegradationModel,
    FeatureRangeWarning,
    accuracy_row,
    bdp_required_unobtainables,
    cbup,
    compatible_pairs,
    fit_networks,
    network_job,
    predict_degradation,
    select_best_combination,
    shared_split,
    stage_two_inputs,
    train_benchmarks,
)
from test_lod import constant_model, constant_network
from test_net import assert_same_network


class TestVariantTables:
    def test_ubdf_outputs(self):
        assert UBDF_VARIANTS[1] == ("it",)
        assert UBDF_VARIANTS[3] == ("it", "ir")
        assert UBDF_VARIANTS[5] == ("ir", "elcn")
        assert UBDF_VARIANTS[6] == ("it", "ir", "elcn")

    def test_bdp_inputs(self):
        assert BDP_VARIANTS[1] == ("it", "elcn")
        assert BDP_VARIANTS[10] == ("soc", "dod", "temp", "c_rate", "ir", "soh", "elcn")
        for variant, inputs in BDP_VARIANTS.items():
            has_ir = "ir" in inputs
            has_it = "it" in inputs
            assert has_ir != has_it, f"variant {variant} must use exactly one of it/ir"

    def test_closure_rules(self):
        assert bdp_required_unobtainables(1) == {"it", "elcn"}
        pairs = compatible_pairs()
        assert (4, 1) in pairs and (6, 1) in pairs
        assert (1, 1) not in pairs  # variant 1 lacks elcn
        assert (5, 10) in pairs
        assert (1, 10) not in pairs  # lacks ir and elcn

    def test_network_table(self):
        assert len(NETWORKS) == len(UBDF_VARIANTS) + len(BDP_VARIANTS) + 2
        assert NETWORKS[("ubdf", 6)].spec.layer_sizes == (5, 20, 10, 3)
        assert NETWORKS[("bdp", 10)].spec.layer_sizes == (7, 20, 10, 1)
        assert NETWORKS[("nnbd", 0)].spec.layer_sizes == (5, 20, 10, 1)
        assert NETWORKS[("nnbd2", 0)].spec.layer_sizes == (5, 20, 10, 10, 1)
        # Each network draws its own seed from the run's seed and its tag.
        assert len({row.tag for row in NETWORKS.values()}) == len(NETWORKS)

    def test_incompatible_model_rejected(self):
        with pytest.raises(ValueError, match="does not produce"):
            DegradationModel(
                ubdf_id=1,
                bdp_id=10,
                ubdf=constant_network(5, [30.0]),
                bdp=constant_network(7, [1e-4]),
            )


def reference_cbup(soc, temps, dt_hours=1.0):
    """Half cycles as (soc_top, dod, temp_amb, c_rate) tuples, one run at a time."""
    soc = np.asarray(soc, dtype=float)
    deltas = np.diff(soc)
    directions = np.where(np.abs(deltas) <= FLAT_SOC_EPS, 0, np.sign(deltas))
    cycles = []
    start = 0
    while start < len(directions):
        d = directions[start]
        end = start + 1
        while end < len(directions) and directions[end] == d:
            end += 1
        if d != 0:
            dod = abs(soc[end] - soc[start])
            cycles.append((
                max(soc[start], soc[end]),
                dod,
                float(np.mean(temps[start:end])),
                dod / ((end - start) * dt_hours),
            ))
        start = end
    return cycles


# SOC levels whose differences are exact: steps of exactly +-FLAT_SOC_EPS
# (flat) and 2 * FLAT_SOC_EPS (moving) sit on either side of the threshold.
EXACT_LEVELS = (0.0, FLAT_SOC_EPS, 2 * FLAT_SOC_EPS)


@st.composite
def trajectories(draw):
    """SOC trajectories with flat runs, +-FLAT_SOC_EPS steps and 1-point runs."""
    n = draw(st.integers(2, 30))
    level = st.sampled_from(EXACT_LEVELS) | st.floats(0.0, 1.0)
    soc = [draw(level)]
    for _ in range(n - 1):
        soc.append(draw(st.just(soc[-1]) | level))
    temps = draw(st.lists(st.floats(-20.0, 50.0), min_size=n - 1, max_size=n - 1))
    dt_hours = draw(st.sampled_from([0.25, 0.5, 1.0]))
    return np.array(soc), np.array(temps), dt_hours


class TestCbup:
    def test_discharge_then_charge(self):
        soc = [0.5, 0.5, 0.3, 0.3, 0.5]
        cycles = cbup(np.array(soc), np.full(4, 25.0))
        assert cycles.shape == (2, len(CYCLE_FEATURES))
        soc_top, dod, _, c_rate = cycles.T
        assert dod == pytest.approx([0.2, 0.2])
        assert c_rate == pytest.approx([0.2, 0.2])
        assert soc_top == pytest.approx([0.5, 0.5])

    def test_flat_trajectory_gives_nothing(self):
        cycles = cbup(np.full(25, 0.4), np.full(24, 25.0))
        assert cycles.shape == (0, len(CYCLE_FEATURES))

    def test_monotone_discharge_aggregates(self):
        soc = [0.8, 0.7, 0.6, 0.5]
        cycles = cbup(np.array(soc), np.full(3, 25.0))
        assert cycles.shape == (1, len(CYCLE_FEATURES))
        soc_top, dod, _, c_rate = cycles[0]
        assert dod == pytest.approx(0.3)
        assert c_rate == pytest.approx(0.1)
        assert soc_top == pytest.approx(0.8)

    def test_dod_from_soc_difference(self):
        _, dod, _, c_rate = cbup(np.array([0.8, 0.3]), np.array([25.0]))[0]
        assert dod == pytest.approx(0.5)
        assert c_rate == pytest.approx(0.5)

    def test_run_mean_temperature(self):
        soc = [0.9, 0.6, 0.3, 0.3]
        temps = np.array([10.0, 30.0, 99.0])
        cycles = cbup(np.array(soc), temps)
        assert cycles.shape == (1, len(CYCLE_FEATURES))
        assert cycles[0, CYCLE_FEATURES.index("temp")] == pytest.approx(20.0)

    def test_conservation_on_closed_trajectories(self):
        # Schedules that end where they started (the energy-neutral terminal
        # constraint) go down as far as they come up, so the half cycles'
        # depths add up to twice the discharge depth.
        rng = np.random.default_rng(11)
        for _ in range(100):
            steps = rng.normal(size=24)
            walk = np.concatenate(([0.0], np.cumsum(steps)))
            walk -= walk.min()
            span = max(walk.max(), 1e-6)
            soc = 0.1 + 0.8 * walk / span
            soc[-1] = soc[0]
            dod = cbup(soc, np.full(24, 25.0))[:, CYCLE_FEATURES.index("dod")]
            deltas = np.diff(soc)
            moving = np.abs(deltas[np.abs(deltas) > FLAT_SOC_EPS])
            assert dod.sum() == pytest.approx(moving.sum(), abs=1e-9)
            assert dod.sum() == pytest.approx(-2 * deltas[deltas < 0].sum(), abs=1e-9)

    def test_below_zero_soc_rejected(self):
        with pytest.raises(ValueError, match="below SOC 0"):
            cbup(np.array([0.2, -0.1, 0.3]), np.full(2, 25.0))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cbup(np.array([0.5]), np.array([]))
        with pytest.raises(ValueError):
            cbup(np.array([0.5, 0.4]), np.array([25.0, 25.0]))

    @settings(max_examples=300, deadline=None)
    @given(trajectories())
    @example((np.array([0.0, FLAT_SOC_EPS, 0.0, 0.0, 2 * FLAT_SOC_EPS, 0.5, 0.3, 0.4]),
              np.arange(7.0), 1.0))
    def test_matches_reference_loop_exactly(self, trajectory):
        soc, temps, dt_hours = trajectory
        cycles = cbup(soc, temps, dt_hours)
        expected = reference_cbup(soc, temps, dt_hours)
        assert cycles.shape == (len(expected), len(CYCLE_FEATURES))
        assert cycles.tolist() == [[float(v) for v in row] for row in expected]


class TestFeatures:
    def test_ubdf_feature_order(self):
        # Fit stage one's input range tightly around one row in
        # (soc, dod, temp, c_rate, soh) order. Any warning fails a test, so
        # the first call shows every column in place; the second moves soh
        # alone out of its band.
        model = constant_model(1e-4)
        row = np.array([0.75, 0.5, 25.0, 0.25, 0.9])
        model.ubdf.x_norm.lo[:] = row - 1e-3
        model.ubdf.x_norm.hi[:] = row + 1e-3
        cycles = row[None, :len(CYCLE_FEATURES)]
        predict_degradation(model, cycles, soh=0.9)
        with pytest.warns(FeatureRangeWarning, match=r"\['soh'\]"):
            predict_degradation(model, cycles, soh=0.95)


class TestPredict:
    def cycles(self, n=2):
        # soc 0.75, dod 0.5, temp 25, c_rate 0.5 per half cycle
        return np.tile([0.75, 0.5, 25.0, 0.5], (n, 1))

    def test_empty_cycle_list(self):
        model = constant_model(1e-4)
        empty = np.empty((0, len(CYCLE_FEATURES)))
        assert predict_degradation(model, empty, soh=1.0) == 0.0

    def test_doubling_cycles_doubles_prediction(self):
        model = constant_model(1e-4)
        d1 = predict_degradation(model, self.cycles(2), soh=1.0)
        d2 = predict_degradation(model, self.cycles(4), soh=1.0)
        assert d2 == pytest.approx(2 * d1)

    def test_negative_outputs_clipped(self):
        model = DegradationModel(
            ubdf_id=6,
            bdp_id=10,
            ubdf=constant_network(5, [30.0, 60.0, 900.0]),
            bdp=constant_network(7, [-1e-3]),
        )
        assert predict_degradation(model, self.cycles(3), soh=1.0) == 0.0

    def test_soh_multiplier(self):
        model = constant_model(2e-4)
        base = predict_degradation(model, self.cycles(2), soh=1.0)
        scaled = predict_degradation(model, self.cycles(2), soh=0.9)
        assert scaled == pytest.approx(0.9 * base)

    def test_guard_band_warning(self):
        model = constant_model(1e-4)
        # Shrink the fitted input range so the nominal cycle falls far outside.
        model.ubdf.x_norm.lo[:] = 0.0
        model.ubdf.x_norm.hi[:] = 0.1
        with pytest.warns(FeatureRangeWarning):
            predict_degradation(model, self.cycles(1), soh=1.0)

    def test_stage_one_output_outside_stage_two_range_warns(self):
        # Stage one predicts ir = 60 for every cycle; a stage two fitted on
        # ir in [0, 1] names that internal feature alone.
        model = constant_model(1e-4)
        ir = model.bdp_inputs.index("ir")
        model.bdp.x_norm.lo[ir], model.bdp.x_norm.hi[ir] = 0.0, 1.0
        with pytest.warns(FeatureRangeWarning, match=r"inputs \['ir'\] fall outside"):
            predict_degradation(model, self.cycles(1), soh=1.0)

    def test_soh_domain(self):
        model = constant_model(1e-4)
        with pytest.raises(ValueError):
            predict_degradation(model, self.cycles(1), soh=0.5)


def subsampled_dataset(n_rows=3500, seed=5):
    ds = aging.generate_dataset(aging.default_grid(), noise_sigma=0.02, seed=seed)
    data = ds.to_array()
    idx = np.random.default_rng(seed).choice(len(data), size=n_rows, replace=False)
    return aging.AgingDataset.from_array(data[np.sort(idx)], ds.meta)


class TestSelection:
    @pytest.fixture(scope="class")
    def rigged_selection(self):
        # Replace the internal-resistance column with pure noise; informative
        # internal-temperature variants must win the search.
        ds = subsampled_dataset()
        data = ds.to_array()
        rng = np.random.default_rng(99)
        data[:, 6] = rng.uniform(10.0, 200.0, size=len(data))
        rigged = aging.AgingDataset.from_array(data, ds.meta)
        cfg = net.TrainConfig(epochs=60, seed=3)
        return select_best_combination(rigged, shared_split(rigged, cfg), cfg)

    def test_noise_feature_loses(self, rigged_selection):
        model, _ = rigged_selection
        assert "ir" not in BDP_VARIANTS[model.bdp_id]
        assert "it" in BDP_VARIANTS[model.bdp_id]

    def test_selected_is_argmax(self, rigged_selection):
        model, report = rigged_selection
        best_row = max(report.composed_table, key=lambda r: (r["tol15"], r["tol10"]))
        selected_row = next(
            r
            for r in report.composed_table
            if r["model_id"] == f"{model.ubdf_id}-{model.bdp_id}"
        )
        assert selected_row["tol15"] >= best_row["tol15"] - 1e-12

    def test_tolerance_monotone_tables(self, rigged_selection):
        _, report = rigged_selection
        for table in (report.ubdf_table, report.bdp_table, report.composed_table):
            for row in table:
                assert row["tol05"] <= row["tol10"] <= row["tol15"] <= row["tol20"]


def dataset_column(ds, name):
    return ds.data[:, aging.DATASET_COLUMNS.index(name)]


def train_alone(ds, key, cfg, split):
    """The NETWORKS row `key` fitted alone by net.train on its full column
    matrices and the index split: net.train's own row gather, and the
    columns stacked one by one, check the gathers fit_networks does."""
    row = NETWORKS[key]
    x, y = (np.column_stack([dataset_column(ds, name) for name in names])
            for names in (row.inputs, row.outputs))
    job = network_job(ds.data[split[0]], ds.data[split[1]], key, cfg)
    return net.train(x, y, job.spec, job.cfg, job.x_mask, job.y_mask, split, job.log_target)


class TestSearchMatchesPairTraining:
    def test_every_search_network_equals_its_own_fit(self):
        # fit_networks trains same-shape networks as stacks; each must equal
        # what net.train gives its network alone, parameter by parameter, and
        # the search, the one-pair search (1-3 is one same-shape stack) and
        # train_benchmarks must hand out those networks.
        ds = subsampled_dataset()
        cfg = net.TrainConfig(epochs=4, seed=2)
        split = net.split_indices(len(ds), cfg.train_fraction, cfg.seed)
        fitted = fit_networks(ds.data, split, list(NETWORKS), cfg)
        assert sorted(fitted) == sorted(
            [("ubdf", u) for u in UBDF_VARIANTS] + [("bdp", b) for b in BDP_VARIANTS]
            + [("nnbd", 0), ("nnbd2", 0)]
        )
        for key, network in fitted.items():
            assert_same_network(network, train_alone(ds, key, cfg, split))
        model, _ = select_best_combination(ds, split, cfg)
        assert_same_network(model.ubdf, fitted[("ubdf", model.ubdf_id)])
        assert_same_network(model.bdp, fitted[("bdp", model.bdp_id)])
        pair, _ = select_best_combination(ds, split, cfg, [(1, 3)])
        assert_same_network(pair.ubdf, fitted[("ubdf", 1)])
        assert_same_network(pair.bdp, fitted[("bdp", 3)])
        benchmarks = train_benchmarks(ds, split, cfg)
        for name in ("nnbd", "nnbd2"):
            assert_same_network(benchmarks[name], fitted[(name, 0)])


class TestScoring:
    def test_rows_equal_each_network_scored_alone(self, monkeypatch):
        # Scoring runs each stage-one variant once and reuses its predictions
        # in every pair; each row must equal its network or pair scored on
        # its own, from the full input matrix's validation rows.
        ds = subsampled_dataset()
        cfg = net.TrainConfig(epochs=2, seed=2)
        fitted = {}

        def recording(*args):
            fitted.update(fit_networks(*args))
            return fitted

        monkeypatch.setattr(quantifier, "fit_networks", recording)
        _, report = select_best_combination(ds, shared_split(ds, cfg), cfg)
        _, val_idx = net.split_indices(len(ds), cfg.train_fraction, cfg.seed)

        def matrix(names):
            return np.column_stack([dataset_column(ds, name) for name in names])[val_idx]

        for kind, table in (("ubdf", report.ubdf_table), ("bdp", report.bdp_table)):
            variants = UBDF_VARIANTS if kind == "ubdf" else BDP_VARIANTS
            assert table == [
                accuracy_row(fitted[(kind, v)].predict(matrix(NETWORKS[(kind, v)].inputs)),
                             matrix(NETWORKS[(kind, v)].outputs), v)
                for v in variants
            ]
        x_val, deg_val = matrix(BDF_FEATURES), dataset_column(ds, "degradation")[val_idx]

        def composed(u, b):
            pair = DegradationModel(u, b, fitted[("ubdf", u)], fitted[("bdp", b)])
            return pair.bdp.predict(stage_two_inputs(pair, x_val))

        assert report.composed_table == [
            accuracy_row(composed(u, b), deg_val, f"{u}-{b}") for u, b in compatible_pairs()
        ]


class TestDivergence:
    # A learning rate this large makes every network's loss non-finite.
    cfg = net.TrainConfig(initial_lr=1e4, epochs=3)

    @pytest.fixture(scope="class")
    def ds(self):
        return subsampled_dataset()

    def test_train_pair_raises(self, ds):
        with pytest.raises(RuntimeError, match="epoch 0"):
            select_best_combination(ds, shared_split(ds, self.cfg), self.cfg, [(1, 3)])

    def test_train_benchmarks_raises(self, ds):
        with pytest.raises(net.TrainingDiverged):
            train_benchmarks(ds, shared_split(ds, self.cfg), self.cfg)

    def test_search_with_no_pair_left_raises(self, ds):
        with pytest.raises(RuntimeError, match="every variant pair failed"):
            select_best_combination(ds, shared_split(ds, self.cfg), self.cfg)


def see_cpus(monkeypatch, n):
    """Have fit_networks see n CPUs that this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestWorkerCount:
    """One CPU trains the stacks in this process, two in a pool of workers;
    the networks, and the failures, must come out the same."""

    def fit_all(self, monkeypatch, n_cpus, cfg):
        ds = subsampled_dataset()
        split = net.split_indices(len(ds), cfg.train_fraction, cfg.seed)
        see_cpus(monkeypatch, n_cpus)
        return fit_networks(ds.data, split, list(NETWORKS), cfg)

    def test_every_network_is_the_same(self, monkeypatch):
        cfg = net.TrainConfig(epochs=4, seed=2)
        here = self.fit_all(monkeypatch, 1, cfg)
        pooled = self.fit_all(monkeypatch, 2, cfg)
        assert list(pooled) == list(here)
        assert sorted(here) == sorted(NETWORKS)
        for key in NETWORKS:
            assert_same_network(pooled[key], here[key])

    def test_divergence_failures_are_the_same(self, monkeypatch):
        # select_best_combination records each failure as "kind-variant: error".
        failures = {}
        for n_cpus in (1, 2):
            fitted = self.fit_all(monkeypatch, n_cpus, TestDivergence.cfg)
            assert all(isinstance(r, net.TrainingDiverged) for r in fitted.values())
            failures[n_cpus] = [(key, r.epoch, str(r)) for key, r in fitted.items()]
        assert failures[1] == failures[2]

    def test_no_worker_outlives_the_call(self, monkeypatch):
        ds = subsampled_dataset()
        cfg = net.TrainConfig(epochs=1, seed=2)
        split = net.split_indices(len(ds), cfg.train_fraction, cfg.seed)
        keys = [("nnbd", 0), ("nnbd2", 0)]  # two layer shapes, two stacks
        see_cpus(monkeypatch, 2)
        fit_networks(ds.data, split, keys, cfg)
        assert multiprocessing.active_children() == []

        data = ds.data.copy()
        data[split[0][0], aging.DATASET_COLUMNS.index("degradation")] = -1.0  # no log target
        with pytest.raises(ValueError, match="log-scaled targets must be positive") as exc:
            fit_networks(data, split, keys, cfg)
        # concurrent.futures chains a worker's traceback to what it re-raises.
        assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"
        assert multiprocessing.active_children() == []

    def test_workers_start_by_fork(self, monkeypatch):
        # Whatever the interpreter's default: only forked workers inherit the
        # package and the inputs instead of importing them afresh.
        contexts = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                contexts.append(kwargs.get("mp_context"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        ds = subsampled_dataset()
        cfg = net.TrainConfig(epochs=1, seed=2)
        split = net.split_indices(len(ds), cfg.train_fraction, cfg.seed)
        see_cpus(monkeypatch, 2)
        fit_networks(ds.data, split, [("nnbd", 0), ("nnbd2", 0)], cfg)
        assert [None if c is None else c.get_start_method() for c in contexts] == ["fork"]


class TestTrainingCurve:
    def test_loss_flattens_after_200_epochs(self):
        # Stage-two training settles once the decayed learning rate is small:
        # the mean loss over epochs 200-250 sits within 10% of the final mean.
        ds = subsampled_dataset(n_rows=6000, seed=7)
        split = net.split_indices(len(ds), 0.8, 7)
        cfg = net.TrainConfig(epochs=300, seed=7)
        model = train_alone(ds, ("bdp", 10), cfg, split)
        h = model.history["train_mse"]
        early = float(np.mean(h[200:250]))
        late = float(np.mean(h[-50:]))
        assert abs(early - late) / late <= 0.10
