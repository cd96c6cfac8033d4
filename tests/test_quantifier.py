"""Tests for the two-stage degradation quantifier and cycle extraction."""

import numpy as np
import pytest

from degradesched import aging, net, quantifier
from degradesched.quantifier import (
    BDF_FEATURES,
    BDP_VARIANTS,
    UBDF_VARIANTS,
    AggregatedCycle,
    DegradationModel,
    FeatureRangeWarning,
    bdp_required_unobtainables,
    cbup,
    compatible_pairs,
    dataset_columns,
    make_ubdf_features,
    predict_degradation,
    predict_ubdf,
    select_best_combination,
    train_bdp_variant,
    train_ubdf_variant,
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

    def test_incompatible_model_rejected(self):
        with pytest.raises(ValueError, match="does not produce"):
            DegradationModel(
                ubdf_id=1,
                bdp_id=10,
                ubdf=constant_network(5, [30.0]),
                bdp=constant_network(7, [1e-4]),
            )


class TestCbup:
    def test_discharge_then_charge(self):
        soc = [0.5, 0.5, 0.3, 0.3, 0.5]
        cycles = cbup(np.array(soc), np.full(4, 25.0), soh=1.0)
        assert len(cycles) == 2
        disc, char = cycles
        assert disc.dod == pytest.approx(0.2)
        assert disc.c_rate == pytest.approx(0.2)
        assert disc.soc_top == pytest.approx(0.5)
        assert char.dod == pytest.approx(0.2)
        assert char.c_rate == pytest.approx(0.2)
        assert char.soc_top == pytest.approx(0.5)
        assert all(c.weight == 0.5 for c in cycles)

    def test_flat_trajectory_gives_nothing(self):
        assert cbup(np.full(25, 0.4), np.full(24, 25.0), soh=1.0) == []

    def test_monotone_discharge_aggregates(self):
        soc = [0.8, 0.7, 0.6, 0.5]
        cycles = cbup(np.array(soc), np.full(3, 25.0), soh=1.0)
        assert len(cycles) == 1
        assert cycles[0].dod == pytest.approx(0.3)
        assert cycles[0].c_rate == pytest.approx(0.1)
        assert cycles[0].soc_top == pytest.approx(0.8)

    def test_dod_from_soc_difference(self):
        cycles = cbup(np.array([0.8, 0.3]), np.array([25.0]), soh=1.0)
        assert cycles[0].dod == pytest.approx(0.5)
        assert cycles[0].c_rate == pytest.approx(0.5)

    def test_run_mean_temperature(self):
        soc = [0.9, 0.6, 0.3, 0.3]
        temps = np.array([10.0, 30.0, 99.0])
        cycles = cbup(np.array(soc), temps, soh=1.0)
        assert len(cycles) == 1
        assert cycles[0].temp_amb == pytest.approx(20.0)

    def test_conservation_on_closed_trajectories(self):
        # Schedules that end where they started (the energy-neutral terminal
        # constraint) must show equal total discharge and charge depth.
        rng = np.random.default_rng(11)
        for _ in range(100):
            steps = rng.normal(size=24)
            walk = np.concatenate(([0.0], np.cumsum(steps)))
            walk -= walk.min()
            span = max(walk.max(), 1e-6)
            soc = 0.1 + 0.8 * walk / span
            soc[-1] = soc[0]
            cycles = cbup(soc, np.full(24, 25.0), soh=1.0)
            disc = sum(c.dod for c in cycles if c.direction == "discharge")
            char = sum(c.dod for c in cycles if c.direction == "charge")
            assert disc == pytest.approx(char, abs=1e-9)
            deltas = np.diff(soc)
            assert disc == pytest.approx(-deltas[deltas < 0].sum(), abs=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cbup(np.array([0.5]), np.array([]), soh=1.0)
        with pytest.raises(ValueError):
            cbup(np.array([0.5, 0.4]), np.array([25.0, 25.0]), soh=1.0)


class TestFeatures:
    def test_ubdf_feature_order(self):
        cycle = AggregatedCycle(soc_top=0.8, dod=0.3, c_rate=0.3, temp_amb=22.0, soh=0.95)
        vec = make_ubdf_features(cycle)
        assert vec.tolist() == [0.8, 0.3, 22.0, 0.3, 0.95]


class TestPredict:
    def cycles(self, n=2):
        return [
            AggregatedCycle(soc_top=0.75, dod=0.5, c_rate=0.5, temp_amb=25.0, soh=1.0)
            for _ in range(n)
        ]

    def test_empty_cycle_list(self):
        model = constant_model(1e-4)
        out = predict_ubdf(model, [])
        assert all(v.size == 0 for v in out.values())
        assert predict_degradation(model, [], soh=1.0) == 0.0

    def test_duplicated_cycles_duplicate_outputs(self):
        model = constant_model(1e-4)
        one = predict_ubdf(model, self.cycles(1))
        two = predict_ubdf(model, self.cycles(2))
        for name in one:
            assert two[name].shape == (2,)
            assert np.allclose(two[name], one[name][0])

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
            predict_ubdf(model, self.cycles(1))

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
        return select_best_combination(rigged, cfg)

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


class TestSearchMatchesPairTraining:
    def test_every_search_network_equals_its_own_fit(self):
        # The search trains same-shape variants as stacks; each must equal
        # what train_pair's per-variant fit gives, parameter by parameter.
        ds = subsampled_dataset()
        cfg = net.TrainConfig(epochs=4, seed=2)
        columns = dataset_columns(ds)
        split = net.split_indices(len(ds), cfg.train_fraction, cfg.seed)
        fitted = quantifier._train_search_networks(columns, cfg, split)
        assert sorted(fitted) == sorted(
            [("ubdf", u) for u in UBDF_VARIANTS] + [("bdp", b) for b in BDP_VARIANTS]
        )
        solo = {"ubdf": train_ubdf_variant, "bdp": train_bdp_variant}
        for (stage, variant), network in fitted.items():
            assert_same_network(network, solo[stage](columns, variant, cfg, split))
        model, _ = select_best_combination(ds, cfg)
        assert_same_network(model.ubdf, fitted[("ubdf", model.ubdf_id)])
        assert_same_network(model.bdp, fitted[("bdp", model.bdp_id)])


class TestTrainingCurve:
    def test_loss_flattens_after_200_epochs(self):
        # Stage-two training settles once the decayed learning rate is small:
        # the mean loss over epochs 200-250 sits within 10% of the final mean.
        from degradesched.quantifier import dataset_columns, train_bdp_variant

        ds = subsampled_dataset(n_rows=6000, seed=7)
        cols = dataset_columns(ds)
        split = net.split_indices(len(ds), 0.8, 7)
        cfg = net.TrainConfig(epochs=300, seed=7)
        model = train_bdp_variant(cols, 10, cfg, split)
        h = model.history["train_mse"]
        early = float(np.mean(h[200:250]))
        late = float(np.mean(h[-50:]))
        assert abs(early - late) / late <= 0.10
