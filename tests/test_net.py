"""Tests for the fully-connected network engine."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degradesched import net
from degradesched.net import (
    NetworkSpec,
    Normalizer,
    TrainConfig,
    accuracy_at_tolerance,
    forward,
    init_params,
    loss_gradients,
    mse,
    train,
)


def random_kink_free_params(rng, sizes):
    """Random params with random biases so no relu preactivation sits at 0."""
    params = init_params(NetworkSpec(sizes), rng)
    return [(w, rng.uniform(-0.5, 0.5, size=b.shape)) for w, b in params]


def numeric_gradients(params, x, y, h=1e-5):
    """Central finite differences of the MSE loss w.r.t. every parameter."""
    grads = []
    for i, (w, b) in enumerate(params):
        gw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            wp = w.copy()
            wp[idx] = w[idx] + h
            lp = mse(forward(params[:i] + [(wp, b)] + params[i + 1 :], x), y)
            wm = w.copy()
            wm[idx] = w[idx] - h
            lm = mse(forward(params[:i] + [(wm, b)] + params[i + 1 :], x), y)
            gw[idx] = (lp - lm) / (2 * h)
        gb = np.zeros_like(b)
        for j in range(b.size):
            bp = b.copy()
            bp[j] = b[j] + h
            lp = mse(forward(params[:i] + [(w, bp)] + params[i + 1 :], x), y)
            bm = b.copy()
            bm[j] = b[j] - h
            lm = mse(forward(params[:i] + [(w, bm)] + params[i + 1 :], x), y)
            gb[j] = (lp - lm) / (2 * h)
        grads.append((gw, gb))
    return grads


def reference_activations(params, x):
    """Forward pass as first written, with a fresh array per operation:
    the input, every hidden activation, then the output."""
    acts = [x]
    for w, b in params[:-1]:
        acts.append(np.maximum(0.0, acts[-1] @ w + b))
    w, b = params[-1]
    return acts + [acts[-1] @ w + b]


def reference_gradients(params, x, y):
    """Backpropagation as first written, with a fresh array per operation."""
    *acts, out = reference_activations(params, x)
    delta = 2.0 * (out - y) / out.size
    grads = []
    for layer in range(len(params) - 1, -1, -1):
        w, _ = params[layer]
        grads.append((acts[layer].T @ delta, delta.sum(axis=0)))
        if layer > 0:
            delta = (delta @ w.T) * (acts[layer] > 0.0)
    grads.reverse()
    return grads


def reference_train(x, y, spec, cfg):
    """The training loop as first written: per-batch gathers, rebuilt
    parameter lists and deep-copied snapshots. The reference for `train`."""
    train_idx, val_idx = net.split_indices(len(x), cfg.train_fraction, cfg.seed)
    x_norm = Normalizer.fit(x[train_idx])
    y_norm = Normalizer.fit(y[train_idx], np.zeros(y.shape[1], dtype=bool))
    xt, yt = x_norm.transform(x[train_idx]), y_norm.transform(y[train_idx])
    xv, yv = x_norm.transform(x[val_idx]), y_norm.transform(y[val_idx])
    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)
    history = {"train_mse": [], "val_mse": [], "lr": []}
    best_val, best_params, best_epoch = np.inf, copy.deepcopy(params), -1
    for epoch in range(cfg.epochs):
        lr = cfg.initial_lr * cfg.lr_decay_factor ** (epoch // cfg.decay_every_epochs)
        order = rng.permutation(len(xt))
        for start in range(0, len(xt), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = reference_gradients(params, xt[batch], yt[batch])
            params = [
                (w - lr * gw, b - lr * gb) for (w, b), (gw, gb) in zip(params, grads)
            ]
        train_mse = mse(reference_activations(params, xt)[-1], yt)
        val_mse = mse(reference_activations(params, xv)[-1], yv)
        history["train_mse"].append(train_mse)
        history["val_mse"].append(val_mse)
        history["lr"].append(lr)
        if val_mse < best_val:
            best_val, best_params, best_epoch = val_mse, copy.deepcopy(params), epoch
    return history, best_params, best_epoch


def assert_same_network(got, want):
    """Bit-for-bit equality of two fitted networks and their records."""
    assert got.spec == want.spec
    assert got.config == want.config
    assert got.log_target == want.log_target
    assert got.history == want.history
    assert got.best_epoch == want.best_epoch
    for norm, ref in ((got.x_norm, want.x_norm), (got.y_norm, want.y_norm)):
        assert np.array_equal(norm.lo, ref.lo) and np.array_equal(norm.hi, ref.hi)
        assert np.array_equal(norm.mask, ref.mask)
    assert len(got.params) == len(want.params)
    for (w, b), (w_ref, b_ref) in zip(got.params, want.params):
        assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)


def gradient_relative_error(params, x, y):
    analytic = loss_gradients(params, x, y)
    numeric = numeric_gradients(params, x, y)
    a = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in analytic])
    n = np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in numeric])
    return np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n))


class TestNormalizer:
    def test_bounds_and_midpoint(self):
        norm = Normalizer.fit(np.array([[1.0, 10.0], [3.0, 30.0]]))
        assert np.allclose(norm.transform(np.array([1.0, 10.0])), [0.0, 0.0])
        assert np.allclose(norm.transform(np.array([3.0, 30.0])), [1.0, 1.0])
        assert np.allclose(norm.transform(np.array([2.0, 20.0])), [0.5, 0.5])

    def test_passthrough_columns(self):
        mask = np.array([True, False])
        norm = Normalizer.fit(np.array([[0.0, 5.0], [2.0, 7.0]]), mask)
        out = norm.transform(np.array([1.0, 6.0]))
        assert np.allclose(out, [0.5, 6.0])

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError, match="columns \\[1\\]"):
            Normalizer.fit(np.array([[0.0, 3.0], [1.0, 3.0]]))

    @settings(max_examples=50, deadline=None)
    @given(
        vals=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
        probe=st.floats(-2e6, 2e6),
    )
    def test_round_trip_identity(self, vals, probe):
        lo, hi = min(vals), max(vals)
        if hi - lo < 1e-6:
            return
        norm = Normalizer(np.array([lo]), np.array([hi]), np.array([True]))
        back = norm.inverse(norm.transform(np.array([probe])))
        assert abs(back[0] - probe) <= 1e-12 * max(1.0, abs(probe), hi - lo)


class TestForward:
    def test_zero_params_zero_output(self):
        params = [(np.zeros((3, 4)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(2))]
        assert np.allclose(forward(params, np.ones(3)), 0.0)

    def test_single_linear_identity(self):
        params = [(np.eye(3), np.zeros(3))]
        x = np.array([0.3, -1.2, 4.0])
        assert np.allclose(forward(params, x), x)

    def test_repeat_call_identical(self):
        rng = np.random.default_rng(0)
        params = init_params(NetworkSpec((5, 20, 10, 1)), rng)
        x = rng.normal(size=(7, 5))
        assert np.array_equal(forward(params, x), forward(params, x))

    def test_dimension_mismatch(self):
        params = [(np.eye(3), np.zeros(3))]
        with pytest.raises(ValueError):
            forward(params, np.ones(4))


class TestMse:
    def test_perfect(self):
        assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_arithmetic(self):
        assert mse(np.array([1.0, 1.0]), np.array([0.0, 2.0])) == pytest.approx(1.0)

    def test_homogeneity(self):
        y = np.array([0.0, 2.0, -1.0])
        p = np.array([1.0, 1.0, 1.0])
        base = mse(p, y)
        assert mse(y + 3 * (p - y), y) == pytest.approx(9 * base)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse(np.array([]), np.array([]))


class TestAccuracyAtTolerance:
    def test_inside_band(self):
        assert accuracy_at_tolerance(np.array([1.10]), np.array([1.0]), 0.15) == 1.0

    def test_outside_band(self):
        assert accuracy_at_tolerance(np.array([1.20]), np.array([1.0]), 0.15) == 0.0

    def test_perfect_at_every_tolerance(self):
        y = np.linspace(-3, 3, 11)
        for tol in (0.05, 0.10, 0.15, 0.20):
            assert accuracy_at_tolerance(y, y, tol) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tol_pair=st.tuples(st.floats(0.01, 0.5), st.floats(0.01, 0.5)),
    )
    def test_monotone_in_tolerance(self, seed, tol_pair):
        rng = np.random.default_rng(seed)
        y = rng.normal(size=30)
        p = y + rng.normal(scale=0.2, size=30)
        lo, hi = sorted(tol_pair)
        assert accuracy_at_tolerance(p, y, lo) <= accuracy_at_tolerance(p, y, hi)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        # 20 random small nets; random biases keep preactivations away from
        # relu kinks, where the two-sided difference would be invalid.
        failures = []
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            sizes = (
                int(rng.integers(2, 5)),
                int(rng.integers(3, 8)),
                int(rng.integers(2, 6)),
                int(rng.integers(1, 3)),
            )
            params = random_kink_free_params(rng, sizes)
            x = rng.normal(size=(6, sizes[0]))
            y = rng.normal(size=(6, sizes[-1]))
            err = gradient_relative_error(params, x, y)
            if err > 1e-4:
                failures.append((seed, err))
        assert not failures, f"gradient mismatches: {failures}"

    def test_small_step_does_not_increase_loss(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            spec = NetworkSpec((3, 8, 4, 2))
            params = init_params(spec, rng)
            x = rng.normal(size=(16, 3))
            y = rng.normal(size=(16, 2))
            before = mse(forward(params, x), y)
            grads = loss_gradients(params, x, y)
            stepped = [
                (w - 1e-6 * gw, b - 1e-6 * gb)
                for (w, b), (gw, gb) in zip(params, grads)
            ]
            after = mse(forward(stepped, x), y)
            assert after <= before + 1e-15


class TestTrain:
    def test_learns_affine_function(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(0, 1, size=(1000, 1))
        y = 2 * x + 1
        cfg = TrainConfig(initial_lr=5e-2, epochs=200, batch_size=32, seed=42)
        model = train(x, y, NetworkSpec((1, 20, 10, 1)), cfg)
        assert model.history["val_mse"][model.best_epoch] < 1e-3

    def test_deterministic_history(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(200, 2))
        y = (x[:, :1] - x[:, 1:]) ** 2
        cfg = TrainConfig(epochs=20, seed=9)
        h1 = train(x, y, NetworkSpec((2, 8, 4, 1)), cfg).history
        h2 = train(x, y, NetworkSpec((2, 8, 4, 1)), cfg).history
        assert h1["train_mse"] == h2["train_mse"]
        assert h1["val_mse"] == h2["val_mse"]

    @pytest.mark.parametrize("sizes", [(5, 20, 10, 1), (3, 12, 8, 6, 2)])
    def test_matches_reference_loop_exactly(self, sizes):
        # The in-place loop must do the reference's arithmetic bit for bit;
        # 490 training rows leave a partial last batch.
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 2, size=(612, sizes[0]))
        y = np.sin(x @ rng.normal(size=(sizes[0], sizes[-1])))
        cfg = TrainConfig(epochs=7, decay_every_epochs=3, seed=4)
        model = train(x, y, NetworkSpec(sizes), cfg)
        history, params, best_epoch = reference_train(x, y, NetworkSpec(sizes), cfg)
        assert model.history == history
        assert model.best_epoch == best_epoch
        assert len(model.params) == len(params)
        for (w, b), (w_ref, b_ref) in zip(model.params, params):
            assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)

    def test_divergence_reports_epoch(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, size=(100, 1))
        y = 100 * x
        cfg = TrainConfig(initial_lr=1e6, epochs=50, seed=0)
        with pytest.raises(net.TrainingDiverged) as exc:
            train(x, y, NetworkSpec((1, 8, 4, 1)), cfg)
        assert exc.value.epoch >= 0

    def test_divergence_survives_a_pickle_round_trip(self):
        # A worker process hands its TrainingDiverged back pickled.
        error = net.TrainingDiverged(3)
        again = pickle.loads(pickle.dumps(error))
        assert type(again) is net.TrainingDiverged
        assert again.epoch == error.epoch == 3
        assert str(again) == str(error) == "training loss became non-finite at epoch 3"

    def test_learning_rate_schedule(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, size=(50, 1))
        y = x.copy()
        cfg = TrainConfig(
            initial_lr=1e-3, lr_decay_factor=0.5, decay_every_epochs=4, epochs=10, seed=1
        )
        model = train(x, y, NetworkSpec((1, 4, 2, 1)), cfg)
        assert model.history["lr"][:4] == [1e-3] * 4
        assert model.history["lr"][4:8] == [5e-4] * 4
        assert model.history["lr"][8:] == [2.5e-4] * 2

    def test_split_is_deterministic_and_disjoint(self):
        tr1, va1 = net.split_indices(100, 0.8, seed=5)
        tr2, va2 = net.split_indices(100, 0.8, seed=5)
        assert np.array_equal(tr1, tr2) and np.array_equal(va1, va2)
        assert len(tr1) == 80 and len(va1) == 20
        assert not set(tr1) & set(va1)

    def test_log_target_fits_a_product_of_factors(self):
        # Targets spanning two decades; their log is affine in the inputs.
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(1000, 2))
        y = 1e-4 * np.exp(3.0 * x[:, :1] - 1.6 * x[:, 1:])
        cfg = TrainConfig(initial_lr=5e-2, epochs=100, batch_size=32, seed=8)
        model = train(
            x, y, NetworkSpec((2, 20, 10, 1)), cfg, y_mask=np.array([True]),
            log_target=True,
        )
        assert model.log_target
        pred = model.predict(x)
        assert (pred > 0).all()
        assert net.accuracy_at_tolerance(pred, y, 0.05) > 0.9

    def test_log_target_rejects_non_positive_targets(self):
        x = np.linspace(0, 1, 20)[:, None]
        y = np.linspace(0, 1, 20)[:, None]
        with pytest.raises(ValueError, match="positive"):
            train(x, y, NetworkSpec((1, 4, 2, 1)), TrainConfig(epochs=1), log_target=True)


class TestTrainStack:
    SPEC = NetworkSpec((4, 12, 8, 2))

    def job(self, seed, log_target=False, y_scale=1.0):
        # Each job has its own data, scaling and log target; 490 training
        # rows leave a partial last batch.
        rng = np.random.default_rng(100 + seed)
        x = rng.uniform(-1, 2, size=(612, 4))
        y = y_scale * np.exp(np.sin(x @ rng.normal(size=(4, 2))))
        cfg = TrainConfig(epochs=7, decay_every_epochs=3, seed=seed)
        return net.TrainJob(
            x, y, self.SPEC, cfg, y_mask=np.array([True, log_target]),
            log_target=log_target,
        )

    def test_matches_separate_training_exactly(self):
        jobs = [self.job(4), self.job(5, log_target=True), self.job(6)]
        stacked = net.train_stack(iter(jobs))
        assert len(stacked) == 3
        for job, got in zip(jobs, stacked):
            assert_same_network(got, train(*job))

    def test_diverging_member_leaves_the_stack(self):
        # Unscaled targets near 1e200 overflow the loss; the stack-mates
        # must come out as if trained alone.
        jobs = [self.job(4), self.job(5, y_scale=1e200), self.job(6)]
        jobs[1] = jobs[1]._replace(y_mask=None)
        stacked = net.train_stack(jobs)
        with pytest.raises(net.TrainingDiverged) as alone:
            train(*jobs[1])
        assert isinstance(stacked[1], net.TrainingDiverged)
        assert stacked[1].epoch == alone.value.epoch
        for k in (0, 2):
            assert_same_network(stacked[k], train(*jobs[k]))

    def test_every_member_diverging(self):
        jobs = [self.job(seed, y_scale=1e200)._replace(y_mask=None) for seed in (1, 2)]
        assert all(isinstance(r, net.TrainingDiverged) for r in net.train_stack(jobs))

    def test_rejects_mixed_shapes_and_configs(self):
        job = self.job(4)
        other_cfg = job._replace(cfg=TrainConfig(epochs=6, seed=5))
        with pytest.raises(ValueError, match="but the seed"):
            net.train_stack([job, other_cfg])
        other_spec = job._replace(spec=NetworkSpec((4, 12, 6, 2)))
        with pytest.raises(ValueError, match="layer sizes"):
            net.train_stack([job, other_spec])
        with pytest.raises(ValueError, match="at least one"):
            net.train_stack([])
