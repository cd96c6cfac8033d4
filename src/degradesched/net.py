"""Minimal fully-connected neural network.

Feature min-max scaling, an optional log-scaled target, relu/linear forward
pass, analytic backpropagation, mini-batch gradient descent with a
stepwise-decaying learning rate, MSE loss and the relative-tolerance accuracy
metric used in the report tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Floor for the |target| denominator in relative-tolerance accuracy.
ACCURACY_EPS = 1e-9


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class NetworkSpec:
    """Layer sizes of a fully-connected net, input through output.

    Hidden layers use relu, the output layer is linear.
    """

    layer_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.layer_sizes) < 3:
            raise ValueError(
                f"need at least one hidden layer, got sizes {self.layer_sizes}"
            )
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"all layer sizes must be >= 1: {self.layer_sizes}")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


class Normalizer:
    """Column-wise min-max scaling for a selected subset of features.

    Masked columns are mapped affinely onto [0, 1] by their fitted range;
    unmasked columns pass through unchanged. Values outside the fitted range
    extrapolate linearly.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, mask: np.ndarray):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if not (lo.shape == hi.shape == mask.shape):
            raise ValueError("lo, hi and mask must have identical shapes")
        degenerate = mask & (hi <= lo)
        if degenerate.any():
            cols = np.flatnonzero(degenerate).tolist()
            raise ValueError(f"degenerate range (max <= min) for columns {cols}")
        self.lo = lo
        self.hi = hi
        self.mask = mask

    @classmethod
    def fit(cls, x: np.ndarray, mask: np.ndarray | None = None) -> "Normalizer":
        """Fit column ranges on x; mask defaults to scaling every column."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if mask is None:
            mask = np.ones(x.shape[1], dtype=bool)
        return cls(x.min(axis=0), x.max(axis=0), mask)

    def transform(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = x.copy()
        span = self.hi[self.mask] - self.lo[self.mask]
        out[..., self.mask] = (x[..., self.mask] - self.lo[self.mask]) / span
        return out

    def inverse(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = x.copy()
        span = self.hi[self.mask] - self.lo[self.mask]
        out[..., self.mask] = x[..., self.mask] * span + self.lo[self.mask]
        return out


@dataclass
class TrainConfig:
    """Mini-batch gradient-descent settings.

    The learning rate at epoch e is
    ``initial_lr * lr_decay_factor ** (e // decay_every_epochs)``. The
    defaults are tuned so the loss curve settles within the first couple
    hundred epochs on the bundled aging datasets.
    """

    initial_lr: float = 4e-2
    lr_decay_factor: float = 0.5
    decay_every_epochs: int = 60
    batch_size: int = 64
    epochs: int = 450
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.initial_lr <= 0:
            raise ValueError(f"initial_lr must be positive: {self.initial_lr}")
        if not 0 < self.lr_decay_factor <= 1:
            raise ValueError(f"lr_decay_factor out of (0, 1]: {self.lr_decay_factor}")
        if self.decay_every_epochs < 1 or self.batch_size < 1 or self.epochs < 1:
            raise ValueError("decay_every_epochs, batch_size and epochs must be >= 1")
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train_fraction out of (0, 1): {self.train_fraction}")


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """Glorot-uniform weights, zero biases."""
    params = []
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        w = rng.uniform(-limit, limit, size=(n_in, n_out))
        params.append((w, np.zeros(n_out)))
    return params


def forward(params: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Forward pass; x is (n, d_in) or (d_in,), relu hiddens, linear output."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    if h.shape[1] != params[0][0].shape[0]:
        raise ValueError(
            f"input has {h.shape[1]} features, network expects {params[0][0].shape[0]}"
        )
    for w, b in params[:-1]:
        h = h @ w
        h += b
        np.maximum(0.0, h, out=h)
    w, b = params[-1]
    out = h @ w + b
    return out[0] if np.asarray(x).ndim == 1 else out


def mse(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Mean squared error over all entries."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("mse of empty input is undefined")
    return float(np.mean((predictions - targets) ** 2))


def loss_gradients(
    params: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, y: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of mean-squared-error loss w.r.t. every weight and bias."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))

    # Forward, keeping activations.
    acts = [x]
    h = x
    for w, b in params[:-1]:
        h = h @ w
        h += b
        np.maximum(0.0, h, out=h)
        acts.append(h)
    w, b = params[-1]
    out = h @ w + b

    # d(loss)/d(out) for loss = mean over all entries of (out - y)^2.
    delta = 2.0 * (out - y) / out.size
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for layer in range(len(params) - 1, -1, -1):
        w, _ = params[layer]
        a_prev = acts[layer]
        grads.append((a_prev.T @ delta, np.add.reduce(delta, axis=0)))
        if layer > 0:
            delta = (delta @ w.T) * (acts[layer] > 0.0)
    grads.reverse()
    return grads


def accuracy_at_tolerance(
    predictions: np.ndarray, targets: np.ndarray, tol: float
) -> float:
    """Fraction of samples with |pred - target| <= tol * max(|target|, eps)."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive: {tol}")
    predictions = np.asarray(predictions, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size == 0:
        raise ValueError("accuracy of empty input is undefined")
    band = tol * np.maximum(np.abs(targets), ACCURACY_EPS)
    return float(np.mean(np.abs(predictions - targets) <= band))


@dataclass
class TrainedNetwork:
    """A fitted network with its feature scaling and training history.

    With log_target set, the network was fitted to the natural log of the
    targets (y_norm then ranges over log values) and predict exponentiates.
    """

    spec: NetworkSpec
    params: list[tuple[np.ndarray, np.ndarray]]
    x_norm: Normalizer
    y_norm: Normalizer
    config: TrainConfig
    history: dict = field(default_factory=dict)
    best_epoch: int = -1
    log_target: bool = False

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predict in physical units from raw (unnormalized) inputs."""
        out = self.y_norm.inverse(forward(self.params, self.x_norm.transform(x)))
        return np.exp(out) if self.log_target else out


def _sgd_step(
    params: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray, y: np.ndarray, lr: float
) -> None:
    """One gradient-descent step on a minibatch, updating params in place."""
    for (w, b), (gw, gb) in zip(params, loss_gradients(params, x, y)):
        w -= lr * gw
        b -= lr * gb


def split_indices(
    n: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/validation index split."""
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1)
    return order[:n_train], order[n_train:]


def train(
    x: np.ndarray,
    y: np.ndarray,
    spec: NetworkSpec,
    cfg: TrainConfig,
    x_mask: np.ndarray | None = None,
    y_mask: np.ndarray | None = None,
    split: tuple[np.ndarray, np.ndarray] | None = None,
    log_target: bool = False,
) -> TrainedNetwork:
    """Fit a network with mini-batch gradient descent.

    Splits (x, y) into train/validation by a seeded shuffle (or uses the
    provided index split), fits the feature normalizers on the training split
    only, then runs the configured epochs of shuffled mini-batches. Returns
    the parameters from the epoch with the lowest validation MSE.

    x_mask / y_mask select which input/target columns are min-max scaled;
    x_mask defaults to all inputs, y_mask to no targets. With log_target the
    network is fitted to log(y), scaled per y_mask, so the targets must be
    positive; the returned network predicts in the units of y.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        y = y[:, None]
    if len(x) != len(y):
        raise ValueError(f"x has {len(x)} rows, y has {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 samples to split")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise ValueError("inputs and targets must be finite")
    if x.shape[1] != spec.n_inputs or y.shape[1] != spec.n_outputs:
        raise ValueError(
            f"data is {x.shape[1]}->{y.shape[1]}, spec is "
            f"{spec.n_inputs}->{spec.n_outputs}"
        )
    if log_target:
        if (y <= 0).any():
            raise ValueError(
                f"log-scaled targets must be positive, got minimum {y.min()}"
            )
        y = np.log(y)

    if split is None:
        train_idx, val_idx = split_indices(len(x), cfg.train_fraction, cfg.seed)
    else:
        train_idx, val_idx = (np.asarray(s, dtype=int) for s in split)

    if y_mask is None:
        y_mask = np.zeros(y.shape[1], dtype=bool)
    x_norm = Normalizer.fit(x[train_idx], x_mask)
    y_norm = Normalizer.fit(y[train_idx], y_mask)

    xt, yt = x_norm.transform(x[train_idx]), y_norm.transform(y[train_idx])
    xv, yv = x_norm.transform(x[val_idx]), y_norm.transform(y[val_idx])

    rng = np.random.default_rng(cfg.seed)
    params = init_params(spec, rng)

    history: dict = {"train_mse": [], "val_mse": [], "lr": []}
    best_val = np.inf
    best_params = [(w.copy(), b.copy()) for w, b in params]
    best_epoch = -1

    n_train, batch_size = len(xt), cfg.batch_size
    for epoch in range(cfg.epochs):
        lr = cfg.initial_lr * cfg.lr_decay_factor ** (epoch // cfg.decay_every_epochs)
        # One shuffled copy per epoch; the minibatches are views of it.
        order = rng.permutation(n_train)
        xs, ys = xt[order], yt[order]
        for start in range(0, n_train, batch_size):
            stop = start + batch_size
            _sgd_step(params, xs[start:stop], ys[start:stop], lr)
        train_mse = mse(forward(params, xt), yt)
        val_mse = mse(forward(params, xv), yv)
        if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
            raise TrainingDiverged(epoch)
        history["train_mse"].append(train_mse)
        history["val_mse"].append(val_mse)
        history["lr"].append(lr)
        if val_mse < best_val:
            best_val = val_mse
            best_params = [(w.copy(), b.copy()) for w, b in params]
            best_epoch = epoch

    return TrainedNetwork(
        spec=spec,
        params=best_params,
        x_norm=x_norm,
        y_norm=y_norm,
        config=cfg,
        history=history,
        best_epoch=best_epoch,
        log_target=log_target,
    )
