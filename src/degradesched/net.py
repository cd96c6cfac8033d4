"""Minimal fully-connected neural network.

Feature min-max scaling, an optional log-scaled target, relu/linear forward
pass, analytic backpropagation (one layer loop serves both), mini-batch
gradient descent with a stepwise-decaying learning rate, MSE loss and the
relative-tolerance accuracy metric used in the report tables.

Networks of one layer shape train as one stack (`train_stack`): each
minibatch step is one batched matmul pass for all of them, and every network
comes out bit-identical to training it alone with `train`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

# Floor for the |target| denominator in relative-tolerance accuracy.
ACCURACY_EPS = 1e-9


class TrainingDiverged(RuntimeError):
    """Raised when the training loss becomes non-finite."""

    def __init__(self, epoch: int):
        super().__init__(f"training loss became non-finite at epoch {epoch}")
        self.epoch = epoch

    def __reduce__(self):
        # Rebuild from the epoch, not from args (the message), so the error
        # reads the same after a pickle round trip out of a worker process.
        return type(self), (self.epoch,)


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
        if not 0 < self.initial_lr < math.inf:
            raise ValueError(f"initial_lr must be a finite positive number: {self.initial_lr}")
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


def _activations(params: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray):
    """Yield each layer's output in turn: the relu hiddens, then the linear output.

    Takes one network or a stack of K, shaped as for `loss_gradients`; this is
    the one layer loop, shared by `forward` and backpropagation.
    """
    h = x
    for w, b in params[:-1]:
        h = h @ w
        h += b[..., None, :]
        np.maximum(0.0, h, out=h)
        yield h
    w, b = params[-1]
    yield h @ w + b[..., None, :]


def forward(params: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Forward pass; x is (n, d_in) or (d_in,), relu hiddens, linear output."""
    h = np.atleast_2d(np.asarray(x, dtype=float))
    if h.shape[1] != params[0][0].shape[0]:
        raise ValueError(
            f"input has {h.shape[1]} features, network expects {params[0][0].shape[0]}"
        )
    *_, out = _activations(params, h)
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
    """Gradients of mean-squared-error loss w.r.t. every weight and bias.

    Takes one network (w is (n_in, n_out), b is (n_out,), x is (n, d_in)) or
    a stack of K (w is (K, n_in, n_out), b is (K, n_out), x is (K, n, d_in));
    each stacked network's loss is the mean over its own entries.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    *acts, out = x, *_activations(params, x)

    # d(loss)/d(out) for loss = mean over one network's entries of (out - y)^2.
    delta = 2.0 * (out - y) / (out.shape[-2] * out.shape[-1])
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for layer in range(len(params) - 1, -1, -1):
        w, _ = params[layer]
        a_prev = acts[layer]
        grads.append((a_prev.swapaxes(-1, -2) @ delta, np.add.reduce(delta, axis=-2)))
        if layer > 0:
            delta = (delta @ w.swapaxes(-1, -2)) * (acts[layer] > 0.0)
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


class TrainJob(NamedTuple):
    """One network to fit: the arguments of `train`, in its order."""

    x: np.ndarray
    y: np.ndarray
    spec: NetworkSpec
    cfg: TrainConfig
    x_mask: np.ndarray | None = None
    y_mask: np.ndarray | None = None
    split: tuple[np.ndarray, np.ndarray] | None = None
    log_target: bool = False


def _prepare(
    job: TrainJob,
) -> tuple[Normalizer, Normalizer, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Check a job's data, split it and fit its normalizers on the training rows.

    Returns the two normalizers and the scaled (xt, yt, xv, yv).
    """
    x, y, spec, cfg, x_mask, y_mask, split, log_target = job
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
    scaled = (
        x_norm.transform(x[train_idx]),
        y_norm.transform(y[train_idx]),
        x_norm.transform(x[val_idx]),
        y_norm.transform(y[val_idx]),
    )
    return x_norm, y_norm, scaled


def train_stack(jobs: Iterable[TrainJob]) -> list[TrainedNetwork | TrainingDiverged]:
    """Fit K networks of one layer shape as one stack.

    The jobs must share their spec and every TrainConfig field but the seed,
    and their splits must have equal train and validation sizes. Each weight
    is held as a (K, n_in, n_out) stack and each bias as (K, n_out), so a
    minibatch step is one batched forward/backward/update for all K.

    Each job's TrainedNetwork is built up front and is its only record:
    params hold the initial draw, then the snapshot of each epoch whose
    validation MSE is below its best epoch's; history and best_epoch fill in
    place. Beside it the stack keeps only the network's generator (init
    draws, then one permutation per epoch) and scaled data. Every network
    comes out bit-identical to fitting its job alone with `train`.

    Jobs are prepared one at a time, so a generator lets the caller build
    each network's inputs only as the stack is assembled.

    A stack is one unit of work and shares no state with another:
    `quantifier.fit_networks` trains each stack as one task, in a pool of
    min(CPUs, stacks) worker processes when both numbers are 2 or more.

    Returns one entry per job, in order: the fitted network, or the
    TrainingDiverged of a network whose loss became non-finite. A diverged
    network leaves the stack and the others train on.
    """
    nets: list[TrainedNetwork | TrainingDiverged] = []
    rngs: list[np.random.Generator] = []
    data: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    for job in jobs:
        if not nets:
            spec, cfg = job.spec, job.cfg
        elif job.spec != spec or replace(job.cfg, seed=cfg.seed) != cfg:
            raise ValueError(
                "stacked networks must share their layer sizes and every "
                "TrainConfig field but the seed"
            )
        x_norm, y_norm, scaled = _prepare(job)
        rng = np.random.default_rng(job.cfg.seed)
        history = {"train_mse": [], "val_mse": [], "lr": []}
        nets.append(TrainedNetwork(spec, init_params(spec, rng), x_norm, y_norm, job.cfg,
                                   history, log_target=job.log_target))
        rngs.append(rng)
        data.append(scaled)
    if not nets:
        raise ValueError("need at least one network to train")
    if len({(len(xt), len(xv)) for xt, _, xv, _ in data}) > 1:
        raise ValueError("stacked networks need equal train and validation sizes")

    params = [
        (np.stack([n.params[i][0] for n in nets]), np.stack([n.params[i][1] for n in nets]))
        for i in range(len(spec.layer_sizes) - 1)
    ]
    alive = list(range(len(nets)))  # the job index of each network in the stack
    (n_train, n_in), n_out = data[0][0].shape, spec.n_outputs
    # A diverging network overflows on its way to a non-finite loss; the
    # finite-loss check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.initial_lr * cfg.lr_decay_factor ** (epoch // cfg.decay_every_epochs)
            # One shuffled copy per network and epoch; the minibatches are views
            # of it. It is freed before the evaluation passes to bound the peak.
            xs = np.empty((len(alive), n_train, n_in))
            ys = np.empty((len(alive), n_train, n_out))
            for k, j in enumerate(alive):
                order = rngs[j].permutation(n_train)
                xs[k], ys[k] = data[j][0][order], data[j][1][order]
            for start in range(0, n_train, cfg.batch_size):
                stop = start + cfg.batch_size
                _sgd_step(params, xs[:, start:stop], ys[:, start:stop], lr)
            del xs, ys

            keep = []
            for k, j in enumerate(alive):
                xt, yt, xv, yv = data[j]
                own = [(w[k], b[k]) for w, b in params]
                train_mse = mse(forward(own, xt), yt)
                val_mse = mse(forward(own, xv), yv)
                if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
                    nets[j] = TrainingDiverged(epoch)
                    continue
                keep.append(k)
                net = nets[j]
                net.history["train_mse"].append(train_mse)
                net.history["val_mse"].append(val_mse)
                net.history["lr"].append(lr)
                if net.best_epoch < 0 or val_mse < net.history["val_mse"][net.best_epoch]:
                    net.params = [(w.copy(), b.copy()) for w, b in own]
                    net.best_epoch = epoch
            if len(keep) < len(alive):
                alive = [alive[k] for k in keep]
                if not alive:
                    break
                params = [(w[keep], b[keep]) for w, b in params]

    return nets


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
    the parameters from the epoch with the lowest validation MSE; raises
    TrainingDiverged if the loss becomes non-finite.

    x_mask / y_mask select which input/target columns are min-max scaled;
    x_mask defaults to all inputs, y_mask to no targets. With log_target the
    network is fitted to log(y), scaled per y_mask, so the targets must be
    positive; the returned network predicts in the units of y.

    This is `train_stack` with a stack of one.
    """
    [result] = train_stack([TrainJob(x, y, spec, cfg, x_mask, y_mask, split, log_target)])
    if isinstance(result, TrainingDiverged):
        raise result
    return result
