"""Minimal fully-connected neural network.

Feature min-max scaling, an optional log-scaled target, relu/linear forward
pass, analytic backpropagation (one layer loop serves both), mini-batch
gradient descent with a stepwise-decaying learning rate, MSE loss and the
relative-tolerance accuracy metric used in the report tables.

Networks of one layer shape train as one stack (`train_stack`): each
minibatch step is one batched matmul pass and one in-place update for all of
them, and every network comes out bit-identical to training it alone with
`train`.
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
        # transform's (x - shift) / scale: unmasked columns subtract 0 and
        # divide by 1, which leave every float's bits as they are.
        self._shift = np.where(mask, lo, 0.0)
        self._scale = np.where(mask, hi - lo, 1.0)

    @classmethod
    def fit(cls, x: np.ndarray, mask: np.ndarray | None = None) -> "Normalizer":
        """Fit column ranges on x; mask defaults to scaling every column."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if mask is None:
            mask = np.ones(x.shape[1], dtype=bool)
        return cls(x.min(axis=0), x.max(axis=0), mask)

    def transform(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(x, dtype=float) - self._shift
        out /= self._scale  # in place: a second (n, d) array costs more than the division
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
    out = h @ w
    out += b[..., None, :]
    yield out


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
    params: list[tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    y: np.ndarray,
    out: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Gradients of mean-squared-error loss w.r.t. every weight and bias.

    Takes one network (w is (n_in, n_out), b is (n_out,), x is (n, d_in)) or
    a stack of K (w is (K, n_in, n_out), b is (K, n_out), x is (K, n, d_in));
    each stacked network's loss is the mean over its own entries. Each
    gradient has its parameter's shape and is written into `out`, one
    (gw, gb) per layer, when given (`train_stack` passes views of one flat
    buffer); otherwise into new arrays. Returns the gradients.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    *acts, pred = x, *_activations(params, x)
    if out is None:
        out = [(np.empty_like(w), np.empty_like(b)) for w, b in params]

    # d(loss)/d(pred) for loss = mean over one network's entries of (pred - y)^2,
    # 2 (pred - y) / entries, computed in place of pred.
    delta = pred
    delta -= y
    delta *= 2.0
    delta /= pred.shape[-2] * pred.shape[-1]
    for layer in range(len(params) - 1, -1, -1):
        w, _ = params[layer]
        gw, gb = out[layer]
        np.matmul(acts[layer].swapaxes(-1, -2), delta, out=gw)
        np.add.reduce(delta, axis=-2, out=gb)
        if layer > 0:
            delta = delta @ w.swapaxes(-1, -2)
            delta *= acts[layer] > 0.0
    return out


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


def _layer_views(flat: np.ndarray, spec: NetworkSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (w, b) of a stack as views of its (K, n_params) buffer.

    A network's row holds layer 0's weights (row-major), then its biases,
    then layer 1's, and so on; w is (K, n_in, n_out) and b is (K, n_out).
    """
    views, start = [], 0
    for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
        w = flat[:, start:start + n_in * n_out].reshape(len(flat), n_in, n_out)
        start += n_in * n_out
        views.append((w, flat[:, start:start + n_out]))
        start += n_out
    return views


def split_indices(
    n: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/validation index split; n must be >= 2."""
    if n < 2:
        raise ValueError(f"need at least 2 rows, one to train on and one to validate, got {n}")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(n * train_fraction))
    n_train = min(max(n_train, 1), n - 1)
    return order[:n_train], order[n_train:]


class TrainJob(NamedTuple):
    """One network to fit: its training and validation rows, then `train`'s other arguments."""

    xt: np.ndarray
    yt: np.ndarray
    xv: np.ndarray
    yv: np.ndarray
    spec: NetworkSpec
    cfg: TrainConfig
    x_mask: np.ndarray | None = None
    y_mask: np.ndarray | None = None
    log_target: bool = False


def _prepare(
    job: TrainJob,
) -> tuple[Normalizer, Normalizer, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Check a job's training and validation rows alike; fit its normalizers on the former.

    Returns the two normalizers and the scaled (xt, yt, xv, yv).
    """
    *rows, spec, _, x_mask, y_mask, log_target = job
    xt, xv = (np.atleast_2d(np.asarray(x, dtype=float)) for x in rows[::2])
    yt, yv = (np.asarray(y, dtype=float).reshape(len(y), -1) for y in rows[1::2])
    for kind, x, y in (("training", xt, yt), ("validation", xv, yv)):
        if len(x) != len(y):
            raise ValueError(f"x has {len(x)} {kind} rows, y has {len(y)}")
        if len(x) < 1:
            raise ValueError(f"need at least 1 {kind} row")
        if not np.isfinite(x).all() or not np.isfinite(y).all():
            raise ValueError("inputs and targets must be finite")
        if x.shape[1] != spec.n_inputs or y.shape[1] != spec.n_outputs:
            raise ValueError(
                f"data is {x.shape[1]}->{y.shape[1]}, spec is "
                f"{spec.n_inputs}->{spec.n_outputs}"
            )
    if log_target:
        if (yt <= 0).any() or (yv <= 0).any():
            raise ValueError(
                f"log-scaled targets must be positive, got minimum {min(yt.min(), yv.min())}"
            )
        yt, yv = np.log(yt), np.log(yv)

    if y_mask is None:
        y_mask = np.zeros(yt.shape[1], dtype=bool)
    x_norm = Normalizer.fit(xt, x_mask)
    y_norm = Normalizer.fit(yt, y_mask)
    scaled = x_norm.transform(xt), y_norm.transform(yt), x_norm.transform(xv), y_norm.transform(yv)
    return x_norm, y_norm, scaled


def train_stack(jobs: Iterable[TrainJob]) -> list[TrainedNetwork | TrainingDiverged]:
    """Fit K networks of one layer shape as one stack.

    The jobs must share their spec, every TrainConfig field but the seed, and
    their numbers of training and validation rows. Each weight
    is held as a (K, n_in, n_out) stack and each bias as (K, n_out), all of
    them views of one (K, n_params) buffer (`_layer_views`), so a minibatch
    step is one batched forward/backward pass for all K, whose gradients
    `loss_gradients` writes into a matching buffer, and one in-place update
    of the whole buffer.

    Each job's TrainedNetwork is built up front and is its only record:
    params hold the initial draw, then the snapshot of each epoch whose
    validation MSE is below its best epoch's; history and best_epoch fill in
    place. Beside it the stack keeps only the network's generator (init
    draws, then one permutation per epoch) and scaled data. Every network
    comes out bit-identical to fitting its job alone with `train`.

    Jobs are prepared one at a time, so a generator lets the caller build
    each network's inputs only as the stack is assembled. A stack shares no
    state with another, so stacks may train in separate processes.

    Returns one entry per job, in order: the fitted network, or the
    TrainingDiverged of a network whose loss became non-finite. A diverged
    network keeps its row, unevaluated, and the others train on unchanged: no
    row of a batched step reads another. The epochs stop once all have diverged.
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

    # A network's parameters are one row of `flat` and its gradients the same
    # row of `grad`, so one subtraction steps every network.
    flat = np.stack([np.concatenate([a.ravel() for wb in n.params for a in wb]) for n in nets])
    grad = np.empty_like(flat)
    params, grads = _layer_views(flat, spec), _layer_views(grad, spec)
    (n_train, n_in), n_out = data[0][0].shape, spec.n_outputs
    # A diverging network overflows on its way to a non-finite loss; the
    # finite-loss check below reports it. Its row keeps stepping, unread.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            lr = cfg.initial_lr * cfg.lr_decay_factor ** (epoch // cfg.decay_every_epochs)
            # One shuffled copy per network and epoch; the minibatches are views
            # of it. It is freed before the evaluation passes to bound the peak.
            xs = np.empty((len(nets), n_train, n_in))
            ys = np.empty((len(nets), n_train, n_out))
            for k, (rng, (xt, yt, _, _)) in enumerate(zip(rngs, data)):
                order = rng.permutation(n_train)
                xs[k], ys[k] = xt[order], yt[order]
            for start in range(0, n_train, cfg.batch_size):
                stop = start + cfg.batch_size
                loss_gradients(params, xs[:, start:stop], ys[:, start:stop], out=grads)
                flat -= lr * grad
            del xs, ys

            for k, (net, (xt, yt, xv, yv)) in enumerate(zip(nets, data)):
                if isinstance(net, TrainingDiverged):
                    continue
                own = [(w[k], b[k]) for w, b in params]
                train_mse = mse(forward(own, xt), yt)
                val_mse = mse(forward(own, xv), yv)
                if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
                    nets[k] = TrainingDiverged(epoch)
                    continue
                net.history["train_mse"].append(train_mse)
                net.history["val_mse"].append(val_mse)
                net.history["lr"].append(lr)
                if net.best_epoch < 0 or val_mse < net.history["val_mse"][net.best_epoch]:
                    net.params = [(w.copy(), b.copy()) for w, b in own]
                    net.best_epoch = epoch
            if all(isinstance(net, TrainingDiverged) for net in nets):
                break

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

    Splits (x, y) into train/validation rows by a seeded shuffle (or the
    provided index split), fits the feature normalizers on the training rows
    only, then runs the configured epochs of shuffled mini-batches. Returns
    the parameters from the epoch with the lowest validation MSE; raises
    TrainingDiverged if the loss becomes non-finite.

    x_mask / y_mask select which input/target columns are min-max scaled;
    x_mask defaults to all inputs, y_mask to no targets. With log_target the
    network is fitted to log(y), scaled per y_mask, so the targets must be
    positive; the returned network predicts in the units of y.

    This is `train_stack` with a stack of one, after the one gather of rows
    for a single network.
    """
    if len(x) != len(y):
        raise ValueError(f"x has {len(x)} rows, y has {len(y)}")
    if split is None:
        split = split_indices(len(x), cfg.train_fraction, cfg.seed)
    # np.take gathers rows in under half the time x[idx] takes.
    rows = (np.take(a, np.asarray(i, dtype=int), axis=0) for i in split for a in (x, y))
    [result] = train_stack([TrainJob(*rows, spec, cfg, x_mask, y_mask, log_target)])
    if isinstance(result, TrainingDiverged):
        raise result
    return result
