"""Hierarchical two-stage battery degradation quantifier.

Stage one predicts internal cell features that cannot be observed ahead of
time (internal temperature, internal resistance, equivalent life cycles) from
the observable stress conditions of a cycle; stage two predicts per-cycle
degradation from the observables plus the stage-one outputs. Scheduled
storage profiles are reduced to half cycles first, one stage-one input row
each, so the fixed-cycle networks can score any hourly usage profile.

Every network the train command fits, the variants of both stages and the
single-stage benchmarks, is one row of NETWORKS, and `fit_networks` trains
any set of rows, those of one layer shape as one stack. The stacks share no
state, so on a machine with 2 or more CPUs they train in worker processes,
one stack per task. `select_best_combination` fits and ranks any list of
pairs: the variant search is every compatible pair, a named pair a list of one.
A train run takes its train/validation row split once (`shared_split`) and
hands it to every function that fits or scores a network.
`stage_two_inputs` alone composes the two stages. Each pair's composed row
is scored once, in the search; `performance_comparison` reads it from there.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import net
from .aging import DATASET_COLUMNS, END_OF_LIFE_SOH, AgingDataset
from .net import NetworkSpec, TrainConfig, TrainedNetwork

# Observable per-cycle stress features, in network input order.
BDF_FEATURES = ("soc", "dod", "temp", "c_rate", "soh")

# The columns cbup fills from a storage profile; soh comes from the battery.
CYCLE_FEATURES = BDF_FEATURES[:4]

# Features only available from stage one at scheduling time.
UNOBTAINABLE_FEATURES = ("it", "ir", "elcn")

# Columns that get min-max scaled; c_rate and soh pass through. A
# degradation target is scaled after its log is taken (see network_job).
NORMALIZED_FEATURES = frozenset({"soc", "dod", "temp", "it", "ir", "elcn", "degradation"})

# The target of stage two and of the single-stage benchmarks.
DEGRADATION = ("degradation",)

# Hidden widths shared by every variant (input and output widths vary).
HIDDEN_LAYERS = (20, 10)

# Stage-one variants: all take BDF_FEATURES, outputs differ per row.
UBDF_VARIANTS: dict[int, tuple[str, ...]] = {
    1: ("it",),
    2: ("ir",),
    3: ("it", "ir"),
    4: ("it", "elcn"),
    5: ("ir", "elcn"),
    6: ("it", "ir", "elcn"),
}

# Stage-two variants: ordered input features per row, output is degradation.
BDP_VARIANTS: dict[int, tuple[str, ...]] = {
    1: ("it", "elcn"),
    2: ("ir", "elcn"),
    3: ("soc", "dod", "temp", "c_rate", "it"),
    4: ("soc", "dod", "temp", "c_rate", "ir"),
    5: ("soc", "dod", "temp", "c_rate", "it", "elcn"),
    6: ("soc", "dod", "temp", "c_rate", "ir", "elcn"),
    7: ("soc", "dod", "temp", "c_rate", "it", "soh"),
    8: ("soc", "dod", "temp", "c_rate", "ir", "soh"),
    9: ("soc", "dod", "temp", "c_rate", "it", "soh", "elcn"),
    10: ("soc", "dod", "temp", "c_rate", "ir", "soh", "elcn"),
}


class NetworkRow(NamedTuple):
    """One network the train command can fit, by dataset column names."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    hidden: tuple[int, ...]
    tag: int  # mixed with TrainConfig.seed into the network's own seed

    @property
    def spec(self) -> NetworkSpec:
        return NetworkSpec((len(self.inputs), *self.hidden, len(self.outputs)))


# Every network the train command can fit: the stage-one and stage-two
# variants, and the single-stage benchmarks nnbd (the observables straight to
# degradation) and nnbd2 (the same with a third hidden layer).
NETWORKS: dict[tuple[str, int], NetworkRow] = {
    **{("ubdf", u): NetworkRow(BDF_FEATURES, outputs, HIDDEN_LAYERS, 100 + u)
       for u, outputs in UBDF_VARIANTS.items()},
    **{("bdp", b): NetworkRow(inputs, DEGRADATION, HIDDEN_LAYERS, 200 + b)
       for b, inputs in BDP_VARIANTS.items()},
    ("nnbd", 0): NetworkRow(BDF_FEATURES, DEGRADATION, HIDDEN_LAYERS, 301),
    ("nnbd2", 0): NetworkRow(BDF_FEATURES, DEGRADATION, (*HIDDEN_LAYERS, 10), 302),
}

REPORT_TOLERANCES = (0.05, 0.10, 0.15, 0.20)

# SOC moves smaller than this (in SOC fraction) count as an idle interval.
FLAT_SOC_EPS = 1e-9

# A half cycle counts as half of one of the fixed cycles the networks learned.
HALF_CYCLE_WEIGHT = 0.5

# Inputs may extrapolate this far beyond the fitted range (as a fraction of
# the range width) before a warning is recorded.
GUARD_BAND_FRACTION = 0.5


class FeatureRangeWarning(UserWarning):
    """A prediction input fell outside the guard band of the training range."""


class ConstantFeatureError(ValueError):
    """A feature that a network scales takes one value on the training rows,
    so it has no range to scale by; the dataset cannot train that network."""


def bdp_required_unobtainables(bdp_id: int) -> frozenset[str]:
    """Stage-one outputs a given stage-two variant needs as inputs."""
    return frozenset(BDP_VARIANTS[bdp_id]) & frozenset(UNOBTAINABLE_FEATURES)


def check_closure(ubdf_id: int, bdp_id: int) -> None:
    """Raise ValueError unless both variants exist and the stage-one variant
    produces every internal feature the stage-two variant consumes."""
    if ubdf_id not in UBDF_VARIANTS:
        raise ValueError(f"unknown stage-one variant {ubdf_id}")
    if bdp_id not in BDP_VARIANTS:
        raise ValueError(f"unknown stage-two variant {bdp_id}")
    missing = bdp_required_unobtainables(bdp_id) - frozenset(UBDF_VARIANTS[ubdf_id])
    if missing:
        raise ValueError(
            f"stage-two variant {bdp_id} needs {sorted(missing)} "
            f"which stage-one variant {ubdf_id} does not produce"
        )


def compatible_pairs() -> list[tuple[int, int]]:
    """All (ubdf_id, bdp_id) pairs whose composition is closed."""
    pairs = []
    for u, outputs in UBDF_VARIANTS.items():
        for b in BDP_VARIANTS:
            if bdp_required_unobtainables(b) <= frozenset(outputs):
                pairs.append((u, b))
    return sorted(pairs)


def cbup(
    soc_trajectory: np.ndarray,
    temps: np.ndarray,
    dt_hours: float = 1.0,
) -> np.ndarray:
    """Aggregate an SOC trajectory into half cycles, one row each.

    The trajectory (T+1 points) is partitioned into maximal runs of strictly
    decreasing SOC (discharge), strictly increasing SOC (charge) and flat
    intervals (dropped). Each non-flat run becomes one row of CYCLE_FEATURES:
    the run's highest SOC, dod = |SOC change over the run|, the mean ambient
    temperature over the run and c_rate = dod / (run hours). A run that dips
    below SOC 0 raises ValueError.
    """
    soc = np.asarray(soc_trajectory, dtype=float)
    temps = np.asarray(temps, dtype=float)
    if soc.ndim != 1 or soc.size < 2:
        raise ValueError("soc_trajectory must be 1-D with at least 2 points")
    if temps.shape != (soc.size - 1,):
        raise ValueError(
            f"need one ambient temperature per interval: {temps.shape} vs "
            f"{soc.size - 1} intervals"
        )

    deltas = np.diff(soc)
    directions = np.where(np.abs(deltas) <= FLAT_SOC_EPS, 0, np.sign(deltas))
    changes = np.flatnonzero(np.diff(directions)) + 1
    bounds = np.concatenate(([0], changes, [directions.size]))
    moving = directions[bounds[:-1]] != 0
    starts, ends = bounds[:-1][moving], bounds[1:][moving]

    soc_top = np.maximum(soc[starts], soc[ends])
    dod = np.abs(soc[ends] - soc[starts])
    low = soc_top - dod
    if (low < -FLAT_SOC_EPS).any():
        raise ValueError(f"half cycle drops below SOC 0: lowest SOC {low.min()}")
    temp = [np.mean(temps[s:e]) for s, e in zip(starts, ends)]
    c_rate = dod / ((ends - starts) * dt_hours)
    return np.column_stack([soc_top, dod, temp, c_rate])


@dataclass
class DegradationModel:
    """Composed two-stage quantifier: a stage-one and a stage-two network.

    Construction validates composition closure (see check_closure).
    """

    ubdf_id: int
    bdp_id: int
    ubdf: TrainedNetwork
    bdp: TrainedNetwork

    def __post_init__(self) -> None:
        check_closure(self.ubdf_id, self.bdp_id)

    @property
    def ubdf_outputs(self) -> tuple[str, ...]:
        return UBDF_VARIANTS[self.ubdf_id]

    @property
    def bdp_inputs(self) -> tuple[str, ...]:
        return BDP_VARIANTS[self.bdp_id]


def _check_guard_band(norm: net.Normalizer, x: np.ndarray, names: tuple[str, ...]) -> None:
    span = np.maximum(norm.hi - norm.lo, 1e-12)
    lo = norm.lo - GUARD_BAND_FRACTION * span
    hi = norm.hi + GUARD_BAND_FRACTION * span
    bad = (x < lo) | (x > hi)
    if bad.any():
        cols = sorted({names[j] for j in np.unique(np.nonzero(bad)[1])})
        warnings.warn(
            f"inputs {cols} fall outside the training range guard band",
            FeatureRangeWarning,
            stacklevel=3,
        )


def stage_two_inputs(
    model: DegradationModel, x_bdf: np.ndarray, stage_one: np.ndarray | None = None
) -> np.ndarray:
    """Stage-two input matrix for cycles whose observables are the rows of x_bdf.

    x_bdf holds one row per cycle in BDF_FEATURES order. Observable inputs
    are copied from it; stage one's predictions supply the internal ones.
    `stage_one` is those predictions, `model.ubdf.predict(x_bdf)`, when the
    caller already holds them; None computes them here.
    """
    if stage_one is None:
        stage_one = model.ubdf.predict(x_bdf)
    columns = dict(zip(BDF_FEATURES, x_bdf.T))
    columns.update(zip(model.ubdf_outputs, np.atleast_2d(stage_one).T))
    return np.column_stack([columns[n] for n in model.bdp_inputs])


def predict_degradation(
    model: DegradationModel, cycles: np.ndarray, soh: float
) -> float:
    """Total degradation (SOH fraction) of cbup's half cycles, one per row.

    The battery's current soh completes each row's stage-one input. Per-cycle
    stage-two outputs are clipped below at zero, weighted by HALF_CYCLE_WEIGHT,
    summed and scaled by soh. Inputs beyond either network's guard band raise
    FeatureRangeWarning.
    """
    if not END_OF_LIFE_SOH < soh <= 1.0:
        raise ValueError(f"soh out of ({END_OF_LIFE_SOH}, 1.0]: {soh}")
    if len(cycles) == 0:
        return 0.0
    x_bdf = np.column_stack([cycles, np.full(len(cycles), soh)])
    _check_guard_band(model.ubdf.x_norm, x_bdf, BDF_FEATURES)
    x = stage_two_inputs(model, x_bdf)
    _check_guard_band(model.bdp.x_norm, x, model.bdp_inputs)
    per_cycle = np.maximum(model.bdp.predict(x).ravel(), 0.0)
    return float(np.sum(HALF_CYCLE_WEIGHT * per_cycle) * soh)


# ----------------------------------------------------------------------
# Training on aging datasets
# ----------------------------------------------------------------------

Split = tuple[np.ndarray, np.ndarray]  # (train, validation) row indices of the dataset array


def shared_split(dataset: AgingDataset, cfg: TrainConfig) -> Split:
    """The row split every network of one train run trains and is scored on."""
    return net.split_indices(len(dataset), cfg.train_fraction, cfg.seed)


def _mask_for(names: tuple[str, ...]) -> np.ndarray:
    return np.array([n in NORMALIZED_FEATURES for n in names])


def _derived_config(cfg: TrainConfig, tag: int) -> TrainConfig:
    seed = int(np.random.SeedSequence([cfg.seed, tag]).generate_state(1)[0])
    return replace(cfg, seed=seed)


def _select(rows: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
    return np.take(rows, [DATASET_COLUMNS.index(n) for n in names], axis=1)


def network_job(
    train_rows: np.ndarray, val_rows: np.ndarray, key: tuple[str, int], cfg: TrainConfig
) -> net.TrainJob:
    """The training job of the NETWORKS row `key`: its columns of `train_rows`
    and `val_rows`, the training and validation rows of the dataset array.

    Its seed derives from cfg.seed and the row's tag. A degradation target
    is fitted as log(degradation), min-max scaled: the oracle's degradation
    is a product of stress factors and spans orders of magnitude, while
    accuracy is judged relative to the target, so the factors should add up.
    Predictions come back exponentiated, in SOH fractions, and every
    degradation target must be positive. Stage one's internal-feature
    targets are min-max scaled as they are.
    """
    row = NETWORKS[key]
    return net.TrainJob(
        *(_select(rows, names) for rows in (train_rows, val_rows)
          for names in (row.inputs, row.outputs)),
        row.spec,
        _derived_config(cfg, row.tag),
        x_mask=_mask_for(row.inputs),
        y_mask=_mask_for(row.outputs),
        log_target=row.outputs == DEGRADATION,
    )


def _fit_group(
    data: np.ndarray, split: Split, cfg: TrainConfig, members: list[tuple[str, int]]
) -> list[TrainedNetwork | net.TrainingDiverged]:
    """Train the NETWORKS rows `members`, all of one layer shape, as one stack."""
    train_rows, val_rows = (np.take(data, idx, axis=0) for idx in split)
    return net.train_stack(network_job(train_rows, val_rows, key, cfg) for key in members)


# A pool worker's (data, split, cfg), set once by _init_worker when the
# worker starts; it stays None in the process that calls fit_networks.
_worker_inputs: tuple | None = None


def _init_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _fit_group_in_worker(members: list[tuple[str, int]]) -> list:
    return _fit_group(*_worker_inputs, members)


def fit_networks(
    data: np.ndarray, split: Split, keys: list[tuple[str, int]], cfg: TrainConfig
) -> dict[tuple[str, int], TrainedNetwork | net.TrainingDiverged]:
    """Fit the NETWORKS rows `keys` on the dataset array `data`, each keyed as given.

    Rows of one exact layer shape train as one stack (net.train_stack), each
    bit-identical to fitting its job alone with net.train. A stack gathers
    the training and validation rows of `data` once, when it trains, and each
    job selects its columns from them. A network whose loss became non-finite
    maps to its TrainingDiverged. Before any training, a scaled feature that
    the rows consume but that is constant on the training rows raises
    ConstantFeatureError.

    With 2 or more stacks and 2 or more CPUs this process may run on, the
    stacks train in a pool of min(CPUs, stacks) forked workers, one stack
    per task; otherwise they train here. Fork, whatever the interpreter's
    default: only a forked worker inherits (data, split, cfg) and the
    imported package, where importing them afresh costs about what the pool
    saves. Each task sends only its rows' keys. The networks come out the
    same either way, and no worker outlives the call, also when one raises.
    """
    used = {name for key in keys for name in NETWORKS[key].inputs + NETWORKS[key].outputs}
    scaled = used & NORMALIZED_FEATURES
    constant = [name for j, name in enumerate(DATASET_COLUMNS)
                if name in scaled and np.ptp(data[split[0], j]) <= 0]
    if constant:
        raise ConstantFeatureError(
            f"features {', '.join(constant)} take one value on every training row; "
            f"the dataset needs cycles that vary them"
        )
    groups: dict[NetworkSpec, list[tuple[str, int]]] = {}
    for key in keys:
        groups.setdefault(NETWORKS[key].spec, []).append(key)
    # Without os.sched_getaffinity (macOS, Windows) the stacks train here:
    # fork is missing or unsafe there, and the pool gains only by fork.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(groups))
    if workers < 2:
        stacks = [_fit_group(data, split, cfg, members) for members in groups.values()]
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(data, split, cfg)) as pool:
            stacks = list(pool.map(_fit_group_in_worker, groups.values()))
    fitted: dict[tuple[str, int], TrainedNetwork | net.TrainingDiverged] = {}
    for members, stack in zip(groups.values(), stacks):
        fitted.update(zip(members, stack))
    return fitted


def accuracy_row(predictions: np.ndarray, targets: np.ndarray, model_id) -> dict:
    """One report-table row: accuracies at the four shared tolerances.

    Accuracy is taken per column and averaged over the columns, so a
    multi-output network gets the macro-average; 1-D input is one column.
    """
    pred = np.asarray(predictions, dtype=float)
    target = np.asarray(targets, dtype=float)
    pred = pred.reshape(len(pred), -1)
    target = target.reshape(len(target), -1)
    row = {"model_id": model_id}
    for tol in REPORT_TOLERANCES:
        key = f"tol{int(round(tol * 100)):02d}"
        per_column = [
            net.accuracy_at_tolerance(pred[:, j], target[:, j], tol)
            for j in range(target.shape[1])
        ]
        row[key] = float(np.mean(per_column))
    return row


@dataclass
class SelectionReport:
    """Report tables produced while selecting the best variant pair."""

    ubdf_table: list[dict] = field(default_factory=list)
    bdp_table: list[dict] = field(default_factory=list)
    composed_table: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def select_best_combination(
    dataset: AgingDataset, split: Split, cfg: TrainConfig,
    pairs: list[tuple[int, int]] | None = None,
) -> tuple[DegradationModel, SelectionReport]:
    """Train the variants of `pairs` and pick the best composed pair.

    `pairs` lists closure-compatible (ubdf_id, bdp_id) pairs; None means
    every compatible pair, the full variant search, and a one-pair list
    trains that pair alone. Fits the stage-one and stage-two variants the
    pairs use with fit_networks on the run's row split, evaluates each pair
    composed (stage two fed stage-one predictions, not ground truth) on the
    validation rows, and returns the pair with the highest accuracy at 15%
    tolerance; ties break by 10% accuracy, then by lower variant ids.
    Variants whose training diverges are recorded and their pairs excluded;
    a RuntimeError listing the failures is raised if no pair is left.

    Scoring gathers the dataset's validation rows once and runs each network
    once on its columns of them: a stage-one variant's predictions score its
    table row and feed every pair it is in through stage_two_inputs. The
    rows come out as if each pair were scored alone, bit for bit.
    """
    pairs = compatible_pairs() if pairs is None else pairs
    for u, b in pairs:
        check_closure(u, b)  # before paying for training
    used = {("ubdf", u) for u, _ in pairs} | {("bdp", b) for _, b in pairs}
    keys = [key for key in NETWORKS if key in used]
    fitted = fit_networks(dataset.data, split, keys, cfg)

    report = SelectionReport()
    val = np.take(dataset.data, split[1], axis=0)
    nets: dict[tuple[str, int], TrainedNetwork] = {}
    predicted: dict[tuple[str, int], np.ndarray] = {}
    for key in keys:
        kind, variant = key
        result = fitted[key]
        if isinstance(result, net.TrainingDiverged):
            report.failures.append(f"{kind}-{variant}: {result}")
            continue
        nets[key] = result
        row = NETWORKS[key]
        predicted[key] = result.predict(_select(val, row.inputs))
        table = getattr(report, f"{kind}_table")
        table.append(accuracy_row(predicted[key], _select(val, row.outputs), variant))

    x_val, deg_val = _select(val, BDF_FEATURES), _select(val, DEGRADATION)
    ranked: dict[tuple, DegradationModel] = {}
    for u, b in pairs:
        if ("ubdf", u) in nets and ("bdp", b) in nets:
            pair = DegradationModel(u, b, nets[("ubdf", u)], nets[("bdp", b)])
            scores = pair.bdp.predict(stage_two_inputs(pair, x_val, predicted[("ubdf", u)]))
            row = accuracy_row(scores, deg_val, f"{u}-{b}")
            report.composed_table.append(row)
            ranked[(row["tol15"], row["tol10"], -u, -b)] = pair
    if not ranked:
        raise RuntimeError(f"every variant pair failed to train: {'; '.join(report.failures)}")
    return ranked[max(ranked)], report


def train_benchmarks(
    dataset: AgingDataset, split: Split, cfg: TrainConfig
) -> dict[str, TrainedNetwork]:
    """Train the two single-stage benchmark nets, nnbd and nnbd2 (see NETWORKS).

    Both fit the same log target as stage two, on the run's row split; the
    first divergence is raised.
    """
    keys = [("nnbd", 0), ("nnbd2", 0)]
    fitted = fit_networks(dataset.data, split, keys, cfg)
    for key in keys:
        if isinstance(fitted[key], net.TrainingDiverged):
            raise fitted[key]
    return {name: fitted[(name, 0)] for name, _ in keys}


def performance_comparison(
    model: DegradationModel,
    report: SelectionReport,
    benchmarks: dict[str, TrainedNetwork],
    dataset: AgingDataset,
    split: Split,
) -> list[dict]:
    """Composed-model vs benchmark accuracies on the run's validation rows;
    the former is the model's row of the search's `report.composed_table`."""
    pair = f"{model.ubdf_id}-{model.bdp_id}"
    [row] = [r for r in report.composed_table if r["model_id"] == pair]
    val = np.take(dataset.data, split[1], axis=0)
    x_val, deg_val = _select(val, BDF_FEATURES), _select(val, DEGRADATION)
    rows = [{**row, "model_id": "hdl-bdq"}]
    for name in ("nnbd", "nnbd2"):
        rows.append(accuracy_row(benchmarks[name].predict(x_val), deg_val, name))
    return rows
