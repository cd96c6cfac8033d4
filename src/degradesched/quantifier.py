"""Hierarchical two-stage battery degradation quantifier.

Stage one predicts internal cell features that cannot be observed ahead of
time (internal temperature, internal resistance, equivalent life cycles) from
the observable stress conditions of a cycle; stage two predicts per-cycle
degradation from the observables plus the stage-one outputs. Scheduled
storage profiles are reduced to half cycles first, one stage-one input row
each, so the fixed-cycle networks can score any hourly usage profile.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import net
from .aging import DATASET_COLUMNS, AgingDataset
from .net import NetworkSpec, TrainConfig, TrainedNetwork

# Observable per-cycle stress features, in network input order.
BDF_FEATURES = ("soc", "dod", "temp", "c_rate", "soh")

# The columns cbup fills from a storage profile; soh comes from the battery.
CYCLE_FEATURES = BDF_FEATURES[:4]

# Features only available from stage one at scheduling time.
UNOBTAINABLE_FEATURES = ("it", "ir", "elcn")

# Columns that get min-max scaled; c_rate and soh pass through.
NORMALIZED_FEATURES = frozenset({"soc", "dod", "temp", "it", "ir", "elcn"})

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


def stage_two_inputs(model: DegradationModel, x_bdf: np.ndarray) -> np.ndarray:
    """Stage-two input matrix for cycles whose observables are the rows of x_bdf.

    x_bdf holds one row per cycle in BDF_FEATURES order. Observable inputs
    are copied from it; stage one's predictions supply the internal ones.
    """
    columns = dict(zip(BDF_FEATURES, x_bdf.T))
    columns.update(zip(model.ubdf_outputs, np.atleast_2d(model.ubdf.predict(x_bdf)).T))
    return np.column_stack([columns[name] for name in model.bdp_inputs])


def predict_degradation(
    model: DegradationModel, cycles: np.ndarray, soh: float
) -> float:
    """Total degradation (SOH fraction) of cbup's half cycles, one per row.

    The battery's current soh completes each row's stage-one input. Per-cycle
    stage-two outputs are clipped below at zero, weighted by HALF_CYCLE_WEIGHT,
    summed and scaled by soh. Inputs beyond either network's guard band raise
    FeatureRangeWarning.
    """
    if not 0.8 < soh <= 1.0:
        raise ValueError(f"soh out of (0.8, 1.0]: {soh}")
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

def dataset_columns(dataset: AgingDataset) -> dict[str, np.ndarray]:
    """Named column views of the dataset array."""
    return {name: dataset.data[:, j] for j, name in enumerate(DATASET_COLUMNS)}


def _mask_for(names: tuple[str, ...]) -> np.ndarray:
    return np.array([n in NORMALIZED_FEATURES for n in names])


def _derived_config(cfg: TrainConfig, tag: int) -> TrainConfig:
    seed = int(np.random.SeedSequence([cfg.seed, tag]).generate_state(1)[0])
    return replace(cfg, seed=seed)


def _ubdf_spec(variant: int) -> NetworkSpec:
    return NetworkSpec((len(BDF_FEATURES), *HIDDEN_LAYERS, len(UBDF_VARIANTS[variant])))


def _bdp_spec(variant: int) -> NetworkSpec:
    return NetworkSpec((len(BDP_VARIANTS[variant]), *HIDDEN_LAYERS, 1))


def _ubdf_job(
    columns: dict[str, np.ndarray],
    variant: int,
    cfg: TrainConfig,
    split: tuple[np.ndarray, np.ndarray],
) -> net.TrainJob:
    outputs = UBDF_VARIANTS[variant]
    return net.TrainJob(
        np.column_stack([columns[n] for n in BDF_FEATURES]),
        np.column_stack([columns[n] for n in outputs]),
        _ubdf_spec(variant),
        _derived_config(cfg, 100 + variant),
        x_mask=_mask_for(BDF_FEATURES),
        y_mask=_mask_for(outputs),
        split=split,
    )


def _degradation_job(
    columns: dict[str, np.ndarray],
    inputs: tuple[str, ...],
    spec: NetworkSpec,
    cfg: TrainConfig,
    split: tuple[np.ndarray, np.ndarray],
) -> net.TrainJob:
    """A network whose target is per-cycle degradation.

    The oracle's degradation is a product of stress factors and spans orders
    of magnitude, while accuracy is judged relative to the target; so the
    network is fitted to log(degradation), min-max scaled, where the factors
    add up. Predictions come back exponentiated, in SOH fractions. Every
    degradation target must be positive.
    """
    return net.TrainJob(
        np.column_stack([columns[n] for n in inputs]),
        columns["degradation"][:, None],
        spec,
        cfg,
        x_mask=_mask_for(inputs),
        y_mask=np.array([True]),
        split=split,
        log_target=True,
    )


def _bdp_job(
    columns: dict[str, np.ndarray],
    variant: int,
    cfg: TrainConfig,
    split: tuple[np.ndarray, np.ndarray],
) -> net.TrainJob:
    return _degradation_job(
        columns, BDP_VARIANTS[variant], _bdp_spec(variant),
        _derived_config(cfg, 200 + variant), split,
    )


def train_ubdf_variant(
    columns: dict[str, np.ndarray],
    variant: int,
    cfg: TrainConfig,
    split: tuple[np.ndarray, np.ndarray],
) -> TrainedNetwork:
    """Fit one stage-one variant; targets are min-max scaled internal features."""
    return net.train(*_ubdf_job(columns, variant, cfg, split))


def train_bdp_variant(
    columns: dict[str, np.ndarray],
    variant: int,
    cfg: TrainConfig,
    split: tuple[np.ndarray, np.ndarray],
) -> TrainedNetwork:
    """Fit one stage-two variant on ground-truth inputs.

    The target is log(degradation), min-max scaled (see
    _degradation_job); predictions are in SOH fractions.
    """
    return net.train(*_bdp_job(columns, variant, cfg, split))


def train_pair(
    dataset: AgingDataset, ubdf_id: int, bdp_id: int, cfg: TrainConfig
) -> DegradationModel:
    """Train one closure-compatible (stage-one, stage-two) pair."""
    check_closure(ubdf_id, bdp_id)  # before paying for training
    columns = dataset_columns(dataset)
    split = net.split_indices(len(dataset), cfg.train_fraction, cfg.seed)
    ubdf = train_ubdf_variant(columns, ubdf_id, cfg, split)
    bdp = train_bdp_variant(columns, bdp_id, cfg, split)
    return DegradationModel(ubdf_id=ubdf_id, bdp_id=bdp_id, ubdf=ubdf, bdp=bdp)


def composed_predictions(model: DegradationModel, x_bdf: np.ndarray) -> np.ndarray:
    """Per-cycle stage-two predictions, stage one supplying the internal features."""
    return model.bdp.predict(stage_two_inputs(model, x_bdf)).ravel()


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


def _train_search_networks(
    columns: dict[str, np.ndarray], cfg: TrainConfig, split: tuple[np.ndarray, np.ndarray]
) -> dict[tuple[str, int], TrainedNetwork | net.TrainingDiverged]:
    """Every stage-one and stage-two variant, keyed ("ubdf" | "bdp", id).

    Variants of one exact layer shape, from either stage, train as one stack;
    each group's inputs are built only when that group trains.
    """
    spec_of = {"ubdf": _ubdf_spec, "bdp": _bdp_spec}
    job_of = {"ubdf": _ubdf_job, "bdp": _bdp_job}
    variants = [("ubdf", u) for u in sorted(UBDF_VARIANTS)]
    variants += [("bdp", b) for b in sorted(BDP_VARIANTS)]
    groups: dict[NetworkSpec, list[tuple[str, int]]] = {}
    for stage, v in variants:
        groups.setdefault(spec_of[stage](v), []).append((stage, v))
    fitted: dict[tuple[str, int], TrainedNetwork | net.TrainingDiverged] = {}
    for members in groups.values():
        stack = net.train_stack(job_of[stage](columns, v, cfg, split) for stage, v in members)
        fitted.update(zip(members, stack))
    return fitted


def select_best_combination(
    dataset: AgingDataset, cfg: TrainConfig
) -> tuple[DegradationModel, SelectionReport]:
    """Train every variant and pick the best composed pair.

    Trains all six stage-one and all ten stage-two variants on a shared
    train/validation split, evaluates every closure-compatible pair composed
    (stage two fed stage-one predictions, not ground truth) on the validation
    split, and returns the pair with the highest accuracy at 15% tolerance;
    ties break by 10% accuracy, then by lower variant ids. Variants whose
    training diverges are recorded and excluded.

    Variants of one layer shape train as one stack (net.train_stack), each
    bit-identical to training it alone with train_ubdf_variant or
    train_bdp_variant.
    """
    columns = dataset_columns(dataset)
    split = net.split_indices(len(dataset), cfg.train_fraction, cfg.seed)
    _, val_idx = split
    x_val = np.column_stack([columns[n] for n in BDF_FEATURES])[val_idx]
    report = SelectionReport()
    fitted = _train_search_networks(columns, cfg, split)

    ubdf_nets: dict[int, TrainedNetwork] = {}
    for u in sorted(UBDF_VARIANTS):
        result = fitted[("ubdf", u)]
        if isinstance(result, net.TrainingDiverged):
            report.failures.append(f"ubdf-{u}: {result}")
            continue
        ubdf_nets[u] = result
        target = np.column_stack([columns[n] for n in UBDF_VARIANTS[u]])[val_idx]
        report.ubdf_table.append(accuracy_row(result.predict(x_val), target, u))

    bdp_nets: dict[int, TrainedNetwork] = {}
    deg_val = columns["degradation"][val_idx]
    for b in sorted(BDP_VARIANTS):
        result = fitted[("bdp", b)]
        if isinstance(result, net.TrainingDiverged):
            report.failures.append(f"bdp-{b}: {result}")
            continue
        bdp_nets[b] = result
        x_bdp = np.column_stack([columns[n] for n in BDP_VARIANTS[b]])[val_idx]
        report.bdp_table.append(accuracy_row(result.predict(x_bdp), deg_val, b))

    best_key = None
    best_pair = None
    for u, b in compatible_pairs():
        if u not in ubdf_nets or b not in bdp_nets:
            continue
        pair = DegradationModel(ubdf_id=u, bdp_id=b, ubdf=ubdf_nets[u], bdp=bdp_nets[b])
        row = accuracy_row(composed_predictions(pair, x_val), deg_val, f"{u}-{b}")
        report.composed_table.append(row)
        key = (row["tol15"], row["tol10"], -u, -b)
        if best_key is None or key > best_key:
            best_key = key
            best_pair = pair

    if best_pair is None:
        raise RuntimeError("every variant pair failed to train")
    return best_pair, report


def train_benchmarks(
    dataset: AgingDataset, cfg: TrainConfig
) -> dict[str, TrainedNetwork]:
    """Train the two single-stage benchmark nets.

    nnbd maps the five observable features straight to degradation through
    the same 20-10 hidden stack; nnbd2 adds a third 10-neuron hidden layer.
    Both fit the same log target as stage two.
    """
    columns = dataset_columns(dataset)
    split = net.split_indices(len(dataset), cfg.train_fraction, cfg.seed)
    nnbd = net.train(*_degradation_job(
        columns, BDF_FEATURES, NetworkSpec((5, 20, 10, 1)),
        _derived_config(cfg, 301), split,
    ))
    nnbd2 = net.train(*_degradation_job(
        columns, BDF_FEATURES, NetworkSpec((5, 20, 10, 10, 1)),
        _derived_config(cfg, 302), split,
    ))
    return {"nnbd": nnbd, "nnbd2": nnbd2}


def performance_comparison(
    model: DegradationModel,
    benchmarks: dict[str, TrainedNetwork],
    dataset: AgingDataset,
    cfg: TrainConfig,
) -> list[dict]:
    """Composed-model vs benchmark accuracies on the shared validation split."""
    columns = dataset_columns(dataset)
    _, val_idx = net.split_indices(len(dataset), cfg.train_fraction, cfg.seed)
    deg_val = columns["degradation"][val_idx]
    x_val = np.column_stack([columns[n] for n in BDF_FEATURES])[val_idx]
    rows = [accuracy_row(composed_predictions(model, x_val), deg_val, "hdl-bdq")]
    for name in ("nnbd", "nnbd2"):
        rows.append(accuracy_row(benchmarks[name].predict(x_val), deg_val, name))
    return rows
