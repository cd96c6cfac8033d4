"""File formats and persistence.

CSV and JSON readers/writers for aging datasets, trained model artifacts,
scheduling cases, dispatch schedules, iteration traces, report tables and
run manifests. Every numeric CSV that is read back (datasets, case series,
schedules, traces) goes through one header-checked table reader that
rejects wrong column counts and non-numeric or non-finite cells, naming the
file and the row. Everything else in the package is pure; filesystem side
effects live here and in the CLI.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .aging import DATASET_COLUMNS, AgingDataset
from .lod import LodIteration, LodTrace
from .milp import Bess, DispatchSchedule, Generator, MicrogridCase
from .net import NetworkSpec, Normalizer, TrainConfig, TrainedNetwork
from .quantifier import BDP_VARIANTS, UBDF_VARIANTS, DegradationModel

MODEL_FORMAT = "degradesched-model-v1"
SERIES_HEADER = ("hour", "load_kw", "wind_kw", "solar_kw", "buy_price", "sell_price", "temp_c")
SCHEDULE_HEADER = (
    "hour",
    "gen_kw",
    "u_gen",
    "v_gen",
    "p_buy",
    "p_sell",
    "p_char",
    "p_disc",
    "soc",
    "energy_kwh",
)
TRACE_HEADER = (
    "iteration",
    "usage_cap_kwh",
    "throughput_kwh",
    "operation_cost",
    "degradation_cost",
    "total_cost",
)
REQUIRED_HORIZON = 24


class FileFormatError(ValueError):
    """An input file does not match its required format."""


def _fmt(value: float) -> str:
    """Shortest round-trip decimal representation; deterministic."""
    return repr(float(value))


def _read_table(path: Path, header: tuple[str, ...], blank: str | None = None) -> np.ndarray:
    """Parse a header-checked CSV of numbers into an (n, len(header)) float array.

    The header must equal `header` and every row must have one cell per
    column; every cell must be a finite number, except that the column named
    `blank` may be empty and reads as NaN. Errors name the path and the data
    row (1-based, header excluded).
    """
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(header):
            raise FileFormatError(f"{path}: expected header {','.join(header)}")
        rows = list(reader)
    for i, row in enumerate(rows, 1):
        if len(row) != len(header):
            raise FileFormatError(f"{path}: row {i} has {len(row)} columns")
    empty = []
    if blank is not None:
        j = header.index(blank)
        empty = [i for i, row in enumerate(rows) if row[j] == ""]
        for i in empty:
            rows[i][j] = "0"
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError:
        for i, row in enumerate(rows, 1):
            for text in row:
                try:
                    float(text)
                except ValueError:
                    raise FileFormatError(f"{path}: row {i}: not a number: {text!r}") from None
        raise
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        i, j = bad[0]
        raise FileFormatError(f"{path}: row {i + 1}: non-finite value {rows[i][j]!r}")
    if empty:
        data[empty, header.index(blank)] = np.nan
    return data


def file_digest(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Aging datasets
# ----------------------------------------------------------------------

def write_dataset(path: str | Path, dataset: AgingDataset, manifest: str | None = None) -> Path:
    """Write the dataset CSV plus its `.meta.json` sidecar; returns the CSV path."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DATASET_COLUMNS)
        writer.writerows(dataset.data.tolist())  # floats print as repr, like _fmt
    meta = dict(dataset.meta)
    if manifest is not None:
        meta["manifest"] = manifest
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


def read_dataset(path: str | Path) -> AgingDataset:
    path = Path(path)
    data = _read_table(path, DATASET_COLUMNS)
    if not len(data):
        raise FileFormatError(f"{path}: dataset has no rows")
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return AgingDataset.from_array(data, meta)


# ----------------------------------------------------------------------
# Network and model artifacts
# ----------------------------------------------------------------------

def _network_to_dict(network: TrainedNetwork) -> dict:
    return {
        "layer_sizes": list(network.spec.layer_sizes),
        "weights": [w.ravel().tolist() for w, _ in network.params],
        "biases": [b.tolist() for _, b in network.params],
        "x_norm": {
            "lo": network.x_norm.lo.tolist(),
            "hi": network.x_norm.hi.tolist(),
            "mask": network.x_norm.mask.astype(int).tolist(),
        },
        "y_norm": {
            "lo": network.y_norm.lo.tolist(),
            "hi": network.y_norm.hi.tolist(),
            "mask": network.y_norm.mask.astype(int).tolist(),
        },
        "config": asdict(network.config),
        "best_epoch": network.best_epoch,
        "log_target": network.log_target,
    }


def _network_from_dict(doc: dict, where: str) -> TrainedNetwork:
    try:
        spec = NetworkSpec(tuple(int(s) for s in doc["layer_sizes"]))
        params = []
        for k, (n_in, n_out) in enumerate(zip(spec.layer_sizes, spec.layer_sizes[1:])):
            w = np.asarray(doc["weights"][k], dtype=float)
            b = np.asarray(doc["biases"][k], dtype=float)
            if w.size != n_in * n_out or b.size != n_out:
                raise FileFormatError(
                    f"{where}: layer {k} expects {n_in}x{n_out} weights and "
                    f"{n_out} biases, got {w.size} and {b.size}"
                )
            params.append((w.reshape(n_in, n_out), b))
        norms = {}
        for side, width in (("x_norm", spec.n_inputs), ("y_norm", spec.n_outputs)):
            lo = np.asarray(doc[side]["lo"], dtype=float)
            hi = np.asarray(doc[side]["hi"], dtype=float)
            mask = np.asarray(doc[side]["mask"], dtype=bool)
            if not (lo.size == hi.size == mask.size == width):
                raise FileFormatError(f"{where}: {side} width mismatch")
            norms[side] = Normalizer(lo, hi, mask)
        if not all(np.isfinite(np.concatenate([w.ravel(), b])).all() for w, b in params):
            raise FileFormatError(f"{where}: non-finite parameters")
        # Artifacts written before log-scaled targets existed hold linear ones.
        log_target = doc.get("log_target", False)
        if not isinstance(log_target, bool):
            raise FileFormatError(f"{where}: log_target must be true or false")
        return TrainedNetwork(
            spec=spec,
            params=params,
            x_norm=norms["x_norm"],
            y_norm=norms["y_norm"],
            config=TrainConfig(**doc["config"]),
            best_epoch=int(doc.get("best_epoch", -1)),
            log_target=log_target,
        )
    except (KeyError, IndexError, TypeError) as exc:
        raise FileFormatError(f"{where}: malformed network artifact: {exc}") from exc


def closure_checksum(ubdf_id: int, bdp_id: int) -> str:
    blob = json.dumps(
        {
            "ubdf_outputs": list(UBDF_VARIANTS[ubdf_id]),
            "bdp_inputs": list(BDP_VARIANTS[bdp_id]),
        },
        sort_keys=True,
    )
    return "sha256:" + hashlib.sha256(blob.encode()).hexdigest()


def write_model_artifact(
    path: str | Path,
    model: DegradationModel,
    metrics: dict | None = None,
    manifest: str | None = None,
) -> Path:
    path = Path(path)
    doc = {
        "format": MODEL_FORMAT,
        "ubdf_variant": model.ubdf_id,
        "bdp_variant": model.bdp_id,
        "closure_checksum": closure_checksum(model.ubdf_id, model.bdp_id),
        "ubdf": _network_to_dict(model.ubdf),
        "bdp": _network_to_dict(model.bdp),
        "metrics": metrics or {},
    }
    if manifest is not None:
        doc["manifest"] = manifest
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_model_artifact(path: str | Path) -> DegradationModel:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    if doc.get("format") != MODEL_FORMAT:
        raise FileFormatError(f"{path}: unknown format {doc.get('format')!r}")
    ubdf_id = int(doc["ubdf_variant"])
    bdp_id = int(doc["bdp_variant"])
    if doc.get("closure_checksum") != closure_checksum(ubdf_id, bdp_id):
        raise FileFormatError(f"{path}: composition-closure checksum mismatch")
    model = DegradationModel(
        ubdf_id=ubdf_id,
        bdp_id=bdp_id,
        ubdf=_network_from_dict(doc["ubdf"], f"{path}#ubdf"),
        bdp=_network_from_dict(doc["bdp"], f"{path}#bdp"),
    )
    expected = (len(UBDF_VARIANTS[ubdf_id]), len(BDP_VARIANTS[bdp_id]))
    if model.ubdf.spec.n_outputs != expected[0] or model.bdp.spec.n_inputs != expected[1]:
        raise FileFormatError(f"{path}: network widths do not match the variant ids")
    return model


# ----------------------------------------------------------------------
# Cases and series
# ----------------------------------------------------------------------

def write_series_csv(path: str | Path, case: MicrogridCase) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        for t in range(case.horizon):
            writer.writerow(
                [
                    t,
                    _fmt(case.load[t]),
                    _fmt(case.wind[t]),
                    _fmt(case.solar[t]),
                    _fmt(case.price_buy[t]),
                    _fmt(case.price_sell[t]),
                    _fmt(case.temps[t]),
                ]
            )
    return path


def _read_series_csv(path: Path) -> dict[str, np.ndarray]:
    data = _read_table(path, SERIES_HEADER)
    if len(data) != REQUIRED_HORIZON:
        raise FileFormatError(
            f"{path}: expected {REQUIRED_HORIZON} hourly rows, got {len(data)}"
        )
    names = ("load", "wind", "solar", "price_buy", "price_sell", "temps")
    return {name: data[:, j] for j, name in enumerate(names, 1)}


def write_case(path: str | Path, case: MicrogridCase, series_csv: str | None = None) -> Path:
    """Write a case JSON; series go inline unless a CSV filename is given."""
    path = Path(path)
    doc = {
        "generators": [asdict(g) for g in case.generators],
        "bess": [asdict(b) for b in case.bess],
        "tie_line": {"p_grid_max": case.p_grid_max},
        "reserve_fraction": case.reserve_fraction,
        "dt_hours": case.dt_hours,
    }
    if series_csv is None:
        doc["series"] = {
            "load_kw": case.load.tolist(),
            "wind_kw": case.wind.tolist(),
            "solar_kw": case.solar.tolist(),
            "buy_price": case.price_buy.tolist(),
            "sell_price": case.price_sell.tolist(),
            "temp_c": case.temps.tolist(),
        }
    else:
        write_series_csv(path.parent / series_csv, case)
        doc["series"] = {"csv": series_csv}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def read_case(path: str | Path) -> MicrogridCase:
    """Parse and validate a case document (24-interval horizon required)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        series = doc["series"]
        if "csv" in series:
            values = _read_series_csv(path.parent / series["csv"])
        else:
            inline = {
                "load": "load_kw",
                "wind": "wind_kw",
                "solar": "solar_kw",
                "price_buy": "buy_price",
                "price_sell": "sell_price",
                "temps": "temp_c",
            }
            values = {}
            for field, key in inline.items():
                arr = np.asarray(series[key], dtype=float)
                if arr.size != REQUIRED_HORIZON:
                    raise FileFormatError(
                        f"{path}: series {key} has {arr.size} entries, "
                        f"expected {REQUIRED_HORIZON}"
                    )
                if not np.isfinite(arr).all():
                    raise FileFormatError(f"{path}: series {key} has non-finite values")
                values[field] = arr
        case = MicrogridCase(
            generators=[Generator(**g) for g in doc["generators"]],
            bess=[Bess(**b) for b in doc["bess"]],
            p_grid_max=float(doc["tie_line"]["p_grid_max"]),
            reserve_fraction=float(doc["reserve_fraction"]),
            dt_hours=float(doc["dt_hours"]),
            **values,
        )
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: malformed case document: {exc}") from exc
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return case


# ----------------------------------------------------------------------
# Schedules, traces, summaries, reports
# ----------------------------------------------------------------------

def write_schedule(path: str | Path, sched: DispatchSchedule, case: MicrogridCase) -> Path:
    """Hourly dispatch CSV; defined for single-generator, single-battery cases."""
    if len(case.generators) != 1 or len(case.bess) != 1:
        raise ValueError(
            "schedule CSV format covers exactly 1 generator and 1 battery, "
            f"case has {len(case.generators)} and {len(case.bess)}"
        )
    path = Path(path)
    soc = sched.soc_trajectory(case, 0)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHEDULE_HEADER)
        for t in range(case.horizon):
            writer.writerow(
                [
                    t,
                    _fmt(sched.p_gen[0, t]),
                    int(sched.u_gen[0, t]),
                    int(sched.v_gen[0, t]),
                    _fmt(sched.p_buy[t]),
                    _fmt(sched.p_sell[t]),
                    _fmt(sched.p_char[0, t]),
                    _fmt(sched.p_disc[0, t]),
                    _fmt(soc[t + 1]),
                    _fmt(sched.energy[0, t]),
                ]
            )
    return path


def read_schedule(path: str | Path) -> dict[str, np.ndarray]:
    data = _read_table(Path(path), SCHEDULE_HEADER)
    return {name: data[:, j] for j, name in enumerate(SCHEDULE_HEADER)}


def write_trace(path: str | Path, trace: LodTrace) -> Path:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_HEADER)
        for it in trace.iterations:
            writer.writerow(
                [
                    it.index,
                    "" if it.usage_cap_kwh is None else _fmt(it.usage_cap_kwh),
                    _fmt(it.bess_throughput_kwh),
                    _fmt(it.operation_cost),
                    _fmt(it.degradation_cost),
                    _fmt(it.total_cost),
                ]
            )
    return path


def read_trace(path: str | Path) -> list[dict]:
    """Trace rows as dicts; an empty usage cap (the uncapped pass) reads as None."""
    path = Path(path)
    data = _read_table(path, TRACE_HEADER, blank="usage_cap_kwh")
    fractional = np.flatnonzero(data[:, 0] != np.floor(data[:, 0]))
    if fractional.size:
        raise FileFormatError(f"{path}: row {fractional[0] + 1}: iteration is not an integer")
    out = []
    for row in data:
        doc = {name: float(v) for name, v in zip(TRACE_HEADER, row)}
        doc["iteration"] = int(row[0])
        if np.isnan(row[1]):
            doc["usage_cap_kwh"] = None
        out.append(doc)
    return out


def summary_from_iteration(it: LodIteration, solve_seconds: float, iterations: int | None) -> dict:
    return {
        "total_cost": it.total_cost,
        "operation_cost": it.operation_cost,
        "degradation_cost": it.degradation_cost,
        "degradation": it.degradation,
        "bess_throughput_kwh": it.bess_throughput_kwh,
        "solve_seconds": solve_seconds,
        "iterations": iterations,
    }


def write_summary(path: str | Path, summary: dict, manifest: str | None = None) -> Path:
    path = Path(path)
    doc = dict(summary)
    if manifest is not None:
        doc["manifest"] = manifest
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def write_report_table(path: str | Path, rows: list[dict]) -> Path:
    """Accuracy table CSV in the shared `model_id,tol05,...` layout."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("model_id", "tol05", "tol10", "tol15", "tol20"))
        for row in rows:
            writer.writerow(
                [row["model_id"]]
                + [_fmt(row[k]) for k in ("tol05", "tol10", "tol15", "tol20")]
            )
    return path


def write_cost_series(path: str | Path, rows: list[dict]) -> Path:
    """Cost-vs-iteration series echoed from a trace."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("iteration", "operation_cost", "degradation_cost", "total_cost"))
        for row in rows:
            writer.writerow(
                [row["iteration"]]
                + [_fmt(row[k]) for k in ("operation_cost", "degradation_cost", "total_cost")]
            )
    return path


def write_bess_comparison(
    path: str | Path,
    traditional: dict[str, np.ndarray],
    linear: dict[str, np.ndarray],
    lod_best: dict[str, np.ndarray],
) -> Path:
    """Hourly net battery output per strategy; discharge positive."""
    horizons = {len(s["hour"]) for s in (traditional, linear, lod_best)}
    if len(horizons) != 1:
        raise FileFormatError(f"schedules have mismatched horizons: {sorted(horizons)}")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("hour", "p_bess_traditional", "p_bess_linear", "p_bess_lod"))
        for t in range(horizons.pop()):
            writer.writerow(
                [t]
                + [
                    _fmt(s["p_disc"][t] - s["p_char"][t])
                    for s in (traditional, linear, lod_best)
                ]
            )
    return path


# ----------------------------------------------------------------------
# Run manifests
# ----------------------------------------------------------------------

def write_manifest(
    path: str | Path,
    command: str,
    config: dict,
    inputs: list[str | Path],
    seed: int | None,
    timings: dict[str, float],
) -> Path:
    path = Path(path)
    doc = {
        "command": command,
        "config": config,
        "input_digests": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "timings": timings,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path
