"""File formats and persistence.

CSV and JSON readers/writers for aging datasets, trained model artifacts,
scheduling cases, dispatch schedules, iteration traces, report tables and
run manifests. Every CSV is written by one table writer, byte for byte as
`csv.writer` would write it, and every numeric CSV that is read back
(datasets, case series, schedules, traces) goes through one header-checked
table reader that rejects undecodable text, wrong column counts,
non-numeric or non-finite cells and tables with no data rows, naming the
file and the row of the first fault in file order and quoting a bad cell
as written. Every JSON document is written by `write_json` and read by
`read_json` (or, for the array of an aging grid, `read_grid`), which turns
undecodable text or a top level of the wrong type into a `FileFormatError`.
Everything else in the package is pure; filesystem side effects live here
and in the CLI.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .aging import DATASET_COLUMNS, AgingDataset, CycleConditions
from .lod import LodTrace
from .milp import Bess, DispatchSchedule, Generator, MicrogridCase
from .net import NetworkSpec, Normalizer, TrainConfig, TrainedNetwork
from .quantifier import BDP_VARIANTS, UBDF_VARIANTS, DegradationModel, check_closure

MODEL_FORMAT = "degradesched-model-v1"
SERIES_HEADER = ("hour", "load_kw", "wind_kw", "solar_kw", "buy_price", "sell_price", "temp_c")
# The MicrogridCase field behind each series column after "hour"; inline
# series in a case document use the column names as keys.
SERIES_FIELDS = ("load", "wind", "solar", "price_buy", "price_sell", "temps")
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


# Rows `_write_table` writes per block.
WRITE_BLOCK_ROWS = 4096


class FileFormatError(ValueError):
    """An input file does not match its required format."""


def _write_table(path: str | Path, header: tuple[str, ...], columns) -> Path:
    """Write a CSV: the header row, then row i holds element i of each column.

    The bytes are those of `csv.writer` over each column's `.tolist()`:
    floats print as their shortest round-trip repr, integer arrays as
    integers, and `None` as an empty cell, which `_read_table(blank=...)`
    reads back. The header and then each block of WRITE_BLOCK_ROWS rows go
    out as text, every row one `",".join` of its cells ended by "\\r\\n" and
    every block one write, so no whole column is ever held as Python
    objects. `_block_cells` and `_text` make each cell's text as
    `csv.writer` would, quoting included, and each distinct float of a
    block is formatted once.
    """
    path = Path(path)
    columns = list(columns)
    n = min(map(len, columns), default=0)
    with path.open("w", newline="") as fh:
        fh.write(",".join(_text(header, len(header) == 1)) + "\r\n")
        for start in range(0, n, WRITE_BLOCK_ROWS):
            block = _block_cells([c[start:start + WRITE_BLOCK_ROWS] for c in columns])
            # zip's rows: the shortest column's, as csv.writer's would be
            fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")
    return path


def _block_cells(block: list) -> list[list[str]]:
    """One block of columns as the text of each cell, as `csv.writer` writes it.

    The float64 arrays' distinct values are found by one sort of all their
    bit patterns, not compared as floats, so -0.0 keeps its sign apart from
    0.0; each is formatted once, with the repr `csv.writer` would give it,
    and each cell finds its text by binary search (np.unique's inverse
    costs about 1.5x as much on a 24-row table). A float repr never needs
    quoting. Every other cell, of a list or of another array's `.tolist()`,
    becomes "" if it is None and str(cell) otherwise; a text holding a
    comma, a quote or a line end is wrapped in quotes with each inner quote
    doubled, and in a table of one column an empty cell is written `""`.
    """
    cells = [c if isinstance(c, np.ndarray) and c.dtype == np.float64 else
             _text(c.tolist() if isinstance(c, np.ndarray) else c, len(block) == 1)
             for c in block]
    floats = [j for j, c in enumerate(cells) if isinstance(c, np.ndarray)]
    if floats:
        bits = np.stack([cells[j] for j in floats]).view(np.int64)
        ordered = np.sort(bits, axis=None)
        distinct = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
        text = np.array(list(map(repr, distinct.view(np.float64).tolist())), dtype=object)
        for j, column in zip(floats, text[np.searchsorted(distinct, bits)].tolist()):
            cells[j] = column
    return cells


def _text(values, alone: bool) -> list[str]:
    """`csv.writer`'s text for each of `values`; `alone`: each is the only cell of its row.

    Cells are scanned one by one for quoting only when the joined text holds
    a character that calls for it, or an `alone` cell is empty.
    """
    text = ["" if v is None else str(v) for v in values]
    if not (any(ch in "".join(text) for ch in ',"\r\n') or alone and "" in text):
        return text
    return ['"' + t.replace('"', '""') + '"' if any(ch in t for ch in ',"\r\n') or alone and not t
            else t for t in text]


def write_json(path: str | Path, doc: dict) -> Path:
    """Write a JSON document: two-space indent, sorted keys, final newline."""
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def check_writable(*paths: str | Path) -> None:
    """Raise the OSError that writing each path would raise, without writing it.

    An existing file is opened for appending and keeps its bytes; a file
    this creates is removed again. A command calls it on its outputs before
    its work, so an output that is a directory, or that sits in one it may
    not write, costs no work.
    """
    for path in map(Path, paths):
        try:
            path.open("x").close()
        except FileExistsError:
            path.open("a").close()
        else:
            path.unlink()


def _read_json(path: Path, top: type[dict] | type[list]) -> dict | list:
    """Parse a JSON document whose top level must be of type `top`."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise FileFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, top):
        name = "object" if top is dict else "array"
        raise FileFormatError(f"{path}: expected a JSON {name}, got {type(doc).__name__}")
    return doc


def read_json(path: str | Path) -> dict:
    """Parse a JSON document whose top level must be an object."""
    return _read_json(Path(path), dict)


def _csv_rows(path: Path, fh):
    """The rows of an open CSV file; undecodable text raises `FileFormatError`."""
    try:
        yield from csv.reader(fh)
    except (UnicodeDecodeError, csv.Error) as exc:  # a binary file, an endless field
        raise FileFormatError(f"{path}: not a CSV text file: {exc}") from exc


def _read_table(path: Path, header: tuple[str, ...], blank: str | None = None) -> np.ndarray:
    """Parse a header-checked CSV of numbers into an (n, len(header)) float array.

    The header must equal `header` and every row must have one cell per
    column; every cell must be a finite number, except that the column named
    `blank` may be empty and reads as NaN. A table of no data rows is
    rejected. Errors name the path and the data row (1-based, header
    excluded).

    Two paths give the same array or the same error. After the header check
    numpy's C parser (`_parse_numbers`) reads the rest of the file; its
    array stands only when it holds one row per line of the file, one
    column per header name and finite numbers alone. That is the common
    case, a well-formed table. Every other file (an empty cell, a blank
    line, a bad cell or row, a non-finite value, a quoted line end) goes to
    the row reader, `_read_rows`, which parses what the contract allows cell
    by cell and names the row and cell of the first fault. So does every
    table with a `blank` column, whose empty cells np.loadtxt does not take.
    """
    with path.open(newline="") as fh:
        if next(_csv_rows(path, fh), None) != list(header):
            raise FileFormatError(f"{path}: expected header {','.join(header)}")
        data = _parse_numbers(path, fh, len(header)) if blank is None else None
    return _read_rows(path, header, blank) if data is None else data


def _parse_numbers(path: Path, fh, width: int) -> np.ndarray | None:
    """The rest of the open table `path` as np.loadtxt parses it, or None.

    None unless the array has one row per data line of the file, `width`
    columns and finite values alone. np.loadtxt skips blank lines, which a
    table must not have, joins the lines of a quoted line end, and cannot
    name the cell at fault; the row reader can.
    """
    raw = path.read_bytes()
    lines = raw.count(b"\n") - 1 + (not raw.endswith(b"\n"))
    start = raw.find(b"\n") + 1
    # After a blank first line np.loadtxt may find no data, which it warns of.
    if lines < 1 or raw[start:start + 1] in (b"\n", b"\r"):
        return None
    del raw  # not held while the array is built
    try:
        data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
    except ValueError:  # no number, another width, undecodable text
        return None
    if data.shape != (lines, width) or not np.isfinite(data).all():
        return None
    return data


def _read_rows(path: Path, header: tuple[str, ...], blank: str | None) -> np.ndarray:
    """The data rows of a table `_read_table` has header-checked, parsed cell by cell.

    Only tables with a `blank` column (traces, a few rows each) and tables
    the C parser refused come here. Each cell goes through `float` as it
    arrives, so the first fault in file order raises, naming its row and
    quoting the cell as written ('1e400', not 'inf').
    """
    j_blank = None if blank is None else header.index(blank)
    data = []
    with path.open(newline="") as fh:
        rows = _csv_rows(path, fh)
        next(rows)  # the header
        for n, row in enumerate(rows, 1):
            if len(row) != len(header):
                raise FileFormatError(f"{path}: row {n} has {len(row)} columns")
            for j, text in enumerate(row):
                try:
                    row[j] = math.nan if j == j_blank and text == "" else float(text)
                except ValueError:
                    raise FileFormatError(f"{path}: row {n}: not a number: {text!r}") from None
                if text and not math.isfinite(row[j]):  # an empty `blank` cell is no fault
                    raise FileFormatError(f"{path}: row {n}: non-finite value {text!r}")
            data.append(row)
    if not data:
        raise FileFormatError(f"{path}: table has no data rows")
    return np.array(data)


def file_digest(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----------------------------------------------------------------------
# Aging datasets
# ----------------------------------------------------------------------

def dataset_meta_path(path: Path) -> Path:
    """The `.meta.json` sidecar beside a dataset CSV."""
    return path.with_suffix(path.suffix + ".meta.json")


def write_dataset(path: str | Path, dataset: AgingDataset, manifest: str | None = None) -> Path:
    """Write the dataset CSV plus its `.meta.json` sidecar; returns the CSV path."""
    path = _write_table(path, DATASET_COLUMNS, dataset.data.T)
    meta = dict(dataset.meta)
    if manifest is not None:
        meta["manifest"] = manifest
    write_json(dataset_meta_path(path), meta)
    return path


def read_dataset(path: str | Path) -> AgingDataset:
    path = Path(path)
    data = _read_table(path, DATASET_COLUMNS)
    meta_path = dataset_meta_path(path)
    meta = read_json(meta_path) if meta_path.exists() else {}
    return AgingDataset(data=data, meta=meta)  # the header check made it (n, 9) finite floats


def read_grid(path: str | Path) -> list[CycleConditions]:
    """Parse a grid file, a JSON array of CycleConditions objects.

    Undecodable text, a top level that is not an array, and an entry that is
    not an object, that CycleConditions rejects (a missing or unknown key,
    a value that is no number or out of range) or whose soh is not 1.0 raise
    `FileFormatError` naming the file and, for an entry, its index.
    """
    path = Path(path)
    grid = []
    for i, entry in enumerate(_read_json(path, list)):
        try:
            if not isinstance(entry, dict):
                raise ValueError(f"expected an object, got {type(entry).__name__}")
            cond = CycleConditions(**entry)
            if cond.soh != 1.0:
                raise ValueError(f"soh must be 1.0, where aging tests start, got {cond.soh}")
            grid.append(cond)
        except (TypeError, ValueError) as exc:  # TypeError: a missing or unknown key
            raise FileFormatError(f"{path}: entry {i}: {exc}") from exc
    return grid


# ----------------------------------------------------------------------
# Network and model artifacts
# ----------------------------------------------------------------------

def _network_to_dict(network: TrainedNetwork) -> dict:
    return {
        "layer_sizes": list(network.spec.layer_sizes),
        "weights": [w.ravel().tolist() for w, _ in network.params],
        "biases": [b.tolist() for _, b in network.params],
        **{
            side: {"lo": n.lo.tolist(), "hi": n.hi.tolist(), "mask": n.mask.astype(int).tolist()}
            for side, n in (("x_norm", network.x_norm), ("y_norm", network.y_norm))
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
    except FileFormatError:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # ValueError: a bad number, layer size, normalizer range or config.
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
    return write_json(path, doc)


def read_model_artifact(path: str | Path) -> DegradationModel:
    doc = read_json(path)
    if doc.get("format") != MODEL_FORMAT:
        raise FileFormatError(f"{path}: unknown format {doc.get('format')!r}")
    try:
        ubdf_id = int(doc["ubdf_variant"])
        bdp_id = int(doc["bdp_variant"])
        ubdf_doc, bdp_doc = doc["ubdf"], doc["bdp"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: malformed model artifact: {exc!r}") from exc
    try:
        check_closure(ubdf_id, bdp_id)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    if doc.get("closure_checksum") != closure_checksum(ubdf_id, bdp_id):
        raise FileFormatError(f"{path}: composition-closure checksum mismatch")
    model = DegradationModel(
        ubdf_id=ubdf_id,
        bdp_id=bdp_id,
        ubdf=_network_from_dict(ubdf_doc, f"{path}#ubdf"),
        bdp=_network_from_dict(bdp_doc, f"{path}#bdp"),
    )
    expected = (len(UBDF_VARIANTS[ubdf_id]), len(BDP_VARIANTS[bdp_id]))
    if model.ubdf.spec.n_outputs != expected[0] or model.bdp.spec.n_inputs != expected[1]:
        raise FileFormatError(f"{path}: network widths do not match the variant ids")
    return model


# ----------------------------------------------------------------------
# Cases and series
# ----------------------------------------------------------------------

def write_series_csv(path: str | Path, case: MicrogridCase) -> Path:
    columns = [getattr(case, field) for field in SERIES_FIELDS]
    return _write_table(path, SERIES_HEADER, [np.arange(case.horizon), *columns])


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
            key: getattr(case, field).tolist()
            for key, field in zip(SERIES_HEADER[1:], SERIES_FIELDS)
        }
    else:
        write_series_csv(path.parent / series_csv, case)
        doc["series"] = {"csv": series_csv}
    return write_json(path, doc)


def read_case(path: str | Path) -> MicrogridCase:
    """Parse a case document into a validated `MicrogridCase`.

    The series come inline or from the CSV file the document names; any
    horizon is accepted, and a CSV's hour column must read 0, 1, ..., T-1 in
    row order. `MicrogridCase` rejects series that are empty, not 1-D,
    non-finite or of unequal length, and it and its units reject any scalar
    that is not a finite number. Every such rejection, like a missing key or
    a misnumbered hour, raises `FileFormatError` naming the file.
    """
    path = Path(path)
    doc = read_json(path)
    try:
        series = doc["series"]
        if "csv" in series:
            table = path.parent / series["csv"]
            data = _read_table(table, SERIES_HEADER)
            bad = np.flatnonzero(data[:, 0] != np.arange(len(data)))
            if bad.size:
                i = bad[0]
                raise FileFormatError(f"{table}: row {i + 1}: hour {data[i, 0]:g}, expected {i}")
            series = dict(zip(SERIES_HEADER, data.T))
        values = {field: series[key] for key, field in zip(SERIES_HEADER[1:], SERIES_FIELDS)}
        case = MicrogridCase(
            generators=[Generator(**g) for g in doc["generators"]],
            bess=[Bess(**b) for b in doc["bess"]],
            p_grid_max=doc["tie_line"]["p_grid_max"],
            reserve_fraction=doc["reserve_fraction"],
            dt_hours=doc["dt_hours"],
            **values,
        )
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{path}: malformed case document: {exc}") from exc
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
    return case


def case_files(path: str | Path) -> list[Path]:
    """The files a case document reads: itself, then the series CSV it names, if any."""
    path = Path(path)
    series = read_json(path).get("series", {})
    return [path, path.parent / series["csv"]] if "csv" in series else [path]


# ----------------------------------------------------------------------
# Schedules, traces, summaries, reports
# ----------------------------------------------------------------------

def check_schedule_layout(case: MicrogridCase) -> None:
    """Raise ValueError unless the case fits the schedule CSV: 1 generator, 1 battery."""
    if len(case.generators) != 1 or len(case.bess) != 1:
        raise ValueError(
            "schedule CSV format covers exactly 1 generator and 1 battery, "
            f"case has {len(case.generators)} and {len(case.bess)}"
        )


def write_schedule(path: str | Path, sched: DispatchSchedule, case: MicrogridCase) -> Path:
    """Hourly dispatch CSV; defined for single-generator, single-battery cases."""
    check_schedule_layout(case)
    return _write_table(path, SCHEDULE_HEADER, [
        np.arange(case.horizon),
        sched.p_gen[0],
        sched.u_gen[0].astype(int),
        sched.v_gen[0].astype(int),
        sched.p_buy,
        sched.p_sell,
        sched.p_char[0],
        sched.p_disc[0],
        sched.soc_trajectory(case, 0)[1:],
        sched.energy[0],
    ])


def read_schedule(path: str | Path) -> dict[str, np.ndarray]:
    data = _read_table(Path(path), SCHEDULE_HEADER)
    return {name: data[:, j] for j, name in enumerate(SCHEDULE_HEADER)}


def write_trace(path: str | Path, trace: LodTrace) -> Path:
    """One row per LOD pass; the uncapped pass has an empty usage cap."""
    its = trace.iterations
    costs = ("bess_throughput_kwh", "operation_cost", "degradation_cost", "total_cost")
    return _write_table(path, TRACE_HEADER, [
        [it.index for it in its],
        [None if it.usage_cap_kwh is None else float(it.usage_cap_kwh) for it in its],
        *(np.array([getattr(it, name) for it in its], dtype=float) for name in costs),
    ])


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


def summary_from_trace(trace: LodTrace, solve_seconds: float) -> dict:
    """The summary.json document of a run: its best pass and how the run ended."""
    best = trace.best
    return {
        "total_cost": best.total_cost,
        "operation_cost": best.operation_cost,
        "degradation_cost": best.degradation_cost,
        "degradation": best.degradation,
        "bess_throughput_kwh": best.bess_throughput_kwh,
        "solve_seconds": solve_seconds,
        "iterations": len(trace.iterations),
        "milp_solves": trace.milp_solves,
        "bound_proofs": trace.bound_proofs,
        "lp_solves": trace.lp_solves,
        "best_index": trace.best_index,
        "termination_reason": trace.termination_reason,
    }


def write_summary(path: str | Path, summary: dict, manifest: str | None = None) -> Path:
    doc = dict(summary)
    if manifest is not None:
        doc["manifest"] = manifest
    return write_json(path, doc)


def write_report_table(path: str | Path, rows: list[dict]) -> Path:
    """Accuracy table CSV in the shared `model_id,tol05,...` layout."""
    header = ("model_id", "tol05", "tol10", "tol15", "tol20")
    return _write_table(path, header, [[row[k] for row in rows] for k in header])


def write_cost_series(path: str | Path, rows: list[dict]) -> Path:
    """Cost-vs-iteration series echoed from a trace."""
    header = ("iteration", "operation_cost", "degradation_cost", "total_cost")
    return _write_table(path, header, [[row[k] for row in rows] for k in header])


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
    net = [s["p_disc"] - s["p_char"] for s in (traditional, linear, lod_best)]
    return _write_table(
        path,
        ("hour", "p_bess_traditional", "p_bess_linear", "p_bess_lod"),
        [np.arange(horizons.pop()), *net],
    )


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
    doc = {
        "command": command,
        "config": config,
        "input_digests": {str(p): file_digest(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "timings": timings,
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    return write_json(path, doc)
