"""The three benchmark workloads, each a closed loop of one operation at a time.

A workload repeats a unit of work (a training pipeline, a scheduling day or
a scheduling week) until the next unit would end after the run's deadline,
and at least as many times as its percentiles need.
Each unit draws its inputs from (seed, unit index) and checks its outputs.
Between operations the workload's reference computation is timed (see
reference.py).
Operations go through the package's public entry points only: the click
command group for the CLI workloads, `degradesched.lod` for week-ahead.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cases
import checks
from degradesched import cli, lod, storage
from reference import Reference

HERE = Path(__file__).resolve().parent

# The frozen quantifier the scheduling workloads price degradation with;
# make_model.py regenerates it.
MODEL_PATH = HERE / "model" / "degradesched-model-v1.json"

# Epochs per network in train-search: the full 18-network search at the
# default 450 epochs takes about 14 minutes, far beyond one run.
TRAIN_EPOCHS = 3

# Battery economics, as the CLI's defaults.
ECON = lod.EconParams(capital_cost=120_000.0)

# week-ahead probes how the model build and solve scale with the horizon, so
# every LOD run makes the same number of solves (11: the stall patience of 10
# after the first pass, or the iteration bound); a free-running loop's 11 to
# 30 solves would swamp the per-solve cost in a run of a few cases. The
# number of solves a loop needs is measured on day-ahead.
WEEK_LOD = lod.LodConfig(max_iterations=10)


@dataclass
class Op:
    kind: str
    seconds: float
    errors: list[str] = field(default_factory=list)


@dataclass
class Run:
    """What one workload run did: its operations and workload-specific values."""

    ops: list[Op] = field(default_factory=list)
    units: int = 0
    values: dict[str, list[float]] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)

    def seconds(self, *kinds: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind in kinds]


class Harness:
    """Times operations, and records each as a traced operation when a tracer is given."""

    def __init__(self, run: Run, reference: Reference, tracer=None, model=None):
        self.run = run
        self.reference = reference
        self.tracer = tracer
        self.model = model

    def _timed(self, kind: str, span: str, fn, *args, **kwargs):
        """Run one operation with its output captured; returns (op, result or None)."""
        self.reference.maybe_sample()
        output = io.StringIO()
        result = error = None
        scope = self.tracer.operation(span) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with scope, contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:  # the CLI's way to report a failure
                if exc.code not in (0, None):
                    error = f"exit code {exc.code}"
            except Exception:  # a failed operation is counted, not fatal
                error = traceback.format_exc(limit=3)
        op = Op(kind, time.perf_counter() - start)
        if error is not None:
            op.errors.append(f"{kind}: {error}: {output.getvalue()[-500:]}")
        self.run.ops.append(op)
        return op, result

    def cli(self, kind: str, args: list[str]) -> Op:
        """One CLI command, in process through the click entry point."""
        return self._timed(kind, f"cli.{args[0]}", cli.main.main, args=args,
                           prog_name="degradesched", standalone_mode=False)[0]

    def call(self, kind: str, fn, *args):
        """One library call; returns (op, result or None)."""
        return self._timed(kind, f"bench.{kind}", fn, *args)


def _unit_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % 2**31)


def train_search(h: Harness, seed: int, index: int, work: Path) -> None:
    """simulate-aging on the default grid, then the full variant search."""
    unit = work / f"pipeline{index:03d}"
    unit.mkdir()
    dataset, model = unit / "aging.csv", unit / "model" / "model.json"
    s = str(_unit_seed(seed, index))
    simulate = h.cli("simulate", ["simulate-aging", "--out", str(dataset), "--seed", s,
                                  "--noise", "0.02"])
    train = h.cli("train", ["train", "--dataset", str(dataset), "--out", str(model),
                            "--variant-search", "--with-benchmarks",
                            "--epochs", str(TRAIN_EPOCHS), "--seed", s])
    if not simulate.errors:
        meta = json.loads(dataset.with_suffix(".csv.meta.json").read_text())
        with dataset.open() as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != meta["row_count"]:
            simulate.errors.append(f"{dataset}: {rows} rows, sidecar says {meta['row_count']}")
    if not train.errors:
        errors, accuracy = checks.training(model, model.parent)
        train.errors += errors
        h.run.values.setdefault("select_acc_tol15", []).append(accuracy)
    shutil.rmtree(unit)


def day_ahead(h: Harness, seed: int, index: int, work: Path) -> None:
    """One seeded day through schedule in all three modes, then report."""
    unit = work / f"day{index:04d}"
    unit.mkdir()
    case = cases.day_case(seed, index)
    storage.write_case(unit / "case.json", case, series_csv="series.csv")
    ops = {}
    for mode in ("traditional", "linear-bdc", "lod"):
        ops[mode] = h.cli(mode, ["schedule", "--case", str(unit / "case.json"), "--mode", mode,
                                 "--model", str(MODEL_PATH), "--out-dir", str(unit / mode)])
    ops["report"] = h.cli("report", [
        "report", "--traditional", str(unit / "traditional" / "schedule.csv"),
        "--linear", str(unit / "linear-bdc" / "schedule.csv"),
        "--lod", str(unit / "lod" / "schedule.csv"),
        "--trace", str(unit / "lod" / "trace.csv"),
        "--out-dir", str(unit / "report"),
    ])
    if not any(op.errors for op in ops.values()):
        for kind, errors in checks.day(unit, case).items():
            ops[kind].errors += errors
        summary = json.loads((unit / "traditional" / "summary.json").read_text())
        h.run.values.setdefault("priced", []).append(float(summary["degradation_cost"] > 0))
    shutil.rmtree(unit)


def week_ahead(h: Harness, seed: int, index: int, work: Path) -> None:
    """One seeded 168-interval case through the three strategies' library calls."""
    case = cases.week_case(seed, index)
    ops, results = {}, {}
    for kind, fn, args in (("week_traditional", lod.run_traditional, ()),
                           ("week_linear_bdc", lod.run_linear_bdc, ()),
                           ("week_lod", lod.run_lod, (WEEK_LOD,))):
        ops[kind], results[kind] = h.call(kind, fn, case, h.model, ECON, *args)
    if all(r is not None for r in results.values()):
        for kind, errors in checks.week(case, **results).items():
            ops[kind].errors += errors


@dataclass(frozen=True)
class Workload:
    unit: object
    long_kinds: tuple[str, ...]
    short_kinds: tuple[str, ...]
    reference: str
    min_units: int = 1


WORKLOADS = {
    "train-search": Workload(train_search, ("train",), ("simulate",), "training"),
    # 40 days give lod_ms.p75 its ten samples beyond the percentile.
    "day-ahead": Workload(day_ahead, ("lod",), ("traditional", "linear-bdc"), "highs",
                          min_units=40),
    "week-ahead": Workload(week_ahead, ("week_lod",), ("week_traditional", "week_linear_bdc"),
                           "highs"),
}


def run(name: str, seed: int, seconds: float, work: Path, tracer=None) -> Run:
    """Repeat the workload's unit until `min_units` are done and the next one
    would end past `seconds`."""
    workload = WORKLOADS[name]
    result = Run()
    model = storage.read_model_artifact(MODEL_PATH) if name == "week-ahead" else None
    reference = Reference(workload.reference)
    h = Harness(result, reference, tracer, model)
    durations: list[float] = []
    start = time.perf_counter()
    while result.units < workload.min_units or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        began = time.perf_counter()
        workload.unit(h, seed, result.units, work)
        durations.append(time.perf_counter() - began)
        result.units += 1
    result.reference = reference.samples
    priced = result.values.get("priced")
    if priced and statistics.mean(priced) <= 0.5:
        # Without a degradation price every LOD run is a stall loop.
        result.errors.append(f"the frozen model prices degradation on only "
                             f"{sum(priced):.0f} of {len(priced)} days")
    return result
