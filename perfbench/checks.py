"""Output checks; every message returned counts its operation as failed."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from degradesched import storage
from degradesched.milp import UsageCap, validate_schedule
from degradesched.quantifier import compatible_pairs

TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def summary_total(out_dir: Path) -> list[str]:
    """summary.json: total = operation + degradation."""
    doc = json.loads((out_dir / "summary.json").read_text())
    if not _close(doc["total_cost"], doc["operation_cost"] + doc["degradation_cost"]):
        return [f"{out_dir}: total {doc['total_cost']} != operation "
                f"{doc['operation_cost']} + degradation {doc['degradation_cost']}"]
    return []


def schedule_physics(out_dir: Path, case) -> list[str]:
    """Power balance and battery energy recursion, from schedule.csv and the case."""
    sched = storage.read_schedule(out_dir / "schedule.csv")
    bess = case.bess[0]
    errors = []
    balance = (sched["p_buy"] + sched["gen_kw"] + case.wind + case.solar + sched["p_disc"]
               - sched["p_sell"] - case.load - sched["p_char"])
    if np.abs(balance).max() > TOL:
        errors.append(f"{out_dir}: power balance off by {np.abs(balance).max():.3e} kW")
    energy = sched["energy_kwh"]
    previous = np.concatenate(([bess.e_initial], energy[:-1]))
    recursion = energy - previous + case.dt_hours * (
        sched["p_disc"] / bess.eta_discharge - sched["p_char"] * bess.eta_charge)
    if np.abs(recursion).max() > TOL:
        errors.append(f"{out_dir}: energy recursion off by {np.abs(recursion).max():.3e} kWh")
    return errors


def lod_trace(rows: list[dict], best_index: int, traditional_total: float,
              where: str) -> list[str]:
    """Caps strictly decrease, best_index is the trace argmin, iteration 0 is
    the traditional solve, and the best total is no worse than traditional."""
    errors = []
    totals = [r["total_cost"] for r in rows]
    caps = [r["usage_cap_kwh"] for r in rows]
    if caps[0] is not None or any(c is None for c in caps[1:]):
        errors.append(f"{where}: only iteration 0 may run uncapped")
    elif any(b >= a for a, b in zip(caps[1:], caps[2:])):
        errors.append(f"{where}: usage caps do not strictly decrease")
    if best_index != int(np.argmin(totals)):
        errors.append(f"{where}: best_index {best_index} is not the argmin of the trace")
    if not _close(totals[0], traditional_total):
        errors.append(f"{where}: iteration 0 total {totals[0]} != traditional {traditional_total}")
    if totals[best_index] > traditional_total + TOL * max(1.0, abs(traditional_total)):
        errors.append(f"{where}: LOD best {totals[best_index]} above traditional "
                      f"{traditional_total}")
    return errors


def day(day_dir: Path, case) -> dict[str, list[str]]:
    """Checks of one day's schedule and report outputs, keyed by operation."""
    found: dict[str, list[str]] = {}
    for mode in ("traditional", "linear-bdc", "lod"):
        out = day_dir / mode
        found[mode] = summary_total(out) + schedule_physics(out, case)
    traditional = json.loads((day_dir / "traditional" / "summary.json").read_text())
    lod = json.loads((day_dir / "lod" / "summary.json").read_text())
    found["lod"] += lod_trace(storage.read_trace(day_dir / "lod" / "trace.csv"),
                              lod["best_index"], traditional["total_cost"],
                              str(day_dir / "lod"))
    report = day_dir / "report"
    with (report / "bess_comparison.csv").open(newline="") as fh:
        hours = sum(1 for _ in csv.reader(fh)) - 1
    found["report"] = [] if hours == case.horizon else [
        f"{report}: bess_comparison.csv has {hours} rows"]
    return found


def week(case, week_traditional, week_linear_bdc, week_lod) -> dict[str, list[str]]:
    """Every solve passes the independent validator under its cap; keyed by operation."""

    def violations(it) -> list[str]:
        cap = None if it.usage_cap_kwh is None else UsageCap(it.usage_cap_kwh)
        return [f"iteration {it.index}: {v}" for v in validate_schedule(case, it.schedule, cap=cap)]

    rows = [{"total_cost": it.total_cost, "usage_cap_kwh": it.usage_cap_kwh}
            for it in week_lod.iterations]
    return {
        "week_traditional": violations(week_traditional),
        "week_linear_bdc": violations(week_linear_bdc),
        "week_lod": [e for it in week_lod.iterations for e in violations(it)]
        + lod_trace(rows, week_lod.best_index, week_traditional.total_cost, "week"),
    }


def training(model_path: Path, report_dir: Path) -> tuple[list[str], float]:
    """Artifact reads back; composed_pairs.csv covers every compatible pair and
    the selected pair is its tol15 argmax (ties: tol10, then lower ids).

    Returns the errors and the selected pair's tol15 accuracy.
    """
    try:
        model = storage.read_model_artifact(model_path)
    except (ValueError, OSError, KeyError) as exc:
        return [f"{model_path}: does not read back: {exc}"], math.nan
    with (report_dir / "composed_pairs.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    errors = []
    listed = sorted(tuple(int(v) for v in r["model_id"].split("-")) for r in rows)
    if listed != compatible_pairs():
        errors.append(f"{report_dir}: composed_pairs.csv lists {len(listed)} pairs, "
                      f"expected {len(compatible_pairs())}")
    ranked = max(rows, key=lambda r: (float(r["tol15"]), float(r["tol10"]),
                                      *(-int(v) for v in r["model_id"].split("-"))))
    selected = f"{model.ubdf_id}-{model.bdp_id}"
    if ranked["model_id"] != selected:
        errors.append(f"{report_dir}: selected {selected}, tol15 argmax is {ranked['model_id']}")
    accuracy = next((float(r["tol15"]) for r in rows if r["model_id"] == selected), math.nan)
    return errors, accuracy
