"""Command-line front door: dataset generation, training, scheduling, reports.

Exit codes: 0 success, 1 runtime/solver failure, 2 input validation failure.
The commands raise; one boundary, the group's `invoke`, maps what they raise
to the code and prints the exception's text as one `error:` line. An
`OSError` (a missing or unreadable input, an unwritable output) or a
`ValueError` (a malformed file, a flag or config value out of range) exits
2; the readers' messages name the file. A `RuntimeError` (training
diverged, the solver failed) exits 1; so does an infeasible case, after
`schedule` has printed its `infeasible:` lines and written
`infeasible.json`. Anything else is a bug and ends in a traceback. A
--config JSON file overrides flags of the same name and is checked like
them; DEGRADESCHED_SEED provides the default seed.

Every `schedule` mode writes schedule.csv (the best pass), trace.csv (one
row per pass), summary.json, manifest.json and, after an infeasible pass,
infeasible.json, which a run without one removes; the one-pass modes end as
"single_solve". A case infeasible at pass 0 leaves infeasible.json alone,
removing an earlier run's other four files. simulate-aging, train and
schedule open every output before their work, and train does so before it
reads its dataset; report reads and checks every input before it creates
--out-dir.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import click

from . import __version__, storage
from .aging import END_OF_LIFE_SOH, default_grid, generate_dataset
from .exampleday import load_example_day
from .lod import EconParams, LodConfig, LodTrace, run_linear_bdc, run_lod, run_traditional
from .milp import InfeasibleCaseError
from .net import TrainConfig
from .quantifier import (
    check_closure,
    performance_comparison,
    select_best_combination,
    shared_split,
    train_benchmarks,
)

EXIT_RUNTIME = 1
EXIT_VALIDATION = 2


class _ExitCodes(click.Group):
    """A group whose commands' exceptions become the module's exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort):  # RuntimeErrors of click's own
            raise
        except (OSError, ValueError, RuntimeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_RUNTIME if isinstance(exc, RuntimeError) else EXIT_VALIDATION)


def _apply_config(params: dict) -> dict:
    """Option values by name with the --config JSON object merged over them.

    `params` are the command's keyword arguments, less `config`. A config key
    wins over the flag of the same name and passes through that flag's type.
    """
    values = dict(params)
    config_path = values.pop("config")
    if config_path is None:
        return values
    doc = storage.read_json(config_path)
    unknown = set(doc) - set(values)
    if unknown:
        raise ValueError(f"{config_path}: unknown config keys: {sorted(unknown)}")
    ctx = click.get_current_context()
    options = {param.name: param for param in ctx.command.params}
    for key, value in doc.items():
        # Cast the text, as a flag's: int takes 7.5 as 7 but rejects "7.5".
        text = None if value is None else str(value)
        if text is None and options[key].required:
            raise ValueError(f"{config_path}: config key {key!r}: required, got null")
        try:
            values[key] = options[key].type_cast_value(ctx, text)
        except click.BadParameter as exc:
            raise ValueError(f"{config_path}: config key {key!r}: {exc.message}") from None
    return values


@contextmanager
def _timed(timings: dict, key: str):
    """Record the wall time of the with-block under timings[key]."""
    start = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = time.perf_counter() - start


def _train_config(values: dict) -> TrainConfig:
    return TrainConfig(
        initial_lr=values["lr"],
        lr_decay_factor=values["lr_decay"],
        decay_every_epochs=values["decay_every"],
        batch_size=values["batch_size"],
        epochs=values["epochs"],
        train_fraction=values["train_fraction"],
        seed=values["seed"],
    )


@click.group(cls=_ExitCodes)
@click.version_option(__version__)
def main() -> None:
    """Degradation-aware microgrid scheduling toolkit."""


@main.command("simulate-aging")
@click.option("--grid", type=click.Path(), default=None,
              help="JSON list of cycle-condition objects; defaults to the 35-group grid.")
@click.option("--out", type=click.Path(), required=True,
              help="Output dataset CSV; a .meta.json sidecar is written next to it.")
@click.option("--noise", type=float, default=0.02, show_default=True,
              help="Relative sigma of the multiplicative degradation noise.")
@click.option("--seed", type=int, default=0, envvar="DEGRADESCHED_SEED", show_default=True)
@click.option("--config", type=click.Path(), default=None,
              help="JSON file overriding any flag.")
def cmd_simulate_aging(**params) -> None:
    """Generate a synthetic battery-aging dataset."""
    values = _apply_config(params)
    t0 = time.perf_counter()
    inputs = []
    if values["grid"] is None:
        grid = default_grid()
    else:
        grid = storage.read_grid(values["grid"])
        inputs.append(values["grid"])
    out = Path(values["out"])
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    storage.check_writable(out, storage.dataset_meta_path(out), manifest_path)
    dataset = generate_dataset(grid, noise_sigma=values["noise"], seed=values["seed"])

    storage.write_dataset(out, dataset, manifest=manifest_path.name)
    storage.write_manifest(
        manifest_path,
        command="simulate-aging",
        config={k: v for k, v in values.items() if k != "out"},
        inputs=inputs,
        seed=values["seed"],
        timings={"wall_seconds": time.perf_counter() - t0},
    )
    click.echo(f"wrote {len(dataset)} rows to {out}")


@main.command("train")
@click.option("--dataset", type=click.Path(), required=True)
@click.option("--out", type=click.Path(), required=True, help="Model artifact JSON path.")
@click.option("--variant-search", is_flag=True, default=False,
              help="Train every variant and keep the best composed pair.")
@click.option("--ubdf", type=int, default=None, help="Stage-one variant id (1-6).")
@click.option("--bdp", type=int, default=None, help="Stage-two variant id (1-10).")
@click.option("--with-benchmarks", is_flag=True, default=False,
              help="Also train the single-stage benchmark networks.")
@click.option("--report-dir", type=click.Path(), default=None,
              help="Directory for accuracy-table CSVs (defaults to the artifact's directory).")
@click.option("--epochs", type=int, default=TrainConfig.epochs, show_default=True)
@click.option("--batch-size", type=int, default=TrainConfig.batch_size, show_default=True)
@click.option("--lr", type=float, default=TrainConfig.initial_lr, show_default=True)
@click.option("--lr-decay", type=float, default=TrainConfig.lr_decay_factor, show_default=True)
@click.option("--decay-every", type=int, default=TrainConfig.decay_every_epochs, show_default=True)
@click.option("--train-fraction", type=float, default=TrainConfig.train_fraction, show_default=True)
@click.option("--seed", type=int, default=0, envvar="DEGRADESCHED_SEED", show_default=True)
@click.option("--config", type=click.Path(), default=None)
def cmd_train(**params) -> None:
    """Train the two-stage quantifier (one pair or a full variant search)."""
    values = _apply_config(params)
    t0 = time.perf_counter()
    named = (values["ubdf"], values["bdp"])
    search = values["variant_search"]
    if search:
        if named != (None, None):
            raise ValueError("--variant-search excludes --ubdf/--bdp")
    elif None in named:
        raise ValueError("provide --ubdf and --bdp, or --variant-search")
    else:
        check_closure(*named)
    cfg = _train_config(values)

    out = Path(values["out"])
    manifest_path = out.with_suffix(out.suffix + ".manifest.json")
    report_to = Path(values["report_dir"]) if values["report_dir"] else out.parent
    tables = ["ubdf_models", "bdp_models", "composed_pairs"] if search else []
    if values["with_benchmarks"]:
        tables.append("performance_comparison")
    table_path = {name: report_to / f"{name}.csv" for name in tables}
    for directory in (out.parent, report_to):
        directory.mkdir(parents=True, exist_ok=True)
    storage.check_writable(out, manifest_path, *table_path.values())
    timings: dict = {}
    with _timed(timings, "read_seconds"):
        dataset = storage.read_dataset(values["dataset"])
    metrics: dict = {"seed": values["seed"]}

    try:
        split = shared_split(dataset, cfg)  # every network trains and scores on these rows
        with _timed(timings, "search_seconds" if search else "pair_seconds"):
            model, report = select_best_combination(
                dataset, split, cfg, None if search else [named])
        if search:
            storage.write_report_table(table_path["ubdf_models"], report.ubdf_table)
            storage.write_report_table(table_path["bdp_models"], report.bdp_table)
            storage.write_report_table(table_path["composed_pairs"], report.composed_table)
            metrics["selection_failures"] = report.failures
            click.echo(
                f"selected stage-one variant {model.ubdf_id}, "
                f"stage-two variant {model.bdp_id}"
            )
        if values["with_benchmarks"]:
            with _timed(timings, "benchmarks_seconds"):
                benchmarks = train_benchmarks(dataset, split, cfg)
                rows = performance_comparison(model, report, benchmarks, dataset, split)
            storage.write_report_table(table_path["performance_comparison"], rows)
            metrics["performance_comparison"] = rows
    except ValueError as exc:  # a constant feature, a non-positive target: the data
        raise ValueError(f"dataset {values['dataset']}: {exc}") from exc

    metrics["variants"] = {"ubdf": model.ubdf_id, "bdp": model.bdp_id}
    storage.write_model_artifact(out, model, metrics=metrics, manifest=manifest_path.name)
    storage.write_manifest(
        manifest_path,
        command="train",
        config={k: v for k, v in values.items() if k not in ("dataset", "out")},
        inputs=[values["dataset"]],
        seed=values["seed"],
        timings={**timings, "wall_seconds": time.perf_counter() - t0},
    )
    click.echo(f"wrote model artifact {out}")


@main.command("schedule")
@click.option("--case", type=str, required=True,
              help="Case JSON path, or 'example-day' for the bundled day.")
@click.option("--mode", type=click.Choice(["traditional", "linear-bdc", "lod"]),
              required=True)
@click.option("--model", type=click.Path(), required=True,
              help="Trained model artifact (used for degradation costing).")
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--capital-cost", type=float, default=120_000.0, show_default=True)
@click.option("--salvage-value", type=float, default=EconParams.salvage_value, show_default=True)
@click.option("--soh-eol", type=float, default=EconParams.soh_eol, show_default=True)
@click.option("--linear-rate", type=float, default=EconParams.linear_bdc_rate, show_default=True,
              help="$/kWh rate for the linear-bdc benchmark.")
@click.option("--alpha", type=float, default=LodConfig.alpha, show_default=True)
@click.option("--max-iterations", type=int, default=LodConfig.max_iterations, show_default=True)
@click.option("--patience", type=int, default=LodConfig.patience, show_default=True)
@click.option("--soh", type=click.FloatRange(END_OF_LIFE_SOH, 1.0, min_open=True),
              default=1.0, show_default=True, help="Day-start battery state of health.")
@click.option("--config", type=click.Path(), default=None)
def cmd_schedule(**params) -> None:
    """Solve the look-ahead schedule under one of the three strategies."""
    values = _apply_config(params)
    t0 = time.perf_counter()
    inputs = []
    timings: dict = {}
    if math.isnan(values["soh"]):  # NaN passes the flag's range check
        raise ValueError("--soh must be a number, got nan")
    with _timed(timings, "read_seconds"):
        if values["case"] == "example-day":
            case = load_example_day()
        else:
            case = storage.read_case(values["case"])
            inputs.extend(storage.case_files(values["case"]))
        storage.check_schedule_layout(case)
        model = storage.read_model_artifact(values["model"])
        inputs.append(values["model"])
    econ = EconParams(
        capital_cost=values["capital_cost"],
        salvage_value=values["salvage_value"],
        soh_eol=values["soh_eol"],
        linear_bdc_rate=values["linear_rate"],
    )
    lod_cfg = LodConfig(
        alpha=values["alpha"],
        max_iterations=values["max_iterations"],
        patience=values["patience"],
    )

    out = Path(values["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    storage.check_writable(*(out / name for name in (
        "schedule.csv", "trace.csv", "summary.json", "infeasible.json", "manifest.json")))
    try:
        with _timed(timings, "solve_seconds"):
            if values["mode"] == "lod":
                trace = run_lod(case, model, econ, lod_cfg, soh=values["soh"])
            else:
                runner = run_traditional if values["mode"] == "traditional" else run_linear_bdc
                trace = LodTrace([runner(case, model, econ, soh=values["soh"])], best_index=0,
                                 termination_reason="single_solve", infeasible_report=[],
                                 milp_solves=1, bound_proofs=0, lp_solves=0)
    except InfeasibleCaseError as exc:
        for line in exc.report:
            click.echo(f"infeasible: {line}", err=True)
        for name in ("schedule.csv", "trace.csv", "summary.json", "manifest.json"):
            (out / name).unlink(missing_ok=True)  # an earlier run's record
        storage.write_json(out / "infeasible.json", {"mode": values["mode"], "report": exc.report})
        sys.exit(EXIT_RUNTIME)
    with _timed(timings, "write_seconds"):
        storage.write_schedule(out / "schedule.csv", trace.best.schedule, case)
        storage.write_trace(out / "trace.csv", trace)
        if trace.infeasible_report:
            storage.write_json(out / "infeasible.json",
                               {"mode": values["mode"], "report": trace.infeasible_report})
        else:  # a report an earlier run left would contradict this record
            (out / "infeasible.json").unlink(missing_ok=True)
        summary = storage.summary_from_trace(trace, timings["solve_seconds"])
        storage.write_summary(out / "summary.json", summary, manifest="manifest.json")
    storage.write_manifest(
        out / "manifest.json",
        command=f"schedule --mode {values['mode']}",
        config={k: v for k, v in values.items() if k not in ("out_dir",)},
        inputs=inputs,
        seed=None,
        timings={**timings, "wall_seconds": time.perf_counter() - t0},
    )
    click.echo(
        f"{values['mode']}: total ${summary['total_cost']:.2f} "
        f"(operation ${summary['operation_cost']:.2f}, "
        f"degradation ${summary['degradation_cost']:.2f})"
    )


@main.command("report")
@click.option("--traditional", "trad_path", type=click.Path(), required=True)
@click.option("--linear", "linear_path", type=click.Path(), required=True)
@click.option("--lod", "lod_path", type=click.Path(), required=True)
@click.option("--trace", "trace_path", type=click.Path(), default=None,
              help="LOD trace CSV; echoed as the cost-vs-iteration series.")
@click.option("--out-dir", type=click.Path(), required=True)
def cmd_report(trad_path, linear_path, lod_path, trace_path, out_dir) -> None:
    """Merge per-strategy schedules into plot-ready comparison tables."""
    paths = (trad_path, linear_path, lod_path)
    schedules = [storage.read_schedule(p) for p in paths]
    rows = None if trace_path is None else storage.read_trace(trace_path)
    horizons = [len(s["hour"]) for s in schedules]
    if len(set(horizons)) > 1:
        raise ValueError("schedules have mismatched horizons: " + ", ".join(
            f"{p} has {n} rows" for p, n in zip(paths, horizons)))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    storage.write_bess_comparison(out / "bess_comparison.csv", *schedules)
    if rows is not None:
        storage.write_cost_series(out / "cost_vs_iteration.csv", rows)
    click.echo(f"wrote comparison tables to {out}")


if __name__ == "__main__":
    main()
