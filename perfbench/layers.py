"""Where the traced run hooks each layer, and the per-layer metrics it reports.

Layers are the package modules: cli, storage, aging, net, quantifier, milp
and lod. Each hook wraps a public function at the attribute its caller
looks it up through (`cli` imports `run_lod` by name, `lod` calls
`build_model` through its own globals, and so on), so the program source
stays untouched.

`PER_LAYER` lists every per-layer metric with its unit and the end-to-end
metric (and workload) it should move. A timing without a percentile suffix
is the median per call (`net.train_s`: per train command, summed over its
networks); `layer_self_s.*` are totals over the run. Counts of events are
totals over the run, which also reports `units` (pipelines, days or cases
completed); sizes (`aging.rows`, `milp.n_vars`, ...) describe one item, the
largest where they differ. The table printed before the result line shows
every metric with the sample count behind it, or n/a where a workload never
exercises it or a percentile has too few samples (see
`tracing.percentile`); the result line itself carries `result_metrics()`,
where such a count reads 0.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from tracing import Span, Tracer, percentile, self_times

LAYERS = ("cli", "storage", "aging", "net", "quantifier", "milp", "lod")

# name -> (unit, "higher"/"lower" is better, target end-to-end metric and workload)
PER_LAYER: dict[str, tuple[str, str, str]] = {
    "cli.train_self_s": ("s", "lower", "train_s on train-search"),
    "cli.schedule_self_ms.p50": ("ms", "lower", "single_ms.*, lod_ms.* on day-ahead"),
    "storage.read_dataset_s": ("s", "lower", "train_s, peak_rss_mb on train-search"),
    "storage.write_dataset_s": ("s", "lower", "simulate_s on train-search"),
    "storage.dataset_bytes": ("bytes", "lower", "simulate_s on train-search"),
    "storage.read_case_ms.p50": ("ms", "lower", "single_ms.* on day-ahead"),
    "storage.read_model_ms.p50": ("ms", "lower", "single_ms.* on day-ahead"),
    "storage.write_outputs_ms.p50": ("ms", "lower", "single_ms.* on day-ahead"),
    "aging.generate_s": ("s", "lower", "simulate_s on train-search"),
    "aging.rows": ("count", "higher", "simulate_s on train-search"),
    "aging.from_array_s": ("s", "lower", "train_s, peak_rss_mb on train-search"),
    "aging.to_array_s": ("s", "lower", "train_s, peak_rss_mb on train-search"),
    "aging.to_array_calls": ("count", "lower", "train_s, peak_rss_mb on train-search"),
    "net.train_calls": ("count", "lower", "train_s on train-search; not day-ahead"),
    "net.train_s": ("s", "lower", "train_s on train-search; not day-ahead"),
    "net.epoch_ms.p50": ("ms", "lower", "train_s on train-search; not day-ahead"),
    "net.batches": ("count", "lower", "train_s on train-search; not day-ahead"),
    "net.forward_calls": ("count", "lower", "train_s on train-search, lod_ms.* on day-ahead"),
    "quantifier.select_self_s": ("s", "lower", "train_s on train-search"),
    "quantifier.benchmarks_s": ("s", "lower", "train_s on train-search"),
    "quantifier.cbup_calls": ("count", "lower", "lod_ms.* on day-ahead"),
    "quantifier.half_cycles": ("count", "lower", "lod_ms.* on day-ahead"),
    "quantifier.predict_ms.p50": ("ms", "lower", "lod_ms.* on day-ahead"),
    "quantifier.range_warnings": ("count", "lower", "lod_ms.* on day-ahead"),
    "milp.build_calls": ("count", "lower", "week_lod_s.p50 on week-ahead, lod_ms.* on day-ahead"),
    "milp.build_ms.p50": ("ms", "lower", "week_lod_s.p50 on week-ahead, lod_ms.* on day-ahead"),
    "milp.a_bytes": ("bytes", "lower", "peak_rss_mb on week-ahead"),
    "milp.solve_calls": ("count", "lower", "lod_ms.*, single_ms.* on day-ahead, week_* on week-ahead"),
    "milp.solve_ms.p50": ("ms", "lower", "lod_ms.*, single_ms.* on day-ahead, week_* on week-ahead"),
    "milp.solve_ms.p75": ("ms", "lower", "lod_ms.*, single_ms.* on day-ahead, week_* on week-ahead"),
    "milp.n_vars": ("count", "lower", "moves only when the model changes"),
    "milp.n_binaries": ("count", "lower", "moves only when the model changes"),
    "milp.n_rows": ("count", "lower", "moves only when the model changes"),
    "milp.a_nnz": ("count", "lower", "moves only when the model changes"),
    "milp.infeasible": ("count", "lower", "fail_share on every workload"),
    "lod.iterations.p50": ("count", "lower", "lod_ms.* on day-ahead; not single_ms.*"),
    "lod.iterations_total": ("count", "lower", "lod_ms.* on day-ahead; not single_ms.*"),
    "lod.useful_ratio": ("ratio", "higher", "lod_ms.* on day-ahead; not single_ms.*"),
    "lod.self_ms.p50": ("ms", "lower", "lod_ms.* on day-ahead"),
    "lod.degradation_ms.p50": ("ms", "lower", "lod_ms.* on day-ahead"),
    "lod.termination.converged": ("count", "higher", "count of LOD runs"),
    "lod.termination.cap_exhausted": ("count", "lower", "count of LOD runs"),
    "lod.termination.max_iterations": ("count", "lower", "count of LOD runs"),
    "lod.termination.infeasible": ("count", "lower", "fail_share"),
    **{f"layer_self_s.{layer}": ("s", "lower", "self time of the layer over the run")
       for layer in LAYERS},
    **{f"layer_share.{layer}": ("ratio", "lower", "share of operation time in the layer itself")
       for layer in LAYERS},
    "trace.spans": ("count", "lower", "spans recorded over the run"),
    "trace.overhead_ms": ("ms", "lower", "time spent in span bookkeeping"),
    "units": ("count", "higher", "pipelines, days or cases completed"),
}


# Times every workload measures. A time a workload never measures would read
# 0 on every run, so the result line carries only these times, plus every
# count, size and ratio; the table and the record carry every metric.
ALWAYS_TIMED = ("layer_self_s.net", "layer_self_s.quantifier", "trace.overhead_ms")


def result_metrics() -> list[str]:
    """The per-layer metrics of the result line, in `PER_LAYER` order."""
    return [name for name, (unit, _, _) in PER_LAYER.items()
            if unit not in ("s", "ms") or name in ALWAYS_TIMED]


def install(tracer: Tracer, counts: dict) -> None:
    """Hook every layer; `counts` collects what the results say."""
    from degradesched import aging, cli, lod, net, storage
    from degradesched.quantifier import FeatureRangeWarning

    def count(key: str, n: float = 1) -> None:
        counts[key] = counts.get(key, 0) + n

    # storage: every reader and writer the CLI calls.
    for fn in ("read_case", "read_model_artifact", "read_schedule", "read_trace",
               "write_schedule", "write_trace", "write_summary", "write_manifest",
               "write_bess_comparison", "write_cost_series", "write_report_table",
               "write_model_artifact", "read_dataset"):
        tracer.wrap(storage, fn, f"storage.{fn}")

    def dataset_written(span, args, kwargs, result):
        span.attrs["bytes"] = os.path.getsize(result)

    tracer.wrap(storage, "write_dataset", "storage.write_dataset", after=dataset_written)

    # aging
    def generated(span, args, kwargs, result):
        span.attrs["rows"] = len(result)

    tracer.wrap(cli, "generate_dataset", "aging.generate_dataset", after=generated)
    tracer.wrap(aging.AgingDataset, "from_array", "aging.from_array")
    tracer.wrap(aging.AgingDataset, "to_array", "aging.to_array")

    # net
    def trained(span, args, kwargs, result):
        cfg = kwargs.get("cfg", args[3] if len(args) > 3 else None)
        split = kwargs.get("split")
        n_train = (len(split[0]) if split is not None
                   else round(len(args[0]) * cfg.train_fraction))
        span.attrs["epochs"] = cfg.epochs
        count("net.batches", math.ceil(n_train / cfg.batch_size) * cfg.epochs)

    tracer.wrap(net, "train", "net.train", after=trained)
    tracer.wrap(net, "forward", "net.forward")

    # quantifier: the CLI's training entry points, and LOD's costing calls.
    for fn in ("select_best_combination", "train_benchmarks", "performance_comparison"):
        tracer.wrap(cli, fn, f"quantifier.{fn}")

    def cycles(span, args, kwargs, result):
        count("quantifier.half_cycles", len(result))

    tracer.wrap(lod, "cbup", "quantifier.cbup", after=cycles)
    tracer.wrap(lod, "predict_degradation", "quantifier.predict_degradation")

    # milp, as the LOD loop and the baselines reach it.
    shapes: dict = {}

    def built(span, args, kwargs, result):
        key = (result.a_ub.shape, result.a_eq.shape)
        if key not in shapes:
            shapes[key] = (int(np.count_nonzero(result.a_ub))
                           + int(np.count_nonzero(result.a_eq)))
        span.attrs.update(
            n_vars=result.n_variables,
            n_binaries=result.n_binaries,
            n_rows=result.a_ub.shape[0] + result.a_eq.shape[0],
            a_nnz=shapes[key],
            a_bytes=result.a_ub.nbytes + result.a_eq.nbytes,
        )

    tracer.wrap(lod, "build_model", "milp.build_model", after=built)
    tracer.wrap(lod, "solve", "milp.solve")

    # lod: the CLI's and the library's entry points.
    def looped(span, args, kwargs, result):
        span.attrs.update(
            iterations=len(result.iterations),
            best_index=result.best_index,
            termination=result.termination_reason,
        )

    for owner in (cli, lod):
        tracer.wrap(owner, "run_lod", "lod.run_lod", after=looped)
        tracer.wrap(owner, "run_traditional", "lod.run_traditional")
        tracer.wrap(owner, "run_linear_bdc", "lod.run_linear_bdc")
    tracer.wrap(lod, "schedule_degradation", "lod.schedule_degradation")

    # Count range warnings instead of printing the first of each.
    saved = warnings.catch_warnings()
    saved.__enter__()
    tracer.defer(lambda: saved.__exit__(None, None, None))
    shown = warnings.showwarning

    def counted(message, category, *args, **kwargs):
        if issubclass(category, FeatureRangeWarning):
            count("quantifier.range_warnings")
        else:
            shown(message, category, *args, **kwargs)

    warnings.simplefilter("always", FeatureRangeWarning)
    warnings.showwarning = counted


def _durations(spans: list[Span], name: str, scale: float = 1.0) -> list[float]:
    return [s.duration * scale for s in spans if s.name == name]


def layer_metrics(spans: list[Span], counts: dict, units: int,
                  overhead_s: float) -> dict[str, tuple[float | None, int]]:
    """Every `PER_LAYER` metric as (value, samples)."""
    own = self_times(spans)
    out: dict[str, tuple[float | None, int]] = {}

    def put(name: str, samples: list[float], q: float = 0.5) -> None:
        out[name] = (percentile(samples, q), len(samples))

    def total(name: str, value: float) -> None:
        out[name] = (value, 1)

    def largest(name: str, sizes: list[float]) -> None:
        out[name] = (max(sizes) if sizes else None, len(sizes))

    def by_name(name: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == name]

    def attr(name: str, key: str) -> list[float]:
        return [spans[i].attrs[key] for i in by_name(name) if key in spans[i].attrs]

    def per_operation(root: str, names: tuple[str, ...], scale: float = 1.0) -> list[float]:
        """Time inside spans `names`, summed per operation rooted at `root`."""
        sums = {spans[i].op: 0.0 for i in by_name(root)}
        for s in spans:
            if s.name in names and s.op in sums:
                sums[s.op] += s.duration * scale
        return list(sums.values())

    put("cli.train_self_s", [own[i] for i in by_name("cli.train")])
    put("cli.schedule_self_ms.p50", [own[i] * 1e3 for i in by_name("cli.schedule")])

    put("storage.read_dataset_s", _durations(spans, "storage.read_dataset"))
    put("storage.write_dataset_s", _durations(spans, "storage.write_dataset"))
    largest("storage.dataset_bytes", attr("storage.write_dataset", "bytes"))
    put("storage.read_case_ms.p50", _durations(spans, "storage.read_case", 1e3))
    put("storage.read_model_ms.p50", _durations(spans, "storage.read_model_artifact", 1e3))
    put("storage.write_outputs_ms.p50", per_operation(
        "cli.schedule", ("storage.write_schedule", "storage.write_trace",
                         "storage.write_summary", "storage.write_manifest"), 1e3))

    put("aging.generate_s", _durations(spans, "aging.generate_dataset"))
    largest("aging.rows", attr("aging.generate_dataset", "rows"))
    put("aging.from_array_s", _durations(spans, "aging.from_array"))
    put("aging.to_array_s", _durations(spans, "aging.to_array"))
    total("aging.to_array_calls", len(by_name("aging.to_array")))

    trains = by_name("net.train")
    total("net.train_calls", len(trains))
    put("net.train_s", per_operation("cli.train", ("net.train",)))
    put("net.epoch_ms.p50", [spans[i].duration * 1e3 / spans[i].attrs["epochs"]
                             for i in trains if "epochs" in spans[i].attrs])
    total("net.batches", counts.get("net.batches", 0))
    total("net.forward_calls", len(by_name("net.forward")))

    put("quantifier.select_self_s",
        [own[i] for i in by_name("quantifier.select_best_combination")])
    put("quantifier.benchmarks_s", _durations(spans, "quantifier.train_benchmarks"))
    total("quantifier.cbup_calls", len(by_name("quantifier.cbup")))
    total("quantifier.half_cycles", counts.get("quantifier.half_cycles", 0))
    put("quantifier.predict_ms.p50", _durations(spans, "quantifier.predict_degradation", 1e3))
    total("quantifier.range_warnings", counts.get("quantifier.range_warnings", 0))

    total("milp.build_calls", len(by_name("milp.build_model")))
    put("milp.build_ms.p50", _durations(spans, "milp.build_model", 1e3))
    solves = _durations(spans, "milp.solve", 1e3)
    total("milp.solve_calls", len(solves))
    put("milp.solve_ms.p50", solves)
    put("milp.solve_ms.p75", solves, 0.75)
    for key in ("a_bytes", "n_vars", "n_binaries", "n_rows", "a_nnz"):
        largest(f"milp.{key}", attr("milp.build_model", key))
    total("milp.infeasible", sum(
        1 for s in spans
        if s.name in ("milp.build_model", "milp.solve")
        and s.attrs.get("error") == "InfeasibleCaseError"
    ))

    runs = [spans[i] for i in by_name("lod.run_lod")]
    iterations = [s.attrs["iterations"] for s in runs if "iterations" in s.attrs]
    put("lod.iterations.p50", iterations)
    total("lod.iterations_total", sum(iterations))
    useful = sum(s.attrs["best_index"] + 1 for s in runs if "best_index" in s.attrs)
    total("lod.useful_ratio", useful / sum(iterations) if iterations else 0.0)
    put("lod.self_ms.p50", [own[i] * 1e3 for i in by_name("lod.run_lod")])
    put("lod.degradation_ms.p50", _durations(spans, "lod.schedule_degradation", 1e3))
    for reason in ("converged", "cap_exhausted", "max_iterations", "infeasible"):
        total(f"lod.termination.{reason}",
              sum(1 for s in runs if s.attrs.get("termination") == reason))

    busy = sum(s.duration for s in spans if s.parent is None)
    for layer in LAYERS:
        self_s = sum(t for s, t in zip(spans, own) if s.layer == layer)
        total(f"layer_self_s.{layer}", self_s)
        total(f"layer_share.{layer}", self_s / busy if busy else 0.0)
    total("trace.spans", len(spans))
    total("trace.overhead_ms", overhead_s * 1e3)
    total("units", units)
    return out
