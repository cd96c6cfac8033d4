"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload day-ahead --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from its
`src/` directory, never from an installed copy. Without `src/` the run
exits with code 2 and prints no result.

Set-up time is measured first: fresh interpreters are launched until
`degradesched.cli` has been imported. The workload then runs in this
process, one operation at a time, for `--seconds`. With `--trace 0` the
result holds the end-to-end metrics; with `--trace 1` the layers are hooked
(see layers.py) and the result holds the per-layer metrics instead.

The gated latencies (`long_op_ref.p50`, `short_op_ref.p50`) are median
operation latencies in multiples of a fixed reference computation timed in
the same run (see reference.py), so that the host's changing speed cancels;
the latencies in ms and s are printed and recorded beside them.

Human-readable lines come first: the environment, then every metric by name
with its unit and sample count. The last line of standard output is the
result as one JSON object. A record with the environment and every sample
count is also written to .perfbench-work/results/.
"""

from __future__ import annotations

import os

# BLAS runs on one thread, so a run's load is this one process alone; set
# before numpy is first imported, here and in every child interpreter.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# Fresh interpreters launched to time set-up; the first only warms the
# bytecode cache and is not counted.
SETUP_LAUNCHES = 5

EXIT_NO_SOURCE = 2


def setup_samples() -> list[float]:
    """Seconds from launching a fresh interpreter until degradesched.cli is imported."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import time, degradesched.cli; print(repr(time.monotonic()))"
    samples = []
    for _ in range(SETUP_LAUNCHES + 1):
        launched = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout) - launched)
    return samples[1:]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": f"{blas.get('name')} {blas.get('version')}",
        "openblas_scipy": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def end_to_end(name: str, result, setup: list[float], peak_rss_mb: float) -> dict:
    """Every end-to-end metric of the workload as {name: (value, unit, samples)}."""
    from tracing import percentile
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    attempted = len(result.ops)
    failed = sum(1 for op in result.ops if op.errors)

    reference = statistics.median(result.reference)

    def timing(unit: str, kinds, q: float = 0.5) -> tuple:
        scale = {"ms": 1e3, "s": 1.0, "ref": 1.0 / reference}[unit]
        samples = [s * scale for s in result.seconds(*kinds)]
        return percentile(samples, q), unit, len(samples)

    out = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "long_op_ref.p50": timing("ref", workload.long_kinds),
        "short_op_ref.p50": timing("ref", workload.short_kinds),
        "fail_share": (failed / attempted, "1", attempted),
        "reference_ms": (reference * 1e3, "ms", len(result.reference)),
        "long_op_ms.p50": timing("ms", workload.long_kinds),
        "short_op_ms.p50": timing("ms", workload.short_kinds),
    }
    if name == "train-search":
        accuracy = result.values.get("select_acc_tol15", [])
        out["simulate_s"] = timing("s", ("simulate",))
        out["train_s"] = timing("s", ("train",))
        out["select_acc_tol15"] = (statistics.median(accuracy) if accuracy else None, "1",
                                   len(accuracy))
    elif name == "day-ahead":
        for q in (0.5, 0.75):
            out[f"lod_ms.p{round(q * 100)}"] = timing("ms", ("lod",), q)
            out[f"single_ms.p{round(q * 100)}"] = timing("ms", ("traditional", "linear-bdc"), q)
    else:
        out["week_lod_s.p50"] = timing("s", ("week_lod",))
        out["week_single_s.p50"] = timing("s", ("week_traditional", "week_linear_bdc"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-search", "day-ahead", "week-ahead"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "degradesched" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return EXIT_NO_SOURCE
    sys.path[:0] = [str(SRC), str(HERE)]

    setup = setup_samples()

    import layers
    import tracing
    import workloads

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    tracer = counts = None
    try:
        if args.trace:
            tracer, counts = tracing.Tracer(), {}
            layers.install(tracer, counts)
        result = workloads.run(args.workload, args.seed, args.seconds, work, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment(args.seed)
    e2e = end_to_end(args.workload, result, setup, peak_rss_mb)
    errors = [e for op in result.ops for e in op.errors] + result.errors
    per_layer = {}
    if tracer is not None:
        errors += [f"span check: {e}" for e in tracing.nesting_errors(tracer.spans)]
        per_layer = layers.layer_metrics(tracer.spans, counts, result.units, tracer.overhead_s)

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{args.workload}: {result.units} units, {len(result.ops)} operations"
          + (" (traced; end-to-end figures include tracing)" if tracer else ""))
    for key, (value, unit, n) in e2e.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {key:<28} {shown:>14} {unit:<6} n={n}")
    for key, (value, n) in per_layer.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        unit, _, target = layers.PER_LAYER[key]
        print(f"  {key:<34} {shown:>14} {unit:<6} n={n:<6} -> {target}")
    for message in errors[:10]:
        print(f"FAILED: {message}")

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "units": result.units, "errors": errors[:50],
        "end_to_end": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": layers.PER_LAYER[k][0], "samples": n,
                          "moves": layers.PER_LAYER[k][2]} for k, (v, n) in per_layer.items()},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        metrics = {m["name"]: {"value": per_layer[m["name"]][0] or 0.0, "unit": m["unit"]}
                   for m in contract["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in contract["end_to_end"]}
    print(json.dumps({
        "correct": not errors,
        "attempted": len(result.ops),
        "failed": sum(1 for op in result.ops if op.errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
