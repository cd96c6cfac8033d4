"""Run every workload untraced and traced, and print one combined report.

    python3 perfbench/report.py --seed 1 --seconds 30

Each run is a fresh interpreter (perfbench/run.py), so peak memory belongs
to one workload. The report lists, per workload, every end-to-end metric
with its unit and sample count, then every per-layer metric from the traced
run with the end-to-end metric it should move, then the tracing overhead:
the traced run's operation latencies against the untraced run's, on the
same seed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench-work" / "results"


def _shown(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)

    failed = False
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in contract["workloads"]):
        records = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if done.returncode != 0:
                print(f"{workload} (trace {trace}) exited {done.returncode}:\n{done.stderr}")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed |= not result["correct"]
            path = RESULTS / f"{workload}-seed{args.seed}-trace{trace}.json"
            records[trace] = json.loads(path.read_text())

        plain, traced = records[0], records[1]
        env = plain["environment"]
        print(f"== {workload}: {plain['units']} units untraced, {traced['units']} traced; "
              + ", ".join(f"{k}={v}" for k, v in env.items()))
        print("  end to end (untraced):")
        for name, m in plain["end_to_end"].items():
            print(f"    {name:<24} {_shown(m['value']):>12} {m['unit']:<5} n={m['samples']}")
        print("  per layer (traced):")
        for name, m in traced["per_layer"].items():
            print(f"    {name:<32} {_shown(m['value']):>12} {m['unit']:<6} "
                  f"n={m['samples']:<6} -> {m['moves']}")
        wrappers = traced["per_layer"]["trace.overhead_ms"]["value"]
        print(f"  tracing overhead: {wrappers:.4g} ms in span bookkeeping over the traced run;"
              " traced minus untraced, same seed (one run each, so host speed changes"
              " between the two runs show here too):")
        for name in ("long_op_ref.p50", "short_op_ref.p50"):
            off, on = plain["end_to_end"][name]["value"], traced["end_to_end"][name]["value"]
            if off and on:
                print(f"    {name:<24} {on - off:+.4g} ms ({(on - off) / off:+.1%} of {off:.6g})")
        for message in plain["errors"] + traced["errors"]:
            print(f"  FAILED: {message}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
