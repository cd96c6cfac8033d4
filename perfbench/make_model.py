"""Regenerate the frozen quantifier the scheduling workloads load.

    python3 perfbench/make_model.py

Run from the root of a source checkout. It is the same as running, in an
empty directory,

    degradesched simulate-aging --out aging.csv --seed 0 --noise 0.02
    degradesched train --dataset aging.csv --out degradesched-model-v1.json \\
        --ubdf 6 --bdp 10 --epochs 20 --seed 0

and then copying the artifact and its manifest to perfbench/model/. Pair
6-10 at 20 epochs prices degradation above zero at iteration 0 on most
generated days; a 3-epoch model predicts zero everywhere, which would turn
every LOD run into a stall loop. The script checks that property before it
replaces the committed files.
"""

from __future__ import annotations

import os

# One BLAS thread, as in run.py, so the trained weights repeat bit for bit.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work" / "make-model"
ARTIFACT = "degradesched-model-v1.json"
COMMANDS = (
    ["simulate-aging", "--out", "aging.csv", "--seed", "0", "--noise", "0.02"],
    ["train", "--dataset", "aging.csv", "--out", ARTIFACT, "--ubdf", "6", "--bdp", "10",
     "--epochs", "20", "--seed", "0"],
)

# Days of seed 0 the new model must price; more than half must cost > 0.
CHECK_DAYS = 8


def priced_share(model, seed: int = 0, days: int = CHECK_DAYS) -> float:
    """Share of generated days whose traditional schedule costs degradation > 0."""
    import cases
    from degradesched import lod

    econ = lod.EconParams(capital_cost=120_000.0)
    priced = sum(
        lod.run_traditional(cases.day_case(seed, i), model, econ).degradation_cost > 0
        for i in range(days)
    )
    return priced / days


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from degradesched import cli, storage

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    os.chdir(WORK)  # the manifests record the inputs' relative names
    for args in COMMANDS:
        cli.main.main(args=args, prog_name="degradesched", standalone_mode=False)
    share = priced_share(storage.read_model_artifact(WORK / ARTIFACT))
    if share <= 0.5:
        print(f"error: the new model prices degradation on only {share:.0%} of days",
              file=sys.stderr)
        return 1
    for name in (ARTIFACT, ARTIFACT + ".manifest.json"):
        shutil.copyfile(WORK / name, HERE / "model" / name)
    shutil.rmtree(WORK)
    print(f"wrote {HERE / 'model' / ARTIFACT}; degradation priced on {share:.0%} of days")
    return 0


if __name__ == "__main__":
    sys.exit(main())
