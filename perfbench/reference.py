"""Fixed computations that measure how fast the host runs during a run.

On a shared host the speed of a vCPU moves by 20 to 40 percent within
minutes as other tenants come and go, which swamps the differences the
benchmark is meant to show. A run therefore times a fixed computation
between its operations and reports each operation's latency also as a
multiple of that computation's median time in the same run. The
computation uses no package code, so no change to the package moves it, and
it resembles the work that dominates the workload it normalises: HiGHS
solves of a small fixed MILP for the scheduling workloads; for training,
parsing a CSV of floats and the forward and backward products of a
5-20-10-1 network on 64-row batches.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
from scipy import optimize

# Sample before an operation once this many seconds have passed since the
# last sample.
INTERVAL_S = 1.0


class Reference:
    """Samples one reference computation's duration over a run."""

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(20230306)
        weights = rng.uniform(1.0, 10.0, (2, 12))
        self._milp = dict(
            c=-rng.uniform(1.0, 10.0, 12),
            constraints=optimize.LinearConstraint(weights, -np.inf, weights.sum(axis=1) / 3),
            integrality=np.ones(12),
            bounds=optimize.Bounds(0, 1),
        )
        self._csv = "\n".join(",".join(repr(float(v)) for v in row)
                              for row in rng.random((3000, 9)))
        self._batch = rng.random((64, 5))
        self._layers = [rng.random(shape) for shape in ((5, 20), (20, 10), (10, 1))]
        self._work = {"highs": self._highs, "training": self._training}[kind]
        self.samples: list[float] = []
        self._last = -np.inf

    def _highs(self) -> None:
        for _ in range(3):
            if not optimize.milp(**self._milp).success:
                raise RuntimeError("reference MILP failed")

    def _training(self) -> None:
        # Training operations last seconds and ride out short bursts of
        # contention, so this sample is long too.
        for _ in range(3):
            rows = [[float(v) for v in row] for row in csv.reader(io.StringIO(self._csv))]
            np.array(rows)
        w1, w2, w3 = self._layers
        for _ in range(2400):
            h1 = np.maximum(0.0, self._batch @ w1)
            h2 = np.maximum(0.0, h1 @ w2)
            delta = (h2 @ w3 - 1.0) / len(h2)
            delta2 = (delta @ w3.T) * (h2 > 0.0)
            h2.T @ delta, h1.T @ delta2, (delta2 @ w2.T) * (h1 > 0.0)

    def maybe_sample(self) -> None:
        """Time the computation once if the last sample is `INTERVAL_S` old."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return
        start = time.perf_counter()
        self._work()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)
