"""Iterative scheduling loop that prices learned battery degradation.

Each pass solves the scheduling MILP, reduces the scheduled battery profile
to half cycles, prices the predicted degradation against the battery's net
capital value, and tightens a cap on total battery throughput for the next
pass. The loop keeps the iteration with the lowest combined operation +
degradation cost. Two single-solve benchmarks are included: an uncapped run
that ignores degradation entirely and a run that prices throughput at a flat
$/kWh rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .milp import (
    DispatchSchedule,
    InfeasibleCaseError,
    MicrogridCase,
    UsageCap,
    build_model,
    operation_cost,
    solve,
)
from .quantifier import DegradationModel, cbup, predict_degradation

# Throughput below this is treated as an idle battery (kWh).
IDLE_THROUGHPUT_KWH = 1e-9

# A total cost must drop by more than this to count as an improvement ($).
IMPROVEMENT_TOL = 1e-9


@dataclass(frozen=True)
class EconParams:
    """Battery economics for degradation costing."""

    capital_cost: float  # $ installed
    salvage_value: float = 0.0  # $ at end of life
    soh_eol: float = 0.8  # end-of-life health threshold
    linear_bdc_rate: float = 0.05  # $/kWh for the flat-rate benchmark

    def __post_init__(self) -> None:
        if not math.inf > self.capital_cost > self.salvage_value >= 0:
            raise ValueError(
                f"need a finite capital_cost > salvage_value >= 0, got "
                f"{self.capital_cost} and {self.salvage_value}"
            )
        if not 0 < self.soh_eol < 1:
            raise ValueError(f"soh_eol out of (0, 1): {self.soh_eol}")
        if not 0 <= self.linear_bdc_rate < math.inf:
            raise ValueError(f"linear_bdc_rate must be finite and >= 0: {self.linear_bdc_rate}")


@dataclass(frozen=True)
class LodConfig:
    """Loop controls: cap shrink rate, iteration bound and stall patience."""

    alpha: float = 0.03
    max_iterations: int = 200
    patience: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha out of (0, 1): {self.alpha}")
        if self.max_iterations < 1 or self.patience < 1:
            raise ValueError("max_iterations and patience must be >= 1")


@dataclass
class LodIteration:
    """One solved pass: schedule, throughput and the cost split."""

    index: int
    usage_cap_kwh: float | None
    schedule: DispatchSchedule
    bess_throughput_kwh: float
    operation_cost: float
    degradation: float
    degradation_cost: float

    @property
    def total_cost(self) -> float:
        return self.operation_cost + self.degradation_cost


@dataclass
class LodTrace:
    """Ordered iterations plus which one won and why the loop stopped.

    `infeasible_report` is the diagnosis of the pass that ended the loop as
    "infeasible", and empty for any other stop.
    """

    iterations: list[LodIteration]
    best_index: int
    termination_reason: str  # converged | cap_exhausted | max_iterations | infeasible
    infeasible_report: list[str]

    @property
    def best(self) -> LodIteration:
        return self.iterations[self.best_index]


def degradation_cost(degradation: float, econ: EconParams) -> float:
    """Dollar cost of a degradation fraction against net capital value."""
    if degradation < 0:
        raise ValueError(f"degradation must be >= 0: {degradation}")
    return (
        (econ.capital_cost - econ.salvage_value) / (1.0 - econ.soh_eol) * degradation
    )


def schedule_degradation(
    case: MicrogridCase,
    sched: DispatchSchedule,
    model: DegradationModel,
    soh: float,
) -> float:
    """Predicted degradation of a dispatch: each battery's cbup rows, priced at soh."""
    total = 0.0
    for s in range(len(case.bess)):
        cycles = cbup(sched.soc_trajectory(case, s), case.temps, case.dt_hours)
        total += predict_degradation(model, cycles, soh)
    return total


def _evaluate(
    case: MicrogridCase,
    sched: DispatchSchedule,
    model: DegradationModel,
    econ: EconParams,
    soh: float,
    index: int,
    cap: UsageCap | None,
) -> LodIteration:
    deg = schedule_degradation(case, sched, model, soh)
    return LodIteration(
        index=index,
        usage_cap_kwh=None if cap is None else cap.cap_kwh,
        schedule=sched,
        bess_throughput_kwh=sched.bess_throughput_kwh(case),
        operation_cost=operation_cost(sched, case)["total"],
        degradation=deg,
        degradation_cost=degradation_cost(deg, econ),
    )


def run_traditional(
    case: MicrogridCase,
    model: DegradationModel,
    econ: EconParams,
    soh: float = 1.0,
) -> LodIteration:
    """Single uncapped solve; degradation is costed after the fact only."""
    sched = solve(build_model(case))
    return _evaluate(case, sched, model, econ, soh, index=0, cap=None)


def run_linear_bdc(
    case: MicrogridCase,
    model: DegradationModel,
    econ: EconParams,
    soh: float = 1.0,
) -> LodIteration:
    """Single solve with the flat $/kWh usage term in the objective.

    The reported operation cost excludes the usage term and the reported
    degradation cost is re-derived from the learned quantifier, so the
    result is comparable with the other strategies.
    """
    sched = solve(build_model(case, linear_bdc_rate=econ.linear_bdc_rate))
    return _evaluate(case, sched, model, econ, soh, index=0, cap=None)


def run_lod(
    case: MicrogridCase,
    model: DegradationModel,
    econ: EconParams,
    cfg: LodConfig | None = None,
    soh: float = 1.0,
) -> LodTrace:
    """Iterate solve -> cycle extraction -> degradation costing -> cap tightening.

    Iteration 0 solves without battery restrictions. Every following
    iteration caps total battery throughput at (1 - alpha) times the previous
    iteration's throughput. The model is built once; each pass solves it
    under that pass's cap. The loop stops once `patience` consecutive
    iterations fail to improve the best combined cost, when the battery goes
    idle, or at the iteration bound; the best iteration is the answer. An
    infeasible first pass raises InfeasibleCaseError with the solver's
    diagnosis; an infeasible later pass ends the loop as "infeasible" and
    its diagnosis is kept on the trace.
    """
    cfg = cfg or LodConfig()
    problem = build_model(case)
    iterations: list[LodIteration] = []
    best_index = 0
    best_total = np.inf
    stall = 0
    cap: UsageCap | None = None
    reason = "max_iterations"
    report: list[str] = []

    for index in range(cfg.max_iterations + 1):
        try:
            sched = solve(problem, cap)
        except InfeasibleCaseError as exc:
            if not iterations:
                raise
            reason, report = "infeasible", exc.report
            break
        it = _evaluate(case, sched, model, econ, soh, index, cap)
        iterations.append(it)

        if it.total_cost < best_total - IMPROVEMENT_TOL:
            best_total = it.total_cost
            best_index = index
            stall = 0
        else:
            stall += 1

        if stall >= cfg.patience:
            reason = "converged"
            break
        if it.bess_throughput_kwh <= IDLE_THROUGHPUT_KWH:
            reason = "cap_exhausted"
            break
        cap = UsageCap((1.0 - cfg.alpha) * it.bess_throughput_kwh)

    return LodTrace(
        iterations=iterations,
        best_index=best_index,
        termination_reason=reason,
        infeasible_report=report,
    )
