"""Iterative scheduling loop that prices learned battery degradation.

Each pass solves the scheduling problem under its cap, reduces the scheduled
battery profile to half cycles, prices the predicted degradation against the
battery's net capital value, and tightens a cap on total battery throughput
for the next pass. The loop keeps the iteration with the lowest combined
operation + degradation cost. The two single-solve benchmarks are pass 0 of
the same loop: the traditional run on the model that ignores degradation, and
the linear-bdc run on one that prices throughput at a flat $/kWh rate.

Pass 0 solves the MILP. So does each pass whose cap falls below the cap
range of the last MILP's commitment, and a pass whose cap is at solver
tolerance scale. Every other pass re-solves the last MILP's commitment-fixed
LP under its own cap (`milp.CapSession`), and a chosen pass that came from
the LP is checked against the MILP at its cap. Each capped MILP above
solver tolerance scale starts from that LP's schedule at its cap, and the
check from the chosen pass's own schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .milp import (
    CapSession,
    DispatchSchedule,
    InfeasibleCaseError,
    MicrogridCase,
    MilpProblem,
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

# Caps at most this share of the model's never-binding default cap
# (2*T*dt*sum(p_max)) solve as MILPs. The share is HiGHS's MIP feasibility
# tolerance: at such a cap the MILP may leave a charge binary inside its
# integrality tolerance, and rounding it idles the battery, where the LP
# would keep throughput at the cap.
TINY_CAP_SHARE = 1e-6

# The MILP re-solve of a chosen LP pass must undercut its operation cost by
# more than this share of that cost, taken as at least $1, to void the LP walk.
GUARD_REL_TOL = 1e-6


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
    max_iterations: int = 200  # capped passes after pass 0; 0 runs pass 0 alone
    patience: int = 10

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha out of (0, 1): {self.alpha}")
        if self.max_iterations < 0 or self.patience < 1:
            raise ValueError("max_iterations must be >= 0 and patience >= 1")


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
    "infeasible", and empty for any other stop. A single-solve strategy's
    one pass ends as "single_solve". `milp_solves` counts the MILPs the run
    solved, the check of an LP-derived chosen pass included.
    """

    iterations: list[LodIteration]
    best_index: int
    termination_reason: str  # converged|cap_exhausted|max_iterations|infeasible|single_solve
    infeasible_report: list[str]
    milp_solves: int

    @property
    def best(self) -> LodIteration:
        return self.iterations[self.best_index]


def degradation_cost(degradation: float, econ: EconParams) -> float:
    """Dollar cost of a degradation fraction against net capital value."""
    if not 0 <= degradation < math.inf:  # NaN too
        raise ValueError(f"degradation must be a finite number >= 0: {degradation}")
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


def _passes(
    problem: MilpProblem,
    model: DegradationModel,
    econ: EconParams,
    cfg: LodConfig,
    soh: float,
    lp_passes: bool = True,
) -> LodTrace:
    """The loop of `run_lod` on a built model of `problem.case`, under `cfg`.

    With `lp_passes` false, every pass solves the MILP.
    """
    case = problem.case
    iterations: list[LodIteration] = []
    best_index = 0
    cap: UsageCap | None = None
    reason = "max_iterations"
    report: list[str] = []
    session: CapSession | None = None
    from_lp: set[int] = set()
    milp_solves = 0
    tiny_cap = TINY_CAP_SHARE * problem.b_ub[-1]

    for index in range(cfg.max_iterations + 1):
        lp_cap = lp_passes and cap is not None and cap.cap_kwh > tiny_cap
        sched = start = None
        if lp_cap:
            # The last MILP's commitment at this cap: the pass itself inside
            # the session's range, else the MILP's start. Pass 1 has no
            # session; one opened on pass 0's schedule only gives the start.
            lp_sched = (session or CapSession(problem, iterations[0].schedule, cap.cap_kwh)).at(
                cap.cap_kwh
            )
            if session is not None and session.cap_floor <= cap.cap_kwh:
                sched = lp_sched
            else:
                start = lp_sched
        if sched is None:
            session = None  # free its HiGHS instance before the MILP
            milp_solves += 1
            try:
                sched = solve(problem, cap, start=start)
            except InfeasibleCaseError as exc:
                if not iterations:
                    raise
                reason, report = "infeasible", exc.report
                break
            if lp_cap:
                session = CapSession(problem, sched, cap.cap_kwh)
        else:
            from_lp.add(index)
        deg = schedule_degradation(case, sched, model, soh)
        it = LodIteration(
            index=index,
            usage_cap_kwh=None if cap is None else cap.cap_kwh,
            schedule=sched,
            bess_throughput_kwh=sched.bess_throughput_kwh(case),
            operation_cost=operation_cost(sched, case)["total"],
            degradation=deg,
            degradation_cost=degradation_cost(deg, econ),
        )
        iterations.append(it)

        if it.total_cost < iterations[best_index].total_cost - IMPROVEMENT_TOL:
            best_index = index
        if index - best_index >= cfg.patience:
            reason = "converged"
            break
        if it.bess_throughput_kwh <= IDLE_THROUGHPUT_KWH:
            reason = "cap_exhausted"
            break
        cap = UsageCap((1.0 - cfg.alpha) * it.bess_throughput_kwh)
    session = None  # before the guard's MILP

    if best_index in from_lp:
        # The LP is optimal for its commitment only; a cheaper one at the
        # chosen cap voids the LP passes, and the walk reruns on MILPs.
        best = iterations[best_index]
        milp_solves += 1
        check = solve(problem, UsageCap(best.usage_cap_kwh), start=best.schedule)
        cost = operation_cost(check, case)["total"]
        if cost < best.operation_cost - GUARD_REL_TOL * max(1.0, abs(best.operation_cost)):
            trace = _passes(problem, model, econ, cfg, soh, lp_passes=False)
            trace.milp_solves += milp_solves
            return trace

    return LodTrace(
        iterations=iterations,
        best_index=best_index,
        termination_reason=reason,
        infeasible_report=report,
        milp_solves=milp_solves,
    )


def run_traditional(
    case: MicrogridCase,
    model: DegradationModel,
    econ: EconParams,
    soh: float = 1.0,
) -> LodIteration:
    """Pass 0 of the loop: one uncapped solve, degradation costed after the fact."""
    problem = build_model(case)
    return _passes(problem, model, econ, LodConfig(max_iterations=0), soh).iterations[0]


def run_linear_bdc(
    case: MicrogridCase,
    model: DegradationModel,
    econ: EconParams,
    soh: float = 1.0,
) -> LodIteration:
    """Pass 0 of the loop on a model with the flat $/kWh usage term in its objective.

    The reported operation cost excludes the usage term and the reported
    degradation cost is re-derived from the learned quantifier, so the
    result is comparable with the other strategies.
    """
    problem = build_model(case, linear_bdc_rate=econ.linear_bdc_rate)
    return _passes(problem, model, econ, LodConfig(max_iterations=0), soh).iterations[0]


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
    idle, or at the iteration bound; the best iteration is the answer.

    Iteration 0 is a MILP. So is each pass whose cap lies below the ranging
    interval of the open commitment-fixed LP, or is at most TINY_CAP_SHARE
    of the model's default cap. A capped MILP above that share opens the LP
    of its commitment, and the passes after it whose caps stay inside that
    LP's range take its solution at their own caps. Each capped MILP above
    that share starts from the LP of the last MILP's commitment at its cap
    (pass 1 from pass 0's), so HiGHS has an incumbent before its root node;
    the start changes no cost, but on a tie it may change which schedule,
    and so which degradation, a pass reports. If the best iteration came
    from the LP and the MILP at its cap, started from that iteration's
    schedule, costs less to operate (beyond GUARD_REL_TOL), the loop reruns
    with a MILP at every pass and no starts.
    `milp_solves` on the trace counts them all. An infeasible first pass
    raises InfeasibleCaseError with the solver's diagnosis; an infeasible
    later pass ends the loop as "infeasible" and its diagnosis is kept on
    the trace.
    """
    return _passes(build_model(case), model, econ, cfg or LodConfig(), soh)
