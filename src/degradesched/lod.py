"""Iterative scheduling loop that prices learned battery degradation.

Each pass solves the scheduling problem under its cap, reduces the scheduled
battery profile to half cycles, prices the predicted degradation against the
battery's net capital value, and tightens a cap on total battery throughput
for the next pass. The loop keeps the iteration with the lowest combined
operation + degradation cost. The two single-solve benchmarks are pass 0 of
the same loop: the traditional run on the model that ignores degradation, and
the linear-bdc run on one that prices throughput at a flat $/kWh rate.

Pass 0 solves the MILP, and so does a pass whose cap is at solver
tolerance scale. Every other pass first takes the LP of the last MILP's
commitment under its own cap (`milp.CapSession.at`). That LP starts from a
basis crossed over at the MILP's own schedule, and walks the caps along its
basis without a HiGHS run while the basis holds. If that LP's
reduced costs prove it optimal for the model's LP relaxation too
(`CapSession.proves_itself`), the LP's schedule is the MILP's optimum and the
pass takes it. From the first pass whose LP does not prove itself, one LP
relaxation of the model, kept warm for the rest of the run, bounds the MILP's
objective at each cap instead: if the LP's objective is within HiGHS's
mip_abs_gap of the bound (`CapSession.proves`), the pass takes the LP's
schedule. Otherwise the MILP runs from that schedule as its start, and the
next pass opens a session on the MILP's commitment. Every pass is thus the
MILP's optimum at its cap, within HiGHS's mip_abs_gap.
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
    one pass ends as "single_solve". `milp_solves` counts the passes that
    solved a MILP, and `bound_proofs` those that took a commitment LP's
    schedule proven optimal, within HiGHS's mip_abs_gap, by the LP itself or
    by the LP relaxation. `lp_solves` counts the HiGHS runs of those LPs,
    commitment and relaxation; the crossover that starts a commitment LP at
    its MILP's schedule is not a run.
    """

    iterations: list[LodIteration]
    best_index: int
    termination_reason: str  # converged|cap_exhausted|max_iterations|infeasible|single_solve
    infeasible_report: list[str]
    milp_solves: int
    bound_proofs: int
    lp_solves: int

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
) -> LodTrace:
    """The loop of `run_lod` on a built model of `problem.case`, under `cfg`."""
    case = problem.case
    iterations: list[LodIteration] = []
    best_index = 0
    cap: UsageCap | None = None
    reason = "max_iterations"
    report: list[str] = []
    session: CapSession | None = None
    relaxation: CapSession | None = None
    milp_solves = bound_proofs = lp_solves = 0
    tiny_cap = TINY_CAP_SHARE * problem.b_ub[-1]

    for index in range(cfg.max_iterations + 1):
        sched = start = None
        if cap is not None and cap.cap_kwh > tiny_cap:
            # The LP of the last MILP's commitment at this cap: the pass if it
            # proves itself optimal, or the relaxation proves it, else the
            # MILP's start. The relaxation opens at the first LP that does not
            # prove itself.
            if session is None:
                session = CapSession(problem, iterations[-1].schedule)
            start = session.at(cap.cap_kwh)
            if start is not None:
                if relaxation is None and not session.proves_itself():
                    relaxation = CapSession(problem)
                if relaxation is None or relaxation.proves(start, cap.cap_kwh):
                    sched, start = start, None
                    bound_proofs += 1
        if sched is None:
            if session is not None:  # freed before the MILP; the next pass opens its commitment's
                lp_solves += session.runs
                session = None
            milp_solves += 1
            try:
                sched = solve(problem, cap, start=start)
            except InfeasibleCaseError as exc:
                if not iterations:
                    raise
                reason, report = "infeasible", exc.report
                break
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

    return LodTrace(
        iterations=iterations,
        best_index=best_index,
        termination_reason=reason,
        infeasible_report=report,
        milp_solves=milp_solves,
        bound_proofs=bound_proofs,
        lp_solves=lp_solves + sum(s.runs for s in (session, relaxation) if s is not None),
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

    Iteration 0 is a MILP. So is each pass whose cap is at most
    TINY_CAP_SHARE of the model's default cap. Every other pass first takes
    the LP of the last MILP's commitment at its cap (at pass 1, pass 0's),
    from the LP's basis line where the cap lies on it, else from a warm
    HiGHS run (`milp.CapSession.at`); a session's first run starts from a
    basis crossed over at its MILP's schedule. The LP's schedule is the MILP's
    optimum, and the pass takes it, if the LP's own reduced costs prove it
    optimal for the model's LP relaxation (`CapSession.proves_itself`), or,
    from the first pass where they do not, if the relaxation at that cap
    bounds the objective to within HiGHS's mip_abs_gap of the LP
    schedule's (read from `milp._highs()`'s options). Otherwise the MILP
    runs from it as a start, so HiGHS has an incumbent before its root
    node. The relaxation's bound comes from the cap-row dual of its last
    warm solve where that suffices, else from a warm re-solve at the cap.
    The next pass after a MILP opens the LP of that MILP's commitment; the
    LP session closes before each MILP, and one with no solution at the
    cap leaves the MILP without a start. Every pass is the MILP's optimum at
    its cap. The start changes no cost, but on a tie it may change which
    schedule, and so which degradation, a pass reports. Iteration 0 has no
    start, and on a tie its schedule is the vertex HiGHS returns with ZI
    rounding on (`milp._milp`). `milp_solves` on the trace counts the MILPs
    and `bound_proofs` the proven LP schedules; the two sum to the passes,
    plus the MILP of an "infeasible" stop. `lp_solves` counts the LPs'
    HiGHS runs. An infeasible first pass raises InfeasibleCaseError with
    the solver's diagnosis; an infeasible later pass ends the loop as
    "infeasible" and its diagnosis is kept on the trace.
    """
    return _passes(build_model(case), model, econ, cfg or LodConfig(), soh)
