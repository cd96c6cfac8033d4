"""24-interval microgrid look-ahead scheduling MILP.

Minimizes generation, no-load, startup and net power-exchange cost subject to
power balance, generator capability and ramping, exclusive grid trade with
tie-line limits, exclusive battery charge/discharge with power and energy
limits, an energy-neutral end state and a spinning-reserve requirement.
Optional extras: a cap on total battery throughput and a linear $/kWh
battery-usage cost term.

The model is solved to proven optimality by HiGHS through scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

FEASIBILITY_TOL = 1e-6


class InfeasibleCaseError(RuntimeError):
    """The scheduling problem has no feasible dispatch."""

    def __init__(self, report: list[str]):
        super().__init__("; ".join(report) if report else "model infeasible")
        self.report = report


@dataclass(frozen=True)
class Generator:
    """Controllable unit: power limits (kW), ramp (kW/h) and cost data."""

    p_min: float
    p_max: float
    ramp: float
    cost_energy: float  # $/kWh
    cost_no_load: float = 0.0  # $/h while committed
    cost_startup: float = 0.0  # $ per start
    initially_on: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.p_min <= self.p_max:
            raise ValueError(f"need 0 <= p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        if self.ramp < 0:
            raise ValueError(f"ramp must be >= 0: {self.ramp}")


@dataclass(frozen=True)
class Bess:
    """Battery storage: energy window (kWh), power limits (kW), efficiencies."""

    e_min: float
    e_max: float
    e_initial: float
    p_min: float
    p_max: float
    eta_charge: float
    eta_discharge: float

    def __post_init__(self) -> None:
        if not 0 <= self.e_min <= self.e_initial <= self.e_max:
            raise ValueError(
                f"need e_min <= e_initial <= e_max, got "
                f"[{self.e_min}, {self.e_initial}, {self.e_max}]"
            )
        if not 0 <= self.p_min <= self.p_max:
            raise ValueError(f"need 0 <= p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        for eta in (self.eta_charge, self.eta_discharge):
            if not 0 < eta <= 1:
                raise ValueError(f"efficiency out of (0, 1]: {eta}")


@dataclass
class MicrogridCase:
    """One scheduling case: units, tie-line, reserve and hourly series."""

    generators: list[Generator]
    bess: list[Bess]
    p_grid_max: float
    reserve_fraction: float
    dt_hours: float
    load: np.ndarray
    wind: np.ndarray
    solar: np.ndarray
    price_buy: np.ndarray
    price_sell: np.ndarray
    temps: np.ndarray

    def __post_init__(self) -> None:
        series = {}
        for name in ("load", "wind", "solar", "price_buy", "price_sell", "temps"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a non-empty 1-D series")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, arr)
            series[name] = arr
        lengths = {name: arr.size for name, arr in series.items()}
        if len(set(lengths.values())) != 1:
            raise ValueError(f"series lengths differ: {lengths}")
        if (self.price_sell > self.price_buy + 1e-12).any():
            t = int(np.argmax(self.price_sell - self.price_buy))
            raise ValueError(
                f"sell price exceeds buy price at interval {t}; simultaneous-trade "
                f"arbitrage would be unbounded in the relaxation"
            )
        if (self.load < 0).any() or (self.wind < 0).any() or (self.solar < 0).any():
            raise ValueError("load, wind and solar must be non-negative")
        if self.p_grid_max < 0:
            raise ValueError(f"p_grid_max must be >= 0: {self.p_grid_max}")
        if self.reserve_fraction < 0:
            raise ValueError(f"reserve_fraction must be >= 0: {self.reserve_fraction}")
        if self.dt_hours <= 0:
            raise ValueError(f"dt_hours must be positive: {self.dt_hours}")

    @property
    def horizon(self) -> int:
        return self.load.size


@dataclass(frozen=True)
class UsageCap:
    """Bound on total battery charge+discharge energy over the horizon."""

    cap_kwh: float

    def __post_init__(self) -> None:
        if self.cap_kwh < 0:
            raise ValueError(f"cap_kwh must be >= 0: {self.cap_kwh}")


@dataclass
class DispatchSchedule:
    """Solved dispatch: per-interval powers, statuses and battery energy.

    Shapes: generator arrays are (n_gen, T), battery arrays (n_bess, T),
    trade arrays (T,). energy[s, t] is the stored energy at the END of
    interval t; the initial energy lives in the case.
    """

    p_gen: np.ndarray
    u_gen: np.ndarray
    v_gen: np.ndarray
    p_buy: np.ndarray
    p_sell: np.ndarray
    u_buy: np.ndarray
    u_sell: np.ndarray
    p_char: np.ndarray
    p_disc: np.ndarray
    u_char: np.ndarray
    u_disc: np.ndarray
    energy: np.ndarray
    objective: float

    def soc_trajectory(self, case: MicrogridCase, s: int = 0) -> np.ndarray:
        """SOC points (T+1,) for battery s, including the initial state."""
        e_max = case.bess[s].e_max
        return np.concatenate(
            ([case.bess[s].e_initial / e_max], self.energy[s] / e_max)
        )

    def bess_throughput_kwh(self, case: MicrogridCase) -> float:
        """Total charge + discharge energy over the horizon."""
        return float((self.p_char.sum() + self.p_disc.sum()) * case.dt_hours)


@dataclass
class MilpProblem:
    """Assembled MILP arrays plus the variable index bookkeeping."""

    case: MicrogridCase
    cap: UsageCap | None
    linear_bdc_rate: float | None
    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_int: np.ndarray
    index: dict = field(default_factory=dict)

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_binaries(self) -> int:
        return int(self.is_int.sum())


def _precheck(case: MicrogridCase) -> None:
    """Cheap necessary feasibility conditions, reported before any solve."""
    report = []
    supply_max = (
        case.p_grid_max
        + sum(g.p_max for g in case.generators)
        + sum(b.p_max for b in case.bess)
    )
    for t in range(case.horizon):
        available = supply_max + case.wind[t] + case.solar[t]
        if case.load[t] > available + FEASIBILITY_TOL:
            report.append(
                f"power_balance: load {case.load[t]:.3f} kW at interval {t} "
                f"exceeds maximum supply {available:.3f} kW"
            )
    if report:
        raise InfeasibleCaseError(report)


def build_model(
    case: MicrogridCase,
    cap: UsageCap | None = None,
    linear_bdc_rate: float | None = None,
) -> MilpProblem:
    """Assemble objective, constraints and bounds for one case.

    Startup indicators are linked through v[g,t] >= u[g,t] - u[g,t-1] with
    the initial commitment taken from the generator data. Battery energy is
    kept inside [e_min, e_max] and returned to its initial value at the end
    of the horizon. With a usage cap, total charge+discharge energy is
    bounded; with a linear rate, that energy is also priced in the objective.
    """
    _precheck(case)
    T = case.horizon
    n_gen = len(case.generators)
    n_bess = len(case.bess)
    dt = case.dt_hours

    index: dict = {}
    counter = 0

    def add_block(name: str, count: int) -> np.ndarray:
        nonlocal counter
        idx = np.arange(counter, counter + count)
        index[name] = idx
        counter += count
        return idx

    # Continuous blocks, each shaped (units, T) flattened row-major.
    i_pgen = add_block("p_gen", n_gen * T).reshape(n_gen, T) if n_gen else np.empty((0, T), int)
    if n_gen == 0:
        index["p_gen"] = np.empty(0, int)
    i_pbuy = add_block("p_buy", T)
    i_psell = add_block("p_sell", T)
    i_pchar = add_block("p_char", n_bess * T).reshape(n_bess, T) if n_bess else np.empty((0, T), int)
    i_pdisc = add_block("p_disc", n_bess * T).reshape(n_bess, T) if n_bess else np.empty((0, T), int)
    i_energy = add_block("energy", n_bess * T).reshape(n_bess, T) if n_bess else np.empty((0, T), int)
    for name in ("p_char", "p_disc", "energy"):
        if n_bess == 0:
            index[name] = np.empty(0, int)

    # Binary blocks, ordered by time inside each block.
    i_ugen = add_block("u_gen", n_gen * T).reshape(n_gen, T) if n_gen else np.empty((0, T), int)
    i_vgen = add_block("v_gen", n_gen * T).reshape(n_gen, T) if n_gen else np.empty((0, T), int)
    i_ubuy = add_block("u_buy", T)
    i_usell = add_block("u_sell", T)
    i_uchar = add_block("u_char", n_bess * T).reshape(n_bess, T) if n_bess else np.empty((0, T), int)
    i_udisc = add_block("u_disc", n_bess * T).reshape(n_bess, T) if n_bess else np.empty((0, T), int)
    for name in ("u_gen", "v_gen", "u_char", "u_disc"):
        if (n_gen if name in ("u_gen", "v_gen") else n_bess) == 0:
            index[name] = np.empty(0, int)

    n = counter
    c = np.zeros(n)
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    is_int = np.zeros(n, dtype=bool)

    first_binary = i_ugen[0, 0] if n_gen else i_ubuy[0]
    is_int[first_binary:] = True
    ub[first_binary:] = 1.0

    # Objective: energy costs carry dt, startup is per event.
    for g, gen in enumerate(case.generators):
        c[i_pgen[g]] = gen.cost_energy * dt
        c[i_ugen[g]] = gen.cost_no_load * dt
        c[i_vgen[g]] = gen.cost_startup
    c[i_pbuy] = case.price_buy * dt
    c[i_psell] = -case.price_sell * dt
    if linear_bdc_rate is not None:
        for s in range(n_bess):
            c[i_pchar[s]] += linear_bdc_rate * dt
            c[i_pdisc[s]] += linear_bdc_rate * dt

    # Variable bounds.
    for g, gen in enumerate(case.generators):
        lb[i_pgen[g]] = gen.p_min
        ub[i_pgen[g]] = gen.p_max
    ub[i_pbuy] = case.p_grid_max
    ub[i_psell] = case.p_grid_max
    for s, bess in enumerate(case.bess):
        ub[i_pchar[s]] = bess.p_max
        ub[i_pdisc[s]] = bess.p_max
        lb[i_energy[s]] = bess.e_min
        ub[i_energy[s]] = bess.e_max

    rows_ub: list[np.ndarray] = []
    rhs_ub: list[float] = []
    rows_eq: list[np.ndarray] = []
    rhs_eq: list[float] = []

    def ub_row(pairs, rhs):
        row = np.zeros(n)
        for j, coef in pairs:
            row[j] += coef
        rows_ub.append(row)
        rhs_ub.append(rhs)

    def eq_row(pairs, rhs):
        row = np.zeros(n)
        for j, coef in pairs:
            row[j] += coef
        rows_eq.append(row)
        rhs_eq.append(rhs)

    for t in range(T):
        # Power balance: buy + gen + renewables + discharge = sell + load + charge.
        pairs = [(i_pbuy[t], 1.0), (i_psell[t], -1.0)]
        pairs += [(i_pgen[g, t], 1.0) for g in range(n_gen)]
        pairs += [(i_pdisc[s, t], 1.0) for s in range(n_bess)]
        pairs += [(i_pchar[s, t], -1.0) for s in range(n_bess)]
        eq_row(pairs, case.load[t] - case.wind[t] - case.solar[t])

        # Exclusive grid trade and tie-line limits.
        ub_row([(i_ubuy[t], 1.0), (i_usell[t], 1.0)], 1.0)
        ub_row([(i_pbuy[t], 1.0), (i_ubuy[t], -case.p_grid_max)], 0.0)
        ub_row([(i_psell[t], 1.0), (i_usell[t], -case.p_grid_max)], 0.0)

        # Reserve: tie-line headroom plus generator headroom covers a load share.
        pairs = [(i_pbuy[t], 1.0), (i_psell[t], -1.0)]
        pairs += [(i_pgen[g, t], 1.0) for g in range(n_gen)]
        rhs = (
            case.p_grid_max
            + sum(g.p_max for g in case.generators)
            - case.reserve_fraction * case.load[t]
        )
        ub_row(pairs, rhs)

        for s, bess in enumerate(case.bess):
            # Exclusive charge/discharge with commitment-linked power limits.
            ub_row([(i_uchar[s, t], 1.0), (i_udisc[s, t], 1.0)], 1.0)
            ub_row([(i_pchar[s, t], 1.0), (i_uchar[s, t], -bess.p_max)], 0.0)
            ub_row([(i_uchar[s, t], bess.p_min), (i_pchar[s, t], -1.0)], 0.0)
            ub_row([(i_pdisc[s, t], 1.0), (i_udisc[s, t], -bess.p_max)], 0.0)
            ub_row([(i_udisc[s, t], bess.p_min), (i_pdisc[s, t], -1.0)], 0.0)

            # Energy recursion: e_t - e_{t-1} + dt*(disc/eta_d - char*eta_c) = 0.
            pairs = [
                (i_energy[s, t], 1.0),
                (i_pdisc[s, t], dt / bess.eta_discharge),
                (i_pchar[s, t], -dt * bess.eta_charge),
            ]
            if t == 0:
                eq_row(pairs, bess.e_initial)
            else:
                eq_row(pairs + [(i_energy[s, t - 1], -1.0)], 0.0)

    for g, gen in enumerate(case.generators):
        # Ramping between consecutive intervals.
        for t in range(T - 1):
            limit = dt * gen.ramp
            ub_row([(i_pgen[g, t + 1], 1.0), (i_pgen[g, t], -1.0)], limit)
            ub_row([(i_pgen[g, t], 1.0), (i_pgen[g, t + 1], -1.0)], limit)
        # Startup linking v_t >= u_t - u_{t-1}.
        for t in range(T):
            pairs = [(i_ugen[g, t], 1.0), (i_vgen[g, t], -1.0)]
            if t == 0:
                ub_row(pairs, 1.0 if gen.initially_on else 0.0)
            else:
                ub_row(pairs + [(i_ugen[g, t - 1], -1.0)], 0.0)

    for s, bess in enumerate(case.bess):
        # End-of-horizon energy neutrality.
        eq_row([(i_energy[s, T - 1], 1.0)], bess.e_initial)

    if cap is not None:
        pairs = []
        for s in range(n_bess):
            pairs += [(i_pchar[s, t], dt) for t in range(T)]
            pairs += [(i_pdisc[s, t], dt) for t in range(T)]
        ub_row(pairs, cap.cap_kwh)

    return MilpProblem(
        case=case,
        cap=cap,
        linear_bdc_rate=linear_bdc_rate,
        c=c,
        a_ub=np.vstack(rows_ub) if rows_ub else np.empty((0, n)),
        b_ub=np.array(rhs_ub),
        a_eq=np.vstack(rows_eq) if rows_eq else np.empty((0, n)),
        b_eq=np.array(rhs_eq),
        lb=lb,
        ub=ub,
        is_int=is_int,
        index=index,
    )


def _extract_schedule(problem: MilpProblem, x: np.ndarray, objective: float) -> DispatchSchedule:
    case = problem.case
    T = case.horizon
    n_gen = len(case.generators)
    n_bess = len(case.bess)
    idx = problem.index

    def block(name: str, units: int) -> np.ndarray:
        if units == 0:
            return np.empty((0, T))
        return x[idx[name]].reshape(units, T)

    return DispatchSchedule(
        p_gen=block("p_gen", n_gen),
        u_gen=block("u_gen", n_gen).astype(int),
        v_gen=block("v_gen", n_gen).astype(int),
        p_buy=x[idx["p_buy"]],
        p_sell=x[idx["p_sell"]],
        u_buy=x[idx["u_buy"]].astype(int),
        u_sell=x[idx["u_sell"]].astype(int),
        p_char=block("p_char", n_bess),
        p_disc=block("p_disc", n_bess),
        u_char=block("u_char", n_bess).astype(int),
        u_disc=block("u_disc", n_bess).astype(int),
        energy=block("energy", n_bess),
        objective=float(objective),
    )


def _snap(problem: MilpProblem, x: np.ndarray) -> np.ndarray:
    """Round binaries to 0/1 and lift continuous values onto their lower bounds."""
    x = np.asarray(x, dtype=float).copy()
    cont = ~problem.is_int
    x[problem.is_int] = np.round(x[problem.is_int])
    x[cont] = np.maximum(x[cont], problem.lb[cont])
    return x


def _row_violation(problem: MilpProblem, x: np.ndarray) -> float:
    """Largest amount by which x violates a constraint row (0 if none)."""
    worst = 0.0
    if problem.a_ub.size:
        worst = max(worst, float(np.max(problem.a_ub @ x - problem.b_ub)))
    if problem.a_eq.size:
        worst = max(worst, float(np.max(np.abs(problem.a_eq @ x - problem.b_eq))))
    return worst


def _milp(problem: MilpProblem, lb: np.ndarray, ub: np.ndarray, integrality: np.ndarray):
    """HiGHS on the problem's rows and objective with the given bounds."""
    constraints = []
    if problem.a_ub.size:
        constraints.append(optimize.LinearConstraint(problem.a_ub, -np.inf, problem.b_ub))
    if problem.a_eq.size:
        constraints.append(optimize.LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq))
    return optimize.milp(
        c=problem.c,
        constraints=constraints,
        integrality=integrality,
        bounds=optimize.Bounds(lb, ub),
        options={"mip_rel_gap": 0.0, "presolve": True},
    )


def solve(problem: MilpProblem) -> DispatchSchedule:
    """Solve a built model to proven optimality with HiGHS (zero relative gap).

    HiGHS returns binaries within its integrality tolerance of 0/1, and the
    continuous values they bound may lean on that slack: a binary of 2.6e-7
    can carry 3.9e-5 kW on a power limit row. The binaries are therefore
    rounded, and if the rounded point violates any row by more than
    FEASIBILITY_TOL, the LP with every binary fixed at its rounded value is
    solved and the schedule is taken from that LP.
    """
    res = _milp(problem, problem.lb, problem.ub, problem.is_int.astype(int))
    if res.status == 2:
        raise InfeasibleCaseError(_diagnose(problem))
    if res.status == 3:
        raise RuntimeError("model unbounded; case invariants violated")
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"solver failed: {res.message}")
    x, objective = _snap(problem, res.x), res.fun
    if _row_violation(problem, x) > FEASIBILITY_TOL:
        lb, ub = problem.lb.copy(), problem.ub.copy()
        lb[problem.is_int] = ub[problem.is_int] = x[problem.is_int]
        res = _milp(problem, lb, ub, np.zeros(problem.n_variables, dtype=int))
        if res.status != 0 or res.x is None:
            raise RuntimeError(f"LP with rounded binaries failed: {res.message}")
        x, objective = _snap(problem, res.x), res.fun
    return _extract_schedule(problem, x, objective)


def _diagnose(problem: MilpProblem) -> list[str]:
    """Name the constraint family that makes the model infeasible, if obvious.

    Runs only after an infeasible solve. Per interval it checks the renewable
    surplus against export plus charging, and the power-balance and reserve
    rows jointly: subtracting one from the other cancels grid trade and
    generation, so the net load minus the most the batteries can discharge
    must fit under the tie-line plus generator capacity less the reserve.
    """
    case = problem.case
    report = []
    discharge_max = sum(b.p_max for b in case.bess)
    supply_max = case.p_grid_max + sum(g.p_max for g in case.generators)
    if problem.cap is not None:
        for s, bess in enumerate(case.bess):
            if bess.p_min > 0 and problem.cap.cap_kwh < bess.p_min * case.dt_hours:
                report.append(
                    f"usage_cap: cap {problem.cap.cap_kwh} kWh conflicts with "
                    f"battery {s} minimum active power {bess.p_min} kW"
                )
    for t in range(case.horizon):
        surplus = case.wind[t] + case.solar[t] - case.load[t]
        absorb = (
            case.p_grid_max
            + sum(b.p_max for b in case.bess)
            - sum(g.p_min for g in case.generators)
        )
        if surplus > absorb + FEASIBILITY_TOL:
            report.append(
                f"power_balance: renewable surplus {surplus:.3f} kW at interval {t} "
                f"cannot be absorbed (max export+charge {absorb:.3f} kW)"
            )
        net_load = -surplus
        reserve_need = case.reserve_fraction * case.load[t]
        if net_load - discharge_max > supply_max - reserve_need + FEASIBILITY_TOL:
            report.append(
                f"reserve: net load {net_load:.3f} kW at interval {t} exceeds "
                f"{supply_max - reserve_need:.3f} kW of tie-line and generator "
                f"supply left after the {reserve_need:.3f} kW reserve plus "
                f"{discharge_max:.3f} kW of battery discharge"
            )
    if not report:
        report.append("infeasible; no single constraint family identified")
    return report


def operation_cost(sched: DispatchSchedule, case: MicrogridCase) -> dict[str, float]:
    """Term-by-term objective breakdown in dollars.

    total = generation + no_load + startup + purchase - sale_revenue; any
    linear battery-usage term priced into a solve is intentionally excluded.
    """
    dt = case.dt_hours
    generation = no_load = startup = 0.0
    for g, gen in enumerate(case.generators):
        generation += float(sched.p_gen[g].sum()) * dt * gen.cost_energy
        no_load += float(sched.u_gen[g].sum()) * dt * gen.cost_no_load
        startup += float(sched.v_gen[g].sum()) * gen.cost_startup
    purchase = float((sched.p_buy * case.price_buy).sum()) * dt
    sale = float((sched.p_sell * case.price_sell).sum()) * dt
    return {
        "generation": generation,
        "no_load": no_load,
        "startup": startup,
        "purchase": purchase,
        "sale_revenue": sale,
        "total": generation + no_load + startup + purchase - sale,
    }


@dataclass(frozen=True)
class Violation:
    """One violated constraint found while re-checking a schedule."""

    family: str
    where: str
    amount: float

    def __str__(self) -> str:
        return f"{self.family} at {self.where}: violated by {self.amount:.3e}"


def validate_schedule(
    case: MicrogridCase,
    sched: DispatchSchedule,
    cap: UsageCap | None = None,
    tol: float = FEASIBILITY_TOL,
) -> list[Violation]:
    """Re-evaluate every constraint arithmetically, independent of any solver.

    Returns an empty list iff the schedule is feasible within tol (absolute,
    kW/kWh units). Constraint families are named after the printed model:
    power balance, generator limits and ramps, trade exclusivity and tie-line
    limits, battery exclusivity and power limits, the energy recursion,
    capacity window and terminal state, the reserve requirement, and the
    optional usage cap.
    """
    v: list[Violation] = []
    T = case.horizon
    dt = case.dt_hours

    def check(family: str, where: str, amount: float) -> None:
        if amount > tol:
            v.append(Violation(family=family, where=where, amount=float(amount)))

    for name in ("u_gen", "v_gen", "u_buy", "u_sell", "u_char", "u_disc"):
        arr = getattr(sched, name)
        if arr.size and not np.isin(arr, (0, 1)).all():
            v.append(Violation("binary_integrality", name, float(np.abs(arr).max())))

    for t in range(T):
        supply = (
            sched.p_buy[t]
            + sched.p_gen[:, t].sum()
            + case.wind[t]
            + case.solar[t]
            + sched.p_disc[:, t].sum()
        )
        demand = sched.p_sell[t] + case.load[t] + sched.p_char[:, t].sum()
        check("eq5_power_balance", f"t={t}", abs(supply - demand))

        check("eq9_trade_exclusivity", f"t={t}", sched.u_buy[t] + sched.u_sell[t] - 1)
        check("eq10_buy_limit", f"t={t}", sched.p_buy[t] - sched.u_buy[t] * case.p_grid_max)
        check("eq10_buy_limit", f"t={t}", -sched.p_buy[t])
        check("eq11_sell_limit", f"t={t}", sched.p_sell[t] - sched.u_sell[t] * case.p_grid_max)
        check("eq11_sell_limit", f"t={t}", -sched.p_sell[t])

        headroom = (
            case.p_grid_max
            - sched.p_buy[t]
            + sched.p_sell[t]
            + sum(
                gen.p_max - sched.p_gen[g, t] for g, gen in enumerate(case.generators)
            )
        )
        check(
            "eq18_reserve",
            f"t={t}",
            case.reserve_fraction * case.load[t] - headroom,
        )

    for g, gen in enumerate(case.generators):
        for t in range(T):
            check("eq6_gen_limits", f"g={g},t={t}", gen.p_min - sched.p_gen[g, t])
            check("eq6_gen_limits", f"g={g},t={t}", sched.p_gen[g, t] - gen.p_max)
            prev_u = int(gen.initially_on) if t == 0 else sched.u_gen[g, t - 1]
            check(
                "startup_linking",
                f"g={g},t={t}",
                sched.u_gen[g, t] - prev_u - sched.v_gen[g, t],
            )
        for t in range(T - 1):
            step = sched.p_gen[g, t + 1] - sched.p_gen[g, t]
            check("eq7_ramp_up", f"g={g},t={t}", step - dt * gen.ramp)
            check("eq8_ramp_down", f"g={g},t={t}", -step - dt * gen.ramp)

    for s, bess in enumerate(case.bess):
        e_prev = bess.e_initial
        for t in range(T):
            check(
                "eq12_bess_exclusivity",
                f"s={s},t={t}",
                sched.u_char[s, t] + sched.u_disc[s, t] - 1,
            )
            check(
                "eq13_charge_limits",
                f"s={s},t={t}",
                sched.p_char[s, t] - sched.u_char[s, t] * bess.p_max,
            )
            check(
                "eq13_charge_limits",
                f"s={s},t={t}",
                sched.u_char[s, t] * bess.p_min - sched.p_char[s, t],
            )
            check(
                "eq14_discharge_limits",
                f"s={s},t={t}",
                sched.p_disc[s, t] - sched.u_disc[s, t] * bess.p_max,
            )
            check(
                "eq14_discharge_limits",
                f"s={s},t={t}",
                sched.u_disc[s, t] * bess.p_min - sched.p_disc[s, t],
            )
            recursion = (
                sched.energy[s, t]
                - e_prev
                + dt
                * (
                    sched.p_disc[s, t] / bess.eta_discharge
                    - sched.p_char[s, t] * bess.eta_charge
                )
            )
            check("eq16_energy_recursion", f"s={s},t={t}", abs(recursion))
            check("energy_capacity", f"s={s},t={t}", bess.e_min - sched.energy[s, t])
            check("energy_capacity", f"s={s},t={t}", sched.energy[s, t] - bess.e_max)
            e_prev = sched.energy[s, t]
        check(
            "eq17_terminal_energy",
            f"s={s}",
            abs(sched.energy[s, T - 1] - bess.e_initial),
        )

    if cap is not None:
        total = (sched.p_char.sum() + sched.p_disc.sum()) * dt
        check("eq29_usage_cap", "horizon", total - cap.cap_kwh)

    return v
