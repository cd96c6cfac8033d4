"""Microgrid look-ahead scheduling MILP over any number of intervals.

Minimizes generation, no-load, startup and net power-exchange cost subject to
power balance, generator capability and ramping, tie-line limits, exclusive
battery charge/discharge with power and energy limits, an energy-neutral end
state and a spinning-reserve requirement. A linear $/kWh battery-usage cost
term is optional when the model is built. The last inequality row always
bounds total battery throughput; `solve` sets a usage cap there, so a loop
that tightens the cap builds the model once.

Trade exclusivity and integral startups follow from the prices and costs, so
the model leaves both out and `solve` reads them off the solution: a sell
price never exceeds the buy price, and a start never costs less than 0.

The constraint matrix is held sparse, as each family's (row, column,
coefficient) terms; it is never densified on the way to the solver. The model
is solved to proven optimality by HiGHS, called through the binding that
scipy bundles (scipy.optimize._highspy._core) with the options and status
classes of scipy's milp function, and handed to it as arrays that HiGHS
reads in place; an infeasible model is diagnosed by HiGHS's own feasibility
relaxation of it. A `CapSession` keeps one LP loaded in HiGHS while a loop
moves the usage cap, re-solving it from its basis instead of loading it
again. Opened on a solved schedule, it holds the LP of that schedule's
commitment, whose schedule at a cap, where it has one, is feasible for the
MILP there; while a basis holds, the session moves that schedule along the
basis's line in the cap without a run. Opened with no schedule, it holds
the model's LP relaxation, whose optimum bounds the MILP's: a start whose
objective is within HiGHS's own mip_abs_gap of that bound, the gap at which
HiGHS closes a MILP, is proven optimal without a MILP run
(`CapSession.proves`). The commitment LP's own reduced costs often prove
the same without the relaxation (`CapSession.proves_itself`). Otherwise
`solve` takes the start as the MILP's first incumbent, and HiGHS searches
from there.

scipy loads on the first model build, not with this module: build_model
imports scipy.sparse, and the first solve imports the binding, which loads
scipy.optimize with it. Loading the two takes most of the package's import
time, which the commands that never solve (simulate-aging, train, report)
would otherwise pay at start-up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from numbers import Real
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse

FEASIBILITY_TOL = 1e-6


class InfeasibleCaseError(RuntimeError):
    """The scheduling problem has no feasible dispatch; `report` has one line,
    "<family>: [unit s, ]interval t short by x", per row at fault."""

    def __init__(self, report: list[str]):
        super().__init__("; ".join(report) if report else "model infeasible")
        self.report = report


def _require_finite(owner, *names: str) -> None:
    """Raise ValueError naming the first field of owner that is not a finite
    number; NaN would pass every range check, and a string or bool is no number."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number: {value!r}")


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
        _require_finite(
            self, "p_min", "p_max", "ramp", "cost_energy", "cost_no_load", "cost_startup"
        )
        if not isinstance(self.initially_on, bool):
            raise ValueError(f"initially_on must be true or false: {self.initially_on!r}")
        if not 0 <= self.p_min <= self.p_max:
            raise ValueError(f"need 0 <= p_min <= p_max, got [{self.p_min}, {self.p_max}]")
        if self.ramp < 0:
            raise ValueError(f"ramp must be >= 0: {self.ramp}")
        for name in ("cost_no_load", "cost_startup"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0: {getattr(self, name)}")


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
        _require_finite(
            self, "e_min", "e_max", "e_initial", "p_min", "p_max", "eta_charge", "eta_discharge"
        )
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
        lengths = {}
        for name in ("load", "wind", "solar", "price_buy", "price_sell", "temps"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"{name} must be a non-empty 1-D series")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite values")
            setattr(self, name, arr)
            lengths[name] = arr.size
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
        _require_finite(self, "p_grid_max", "reserve_fraction", "dt_hours")
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
        if not self.cap_kwh >= 0:  # NaN too; +inf is no cap
            raise ValueError(f"cap_kwh must be a number >= 0: {self.cap_kwh}")


@dataclass
class DispatchSchedule:
    """Solved dispatch: per-interval powers, statuses and battery energy.

    Shapes: generator arrays are (n_gen, T), battery arrays (n_bess, T),
    trade arrays (T,). energy[s, t] is the stored energy at the END of
    interval t; the initial energy lives in the case. `solve` reads u_buy,
    u_sell and v_gen off the solution; the model does not hold them.
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
        return np.concatenate(([case.bess[s].e_initial / e_max], self.energy[s] / e_max))

    def bess_throughput_kwh(self, case: MicrogridCase) -> float:
        """Total charge + discharge energy over the horizon."""
        return float((self.p_char.sum() + self.p_disc.sum()) * case.dt_hours)


@dataclass
class MilpProblem:
    """Assembled MILP arrays plus the variable index bookkeeping.

    `a` is the sparse constraint matrix: its first b_ub.size rows are the
    inequalities a_ub @ x <= b_ub, the remaining rows the equalities
    a_eq @ x == b_eq. It holds no explicit zeros and sorted indices. The last
    inequality row is the usage cap on total battery charge+discharge energy;
    b_ub holds a default for it that never binds, and `solve` sets a cap
    there on a copy. `index` maps each DispatchSchedule field but u_buy and
    u_sell to its columns, shaped as that field; v_gen is continuous in
    [0, 1], the other statuses binary. `families` maps each constraint
    family to its rows, shaped ([units,] intervals) with the last interval at
    the horizon's end, or () for the usage cap; they cover every row once.
    """

    case: MicrogridCase
    c: np.ndarray
    a: sparse.csc_array
    b_ub: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_int: np.ndarray
    index: dict
    families: dict

    @property
    def a_ub(self) -> np.ndarray:
        """Dense copy of the inequality rows, for reference solvers and inspection."""
        return self.a[: self.b_ub.size].toarray()

    @property
    def a_eq(self) -> np.ndarray:
        """Dense copy of the equality rows, for reference solvers and inspection."""
        return self.a[self.b_ub.size :].toarray()

    @property
    def n_variables(self) -> int:
        return self.c.size

    @property
    def n_binaries(self) -> int:
        return int(self.is_int.sum())


# DispatchSchedule fields that hold binary decisions, and those of them that
# are integer columns of the model.
_BINARY_FIELDS = ("u_gen", "v_gen", "u_buy", "u_sell", "u_char", "u_disc")
_INTEGER_FIELDS = ("u_gen", "u_char", "u_disc")


def _blocks(
    shapes: dict[str, tuple[int, ...]], start: int = 0
) -> tuple[dict[str, np.ndarray], int]:
    """Consecutive index blocks of the given shapes from `start`, and the end."""
    blocks = {}
    for name, shape in shapes.items():
        size = math.prod(shape)
        blocks[name] = np.arange(start, start + size).reshape(shape)
        start += size
    return blocks, start


def _place(triplets: list, rows: np.ndarray, *terms) -> None:
    """Append coef * x[cols] on `rows` to `triplets` for every (cols, coef) term.

    rows, cols and coef broadcast together. Entries that share a (row, col)
    pair are summed when the matrix is assembled.
    """
    for cols, coef in terms:
        triplets.append(tuple(arr.ravel() for arr in np.broadcast_arrays(rows, cols, coef)))


def _per_unit(units: list, attr: str) -> np.ndarray:
    """One attribute of every generator or battery, as a (units, 1) column."""
    return np.array([getattr(u, attr) for u in units], dtype=float).reshape(-1, 1)


def build_model(case: MicrogridCase, linear_bdc_rate: float | None = None) -> MilpProblem:
    """Assemble objective, constraints and bounds for one case.

    Each constraint family is one block of rows over all units and
    intervals, collected as (row, column, coefficient) terms and assembled
    once into the CSC matrix `a`: inequality rows, then equality rows.
    Startup indicators are linked through v[g,t] >= u[g,t] - u[g,t-1] with
    the initial commitment taken from the generator data; v is continuous.
    The tie-line limit is the bound on p_buy and p_sell. Battery energy is
    kept inside [e_min, e_max] and returned to its initial value at the end
    of the horizon. The last inequality row bounds total charge+discharge
    energy by 2*T*dt*sum(p_max), which no schedule exceeds; `solve` sets a
    usage cap there, so one model serves every cap. With a linear rate, that
    energy is also priced in the objective.
    """
    from scipy import sparse

    if linear_bdc_rate is not None and not math.isfinite(linear_bdc_rate):
        raise ValueError(f"linear_bdc_rate must be a finite number: {linear_bdc_rate}")
    T, dt = case.horizon, case.dt_hours
    gens, bess = case.generators, case.bess
    G, S = len(gens), len(bess)

    # Blocks shaped as their schedule fields.
    col, n = _blocks({
        "p_gen": (G, T), "p_buy": (T,), "p_sell": (T,),
        "p_char": (S, T), "p_disc": (S, T), "energy": (S, T),
        "u_gen": (G, T), "v_gen": (G, T), "u_char": (S, T), "u_disc": (S, T),
    })
    p_gen, u_gen = col["p_gen"], col["u_gen"]
    p_char, p_disc, energy = col["p_char"], col["p_disc"], col["energy"]
    u_char, u_disc = col["u_char"], col["u_disc"]

    c = np.zeros(n)
    lb = np.zeros(n)
    ub = np.full(n, np.inf)
    is_int = np.zeros(n, dtype=bool)
    for name in _INTEGER_FIELDS:
        is_int[col[name]] = True
    ub[is_int] = ub[col["v_gen"]] = 1.0

    # Objective: energy costs carry dt, startup is per event.
    c[p_gen] = _per_unit(gens, "cost_energy") * dt
    c[u_gen] = _per_unit(gens, "cost_no_load") * dt
    c[col["v_gen"]] = _per_unit(gens, "cost_startup")
    c[col["p_buy"]] = case.price_buy * dt
    c[col["p_sell"]] = -case.price_sell * dt
    if linear_bdc_rate is not None:
        c[p_char] = c[p_disc] = linear_bdc_rate * dt

    # Variable bounds.
    lb[p_gen] = _per_unit(gens, "p_min")
    ub[p_gen] = _per_unit(gens, "p_max")
    ub[col["p_buy"]] = ub[col["p_sell"]] = case.p_grid_max
    p_min, p_max = _per_unit(bess, "p_min"), _per_unit(bess, "p_max")
    ub[p_char] = ub[p_disc] = p_max
    lb[energy] = _per_unit(bess, "e_min")
    ub[energy] = _per_unit(bess, "e_max")

    row, n_ub = _blocks({
        "reserve": (T,), "bess_excl": (S, T), "char_max": (S, T), "char_min": (S, T),
        "disc_max": (S, T), "disc_min": (S, T),
        "ramp_up": (G, T - 1), "ramp_down": (G, T - 1), "startup": (G, T),
        "usage_cap": (),
    })
    eq_row, n_rows = _blocks(
        {"power_balance": (T,), "recursion": (S, T), "terminal": (S, 1)}, start=n_ub
    )
    terms: list = []
    b = np.zeros(n_rows)
    e_initial = _per_unit(bess, "e_initial")

    # Power balance: buy + gen + renewables + discharge = sell + load + charge.
    rows = eq_row["power_balance"]
    _place(terms, rows, (col["p_buy"], 1.0), (col["p_sell"], -1.0), (p_gen, 1.0),
           (p_disc, 1.0), (p_char, -1.0))
    b[rows] = case.load - case.wind - case.solar

    # Reserve: tie-line headroom plus generator headroom covers a load share.
    rows = row["reserve"]
    _place(terms, rows, (col["p_buy"], 1.0), (col["p_sell"], -1.0), (p_gen, 1.0))
    b[rows] = (
        case.p_grid_max + sum(g.p_max for g in gens) - case.reserve_fraction * case.load
    )

    # Exclusive charge/discharge with commitment-linked power limits.
    _place(terms, row["bess_excl"], (u_char, 1.0), (u_disc, 1.0))
    b[row["bess_excl"]] = 1.0
    _place(terms, row["char_max"], (p_char, 1.0), (u_char, -p_max))
    _place(terms, row["char_min"], (u_char, p_min), (p_char, -1.0))
    _place(terms, row["disc_max"], (p_disc, 1.0), (u_disc, -p_max))
    _place(terms, row["disc_min"], (u_disc, p_min), (p_disc, -1.0))

    # Energy recursion: e_t - e_{t-1} + dt*(disc/eta_d - char*eta_c) = 0,
    # with e_{-1} the initial energy; at the end, back to the initial energy.
    rows = eq_row["recursion"]
    _place(terms, rows, (energy, 1.0), (p_disc, dt / _per_unit(bess, "eta_discharge")),
           (p_char, -dt * _per_unit(bess, "eta_charge")))
    _place(terms, rows[:, 1:], (energy[:, :-1], -1.0))
    b[rows[:, :1]] = e_initial
    _place(terms, eq_row["terminal"], (energy[:, -1:], 1.0))
    b[eq_row["terminal"]] = e_initial

    # Ramping between consecutive intervals.
    _place(terms, row["ramp_up"], (p_gen[:, 1:], 1.0), (p_gen[:, :-1], -1.0))
    _place(terms, row["ramp_down"], (p_gen[:, :-1], 1.0), (p_gen[:, 1:], -1.0))
    b[row["ramp_up"]] = b[row["ramp_down"]] = dt * _per_unit(gens, "ramp")

    # Startup linking v_t >= u_t - u_{t-1}, from the initial commitment.
    rows = row["startup"]
    _place(terms, rows, (u_gen, 1.0), (col["v_gen"], -1.0))
    _place(terms, rows[:, 1:], (u_gen[:, :-1], -1.0))
    b[rows[:, :1]] = _per_unit(gens, "initially_on")

    # Usage cap: total charge+discharge energy.
    _place(terms, row["usage_cap"], (p_char.ravel(), dt), (p_disc.ravel(), dt))
    b[row["usage_cap"]] = 2 * T * dt * sum(unit.p_max for unit in bess)

    r, k, v = (np.concatenate(parts) for parts in zip(*terms))
    # 32-bit indices, as scipy derives for a matrix of this size from dense rows.
    a = sparse.csc_array((v, (r.astype(np.int32), k.astype(np.int32))), shape=(n_rows, n))
    a.sum_duplicates()
    a.eliminate_zeros()
    a.sort_indices()
    return MilpProblem(
        case=case, c=c, a=a, b_ub=b[:n_ub].copy(), b_eq=b[n_ub:].copy(), lb=lb, ub=ub,
        is_int=is_int, index=col, families={**row, **eq_row},
    )


def _extract_schedule(problem: MilpProblem, x: np.ndarray, objective: float) -> DispatchSchedule:
    """The schedule at a snapped x, with the fields the model leaves out read
    off it: the exchange is netted to one direction per interval, which u_buy
    and u_sell mark, and v_gen marks each rise of u_gen from the initial
    commitment. Netting keeps power balance and reserve and, as no sell price
    exceeds its buy price, never raises cost."""
    f = {name: x[cols] for name, cols in problem.index.items()}
    buy, sell = f["p_buy"], f["p_sell"]
    f["p_buy"], f["p_sell"] = np.maximum(buy - sell, 0.0), np.maximum(sell - buy, 0.0)
    f["u_buy"], f["u_sell"] = (f["p_buy"] > 0).astype(int), (f["p_sell"] > 0).astype(int)
    for name in _INTEGER_FIELDS:
        f[name] = f[name].astype(int)
    u_prev = np.hstack([_per_unit(problem.case.generators, "initially_on"), f["u_gen"][:, :-1]])
    f["v_gen"] = np.maximum(f["u_gen"] - u_prev, 0).astype(int)
    return DispatchSchedule(**f, objective=float(objective))


def _snap(problem: MilpProblem, x: np.ndarray) -> np.ndarray:
    """Lift values onto their lower bounds and round binaries to 0/1."""
    x = np.maximum(x, problem.lb)
    x[problem.is_int] = np.round(x[problem.is_int])
    return x


def _row_excess(problem: MilpProblem, x: np.ndarray) -> np.ndarray:
    """How far x exceeds each constraint row: a x - b_ub on an inequality row,
    negative where the row holds with room to spare, and |a x - b_eq| on an
    equality row."""
    excess = problem.a @ x - np.concatenate((problem.b_ub, problem.b_eq))
    n_ub = problem.b_ub.size
    excess[n_ub:] = np.abs(excess[n_ub:])
    return excess


class _Solved(NamedTuple):
    """One HiGHS run: `outcome` classes HiGHS's model status as scipy's milp
    does ("optimal", "infeasible", "unbounded" or "failed"), `status` is
    HiGHS's name for it, and x and objective are set only when the outcome
    is "optimal"."""

    outcome: str
    status: str
    x: np.ndarray | None = None
    objective: float | None = None


@cache
def _highs() -> tuple:
    """scipy's bundled HiGHS binding, the options every solve passes (HiGHS
    copies them into each solver) and the outcome of each model status, made
    on the first solve."""
    from scipy.optimize._highspy import _core as highs

    options = highs.HighsOptions()
    options.log_to_console = False
    options.mip_rel_gap = 0.0
    options.presolve = "on"
    options.mip_heuristic_run_feasibility_jump = False
    status = highs.HighsModelStatus
    outcomes = {
        status.kOptimal: "optimal",
        status.kInfeasible: "infeasible",
        status.kModelError: "infeasible",
        status.kUnbounded: "unbounded",
    }
    return highs, options, outcomes


def _load(problem: MilpProblem, lb: np.ndarray, ub: np.ndarray, is_int: np.ndarray):
    """A HiGHS instance holding the problem's rows and objective with the
    given bounds and integer columns, or None if HiGHS refuses the model
    (kError, as for an infinite coefficient).

    The model goes to HiGHS as the arrays scipy's milp builds its HighsLp
    from, through the binding's array overload of passModel: the CSC
    buffers of `a` as they are, inequality rows bounded below by -inf, and
    one column type per column (0 continuous, 1 integer). HiGHS reads the
    buffers in place, where filling a HighsLp copies each one element by
    element. The options are the ones milp sets for this package's call: no
    console log, a zero relative gap, presolve on, and the feasibility-jump
    heuristic off (it takes about 14 ms of a 21 ms call on a 12-binary MILP,
    and branch and bound proves the optimum anyway). ZI rounding
    (mip_heuristic_run_zi_round) stays at HiGHS's default, off; `_milp`
    turns it on for a solve without a start, and `_diagnose` for its
    relaxation.

    scipy.optimize is imported on the first load, so that importing the
    package stays cheap for the commands that never solve.
    """
    highs, options, _ = _highs()
    a = problem.a
    n_rows, n = a.shape
    solver = highs._Highs()
    solver.passOptions(options)
    status = solver.passModel(
        n, n_rows, a.nnz, int(highs.MatrixFormat.kColwise), int(highs.ObjSense.kMinimize), 0.0,
        problem.c, lb, ub,
        np.concatenate((np.full(problem.b_ub.size, -np.inf), problem.b_eq)),
        np.concatenate((problem.b_ub, problem.b_eq)),
        a.indptr, a.indices, a.data, is_int.astype(np.int32),
    )
    return solver if status != highs.HighsStatus.kError else None


def _run(solver) -> _Solved:
    """Run a loaded HiGHS instance, from its kept basis if it has one, and
    read the result.

    Statuses are classed as milp classes them: kOptimal is "optimal";
    kInfeasible, and kModelError for a model HiGHS refuses, are
    "infeasible"; kUnbounded is "unbounded"; any other status,
    kUnboundedOrInfeasible included, is "failed".
    """
    highs, _, outcomes = _highs()
    ran = solver.run() != highs.HighsStatus.kError
    status = solver.getModelStatus()
    solved = _Solved(outcomes.get(status, "failed"), solver.modelStatusToString(status))
    if solved.outcome != "optimal" or not ran:
        return solved
    return solved._replace(
        x=np.array(solver.getSolution().col_value),
        objective=solver.getInfo().objective_function_value,
    )


def _columns(problem: MilpProblem, sched: DispatchSchedule) -> np.ndarray:
    """The model's column vector of a schedule, read through `problem.index`."""
    x = np.empty(problem.n_variables)
    for name, cols in problem.index.items():
        x[cols] = getattr(sched, name)
    return x


def _milp(problem: MilpProblem, start: DispatchSchedule | None = None) -> _Solved:
    """HiGHS on the problem as built, its bounds and integer columns
    included: `_load`, then `_run`.

    Without a start, HiGHS also runs its ZI rounding heuristic
    (mip_heuristic_run_zi_round, off by default; C. Wallace, "ZI round, a
    MIP rounding heuristic", J. Heuristics 16, 2010). On these models the
    root LP bound is already the optimum, and ZI rounding finds the
    incumbent at the root that HiGHS would otherwise search sub-MIPs for.
    The solution is then scipy's milp's under the same options, bit for
    bit, without milp's per-call argument checks and result assembly.

    A start is handed to HiGHS (`setSolution`) as the schedule's columns
    before the run, and ZI rounding stays off: it would only slow the run,
    and could return another vertex a rounding error cheaper than the
    start. HiGHS takes a start as its first incumbent if it is feasible and
    drops it if not. The optimum is proven at a zero gap either way, but
    among equal-cost optima the options and the start decide which one
    HiGHS returns. A model HiGHS refuses is "infeasible" with HiGHS's name
    for kModelError.
    """
    solver = _load(problem, problem.lb, problem.ub, problem.is_int)
    if solver is None:
        return _Solved("infeasible", "Model error")
    if start is None:
        solver.setOptionValue("mip_heuristic_run_zi_round", True)
    else:
        solution = _highs()[0].HighsSolution()
        solution.col_value = _columns(problem, start)
        solver.setSolution(solution)
    return _run(solver)


class CapSession:
    """The LP of one schedule's commitment, or the MILP's LP relaxation,
    kept loaded in HiGHS while the usage cap moves.

    Opening it with a schedule fixes the schedule's binaries (u_gen, u_char,
    u_disc) in the problem's bounds: the commitment-fixed LP of O'Neill et
    al., "Efficient market-clearing prices in markets with nonconvexities",
    EJOR 164(1), 2005. Opened with no schedule, it holds the relaxation: the
    same rows, bounds and objective, with the binaries continuous in [0, 1].
    Either way it loads without a run. Each run moves the cap row's bound
    and starts from the basis the last run left; `runs` counts them.

    `at(cap)` is the commitment LP's schedule under that cap, taken along
    the last basis's line where the cap lies on it. It is optimal for this
    commitment only, but feasible for the MILP, and so a MILP's start.
    `bound(cap)` is the relaxation's optimum there, and `proves` compares a
    start with it. By weak duality a feasible start whose objective meets
    the relaxation's optimum is the MILP's optimum (Wolsey, *Integer
    Programming*, 1998, section 2.2); the MILP run would only prove it,
    through MIP presolve and a cold root LP. Read the other way round, the
    commitment LP's duals are a dual point of the relaxation, and
    `proves_itself` reads off them whether that point alone meets the
    schedule's objective.
    """

    def __init__(self, problem: MilpProblem, sched: DispatchSchedule | None = None):
        lb, ub = problem.lb.copy(), problem.ub.copy()
        if sched is not None:
            for name in _INTEGER_FIELDS:
                lb[problem.index[name]] = ub[problem.index[name]] = getattr(sched, name)
        self._problem = replace(problem, b_ub=problem.b_ub.copy())
        self._lb, self._ub = lb, ub
        self._solver = _load(self._problem, lb, ub, np.zeros(problem.n_variables, dtype=bool))
        self.runs = 0  # HiGHS runs so far
        # (cap, optimum, cap-row dual) of the last optimal run, for `_kept_bound`.
        self._dual = (0.0, -math.inf, 0.0)
        # (cap, x) of the last optimal run, and (cap0, x0, dx) while that run
        # kept the basis of the optimal run before it.
        self._last: tuple[float, np.ndarray] | None = None
        self._line: tuple[float, np.ndarray, np.ndarray] | None = None
        self._certified: bool | None = None  # `proves_itself` of the last run's basis

    def _run_at(self, cap_kwh: float) -> _Solved:
        """Move the cap row's bound to cap_kwh and re-run HiGHS from the kept basis."""
        self._problem.b_ub[-1] = cap_kwh
        self._solver.changeRowBounds(self._problem.b_ub.size - 1, -np.inf, cap_kwh)
        self.runs += 1
        return _run(self._solver)

    def _on_line(self, cap_kwh: float) -> np.ndarray | None:
        """The basis line's point at cap_kwh, x0 + (cap_kwh - cap0)·dx, if it
        lies within the column bounds, FEASIBILITY_TOL outside them at most;
        None outside the line's range."""
        cap0, x0, dx = self._line
        x = x0 + (cap_kwh - cap0) * dx
        if (x < self._lb - FEASIBILITY_TOL).any() or (x > self._ub + FEASIBILITY_TOL).any():
            return None
        return x

    def at(self, cap_kwh: float) -> DispatchSchedule | None:
        """The LP's schedule under a usage cap of cap_kwh, read as `solve`
        reads a MILP's; None if HiGHS refused the LP, the LP is not solved
        to optimality or its snapped point violates a row by more than
        FEASIBILITY_TOL.

        A HiGHS run that takes no simplex iteration kept the basis of the
        optimal run before it, so the LP's solution is affine in the cap
        while that basis stays primal feasible (right-hand-side ranging;
        Bertsimas and Tsitsiklis, *Introduction to Linear Optimization*,
        1997, ch. 5), and optimal, as moving a row's bound leaves its duals
        feasible. The session keeps that line through the two runs' points,
        and a later call takes the line's point at its cap, with objective
        c·x, if it lies within the column bounds, as a run's point does, and
        once snapped violates no row, as checked for a run's point.
        Otherwise it drops the line and runs HiGHS."""
        if self._solver is None:
            return None
        problem = self._problem
        if self._line is not None:
            problem.b_ub[-1] = cap_kwh
            x = self._on_line(cap_kwh)
            if x is not None:
                snapped = _snap(problem, x)
                if not (_row_excess(problem, snapped) > FEASIBILITY_TOL).any():
                    return _extract_schedule(problem, snapped, float(problem.c @ x))
            self._line = None
        res = self._run_at(cap_kwh)
        if res.x is None:
            self._last = self._certified = None
            return None
        last, self._last = self._last, (cap_kwh, res.x)
        if (last is not None and last[0] != cap_kwh
                and self._solver.getInfo().simplex_iteration_count == 0):
            self._line = (cap_kwh, res.x, (res.x - last[1]) / (cap_kwh - last[0]))
        else:
            self._certified = None
        x = _snap(problem, res.x)
        if (_row_excess(problem, x) > FEASIBILITY_TOL).any():
            return None
        return _extract_schedule(problem, x, res.objective)

    def proves_itself(self) -> bool:
        """Whether the last `at`'s schedule, read off this commitment's LP, is
        optimal for the model's LP relaxation too, within HiGHS's
        mip_abs_gap, and so the MILP's optimum at that cap.

        The last HiGHS run's row duals are feasible for the relaxation's dual
        too, but each fixed binary's reduced cost r_j then prices it within
        the relaxation's bounds [lb_j, ub_j]: by weak duality the relaxation
        costs at least the LP's optimum less Σ r_j·x̄_j - min(r_j·lb_j,
        r_j·ub_j), which is 0 when every reduced cost holds its binary at
        its value x̄_j (≥ 0 at 0, ≤ 0 at 1). The duals do not change along
        `at`'s line, so neither does the answer; the session reads them
        once per basis, and only when asked. Only a session opened on a
        schedule proves itself."""
        if self._certified is None:
            solution = self._solver.getSolution()
            fixed = self._problem.is_int
            r = np.array(solution.col_dual)[fixed]
            lb, ub = self._problem.lb[fixed], self._problem.ub[fixed]
            penalty = float((r * self._lb[fixed] - np.minimum(r * lb, r * ub)).sum())
            self._certified = solution.dual_valid and penalty <= _highs()[1].mip_abs_gap
        return self._certified

    def bound(self, cap_kwh: float) -> float:
        """The LP's optimal objective under a usage cap of cap_kwh, or -inf if
        HiGHS refused the LP or did not solve it to optimality. For the
        relaxation, no schedule feasible under that cap costs less."""
        if self._solver is None:
            return -math.inf
        res = self._run_at(cap_kwh)
        if res.objective is None:
            return -math.inf
        dual = self._solver.getSolution().row_dual[self._problem.b_ub.size - 1]
        self._dual = (cap_kwh, res.objective, dual)
        return res.objective

    def _kept_bound(self, cap_kwh: float) -> float:
        """The last optimal run's bound moved to cap_kwh along its cap-row
        dual, without a run; -inf before one. Moving one row's bound leaves
        the run's duals feasible, so by weak duality this bounds the LP at
        any cap, if less tightly than `bound` there."""
        cap, optimum, dual = self._dual
        return optimum + dual * (cap_kwh - cap)

    def proves(self, start: DispatchSchedule, cap_kwh: float) -> bool:
        """Whether the relaxation proves start, feasible under a usage cap of
        cap_kwh, optimal for the MILP there: its objective, c·x of its own
        columns as HiGHS evaluates a MIP start, lies within HiGHS's
        mip_abs_gap of the kept bound or, failing that, of
        `bound(cap_kwh)`, the gap at which HiGHS itself closes the MILP.
        Only a session opened with no schedule proves."""
        floor = float(self._problem.c @ _columns(self._problem, start)) - _highs()[1].mip_abs_gap
        return self._kept_bound(cap_kwh) >= floor or self.bound(cap_kwh) >= floor


def solve(
    problem: MilpProblem, cap: UsageCap | None = None, start: DispatchSchedule | None = None
) -> DispatchSchedule:
    """Solve a built model to proven optimality with HiGHS (zero relative gap).

    With a cap, total battery charge+discharge energy is bounded by
    cap.cap_kwh: the cap row's right-hand side is set on a copy of b_ub, so
    the problem is never changed and can be solved again under another cap.

    A start is a schedule that HiGHS takes as its first incumbent if it is
    feasible under this cap, and drops if not (see `_milp`). It changes no
    optimal cost, but it may change which of several equal-cost optima is
    returned. `_extract_schedule`'s netted exchange and v_gen keep a
    schedule read off a feasible point feasible.

    HiGHS returns binaries within its integrality tolerance of 0/1, and the
    continuous values they bound may lean on that slack: a binary of 2.6e-7
    can carry 3.9e-5 kW on a power limit row. The binaries are therefore
    rounded, and if the rounded point violates any row by more than
    FEASIBILITY_TOL, the schedule is taken from the LP with every binary
    fixed at its rounded value, the rounded schedule's `CapSession`, at this
    cap. An infeasible model raises InfeasibleCaseError with the rows that
    HiGHS's feasibility relaxation relaxes (`_diagnose`).
    """
    if cap is not None:
        problem = replace(problem, b_ub=np.append(problem.b_ub[:-1], cap.cap_kwh))
    res = _milp(problem, start)
    if res.outcome == "infeasible":
        raise InfeasibleCaseError(_diagnose(problem))
    if res.outcome == "unbounded":
        raise RuntimeError("model unbounded; case invariants violated")
    if res.x is None:
        raise RuntimeError(f"solver failed: HiGHS model status {res.status}")
    x = _snap(problem, res.x)
    sched = _extract_schedule(problem, x, res.objective)
    if (_row_excess(problem, x) > FEASIBILITY_TOL).any():
        sched = CapSession(problem, sched).at(problem.b_ub[-1])
        if sched is None:
            raise RuntimeError("LP with rounded binaries failed")
    return sched


def _diagnose(problem: MilpProblem) -> list[str]:
    """One report line per row that HiGHS's feasibility relaxation of the
    problem relaxes.

    The relaxation (`feasibilityRelaxation`, the elastic program of Chinneck,
    *Feasibility and Infeasibility in Optimization*, 2008) gives every row a
    slack and minimizes the weighted slack sum under the problem's own
    bounds, kept hard, and integrality. A row's slack is its excess at the
    relaxation's point. Rows are named from `families`. A relaxation with no
    point is one line naming HiGHS's model status, or, where restoring the
    original model left that status unset, the status the call returned.
    """
    solver = _load(problem, problem.lb, problem.ub, problem.is_int)
    if solver is None:
        return ["elastic diagnosis failed: HiGHS model status Model error"]
    solver.setOptionValue("mip_heuristic_run_zi_round", True)
    n_ub, n_rows = problem.b_ub.size, problem.a.shape[0]
    # Equality slack costs double: at equal weights a shortfall that a limit row
    # (reserve, tie-line) could absorb kW for kW ties with, and lands on, power balance.
    weights = np.repeat([1.0, 2.0], [n_ub, n_rows - n_ub])
    returned = solver.feasibilityRelaxation(-1.0, -1.0, 1.0, None, None, weights)
    solution = solver.getSolution()
    if not solution.value_valid:
        status = solver.getModelStatus()
        if status == _highs()[0].HighsModelStatus.kNotset:
            return [f"elastic diagnosis failed: HiGHS feasibilityRelaxation returned "
                    f"{returned.name}"]
        return [f"elastic diagnosis failed: HiGHS model status "
                f"{solver.modelStatusToString(status)}"]
    slack = _row_excess(problem, np.array(solution.col_value))
    report = []
    for family, rows in problem.families.items():
        for pos in np.argwhere(slack[rows] > FEASIBILITY_TOL):
            where = "horizon"
            if pos.size:
                where = f"interval {pos[-1] + problem.case.horizon - rows.shape[-1]}"
            if pos.size == 2:
                where = f"unit {pos[0]}, {where}"
            report.append(f"{family}: {where} short by {slack[rows[tuple(pos)]]:.3f}")
    return report or ["infeasible; no constraint row needs slack"]


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
) -> list[Violation]:
    """Re-evaluate every constraint arithmetically, independent of any solver.

    Reads only the case, the schedule and the cap, never a built model.
    Returns an empty list iff the schedule is feasible within FEASIBILITY_TOL
    (absolute, kW/kWh units). Constraint families are named after the
    printed model: power balance, generator limits, ramps and startup
    linking, trade exclusivity and tie-line limits, battery exclusivity and
    power limits, the energy recursion, capacity window and terminal state,
    the reserve requirement, and the optional usage cap.

    Violations come in this order: one `binary_integrality` entry per binary
    field holding a value other than 0 or 1 (its amount is the largest
    distance to {0, 1}), then each family in the order above, one entry per
    residual above FEASIBILITY_TOL, located as t=, g=..,t=, s=..,t=, s= or horizon.
    """
    dt = case.dt_hours
    gens, bess = case.generators, case.bess
    p_gen, p_char, p_disc, energy = sched.p_gen, sched.p_char, sched.p_disc, sched.energy
    u_char, u_disc = sched.u_char, sched.u_disc
    g_min, g_max = _per_unit(gens, "p_min"), _per_unit(gens, "p_max")
    b_min, b_max = _per_unit(bess, "p_min"), _per_unit(bess, "p_max")
    e_min, e_max = _per_unit(bess, "e_min"), _per_unit(bess, "e_max")
    e_initial = _per_unit(bess, "e_initial")
    ramp = dt * _per_unit(gens, "ramp")
    step = np.diff(p_gen, axis=1)
    u_prev = np.hstack([_per_unit(gens, "initially_on"), sched.u_gen[:, :-1]])
    e_prev = np.hstack([e_initial, energy[:, :-1]])

    supply = sched.p_buy + p_gen.sum(0) + case.wind + case.solar + p_disc.sum(0)
    demand = sched.p_sell + case.load + p_char.sum(0)
    headroom = case.p_grid_max - sched.p_buy + sched.p_sell + (g_max - p_gen).sum(0)
    recursion = energy - e_prev + dt * (
        p_disc / _per_unit(bess, "eta_discharge") - p_char * _per_unit(bess, "eta_charge")
    )
    # family: (unit axis, residuals over ([unit,] interval)); > 0 is a violation.
    table = {
        "eq5_power_balance": ("", [abs(supply - demand)]),
        "eq6_gen_limits": ("g", [g_min - p_gen, p_gen - g_max]),
        "eq7_ramp_up": ("g", [step - ramp]),
        "eq8_ramp_down": ("g", [-step - ramp]),
        "startup_linking": ("g", [sched.u_gen - u_prev - sched.v_gen]),
        "eq9_trade_exclusivity": ("", [sched.u_buy + sched.u_sell - 1]),
        "eq10_buy_limit": ("", [sched.p_buy - sched.u_buy * case.p_grid_max, -sched.p_buy]),
        "eq11_sell_limit": ("", [sched.p_sell - sched.u_sell * case.p_grid_max, -sched.p_sell]),
        "eq12_bess_exclusivity": ("s", [u_char + u_disc - 1]),
        "eq13_charge_limits": ("s", [p_char - u_char * b_max, u_char * b_min - p_char]),
        "eq14_discharge_limits": ("s", [p_disc - u_disc * b_max, u_disc * b_min - p_disc]),
        "eq16_energy_recursion": ("s", [abs(recursion)]),
        "energy_capacity": ("s", [e_min - energy, energy - e_max]),
        "eq17_terminal_energy": ("s", [abs(energy[:, -1] - e_initial[:, 0])]),
        "eq18_reserve": ("", [case.reserve_fraction * case.load - headroom]),
    }
    if cap is not None:
        table["eq29_usage_cap"] = ("", [sched.bess_throughput_kwh(case) - cap.cap_kwh])

    violations = []
    for name in _BINARY_FIELDS:
        arr = getattr(sched, name)
        off = np.minimum(np.abs(arr), np.abs(arr - 1))
        if off.any():
            violations.append(Violation("binary_integrality", name, float(off.max())))
    for family, (unit, residuals) in table.items():
        axes = (unit, "t") if unit else ("t",)
        for amounts in map(np.asarray, residuals):
            for pos in np.argwhere(amounts > FEASIBILITY_TOL):
                where = ",".join(f"{axis}={i}" for axis, i in zip(axes, pos)) or "horizon"
                violations.append(Violation(family, where, float(amounts[tuple(pos)])))
    return violations
