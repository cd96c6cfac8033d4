"""Tests for the look-ahead scheduling MILP."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import optimize, sparse

from degradesched import milp
from degradesched.exampleday import load_example_day
from degradesched.milp import (
    Bess,
    Generator,
    InfeasibleCaseError,
    MicrogridCase,
    UsageCap,
    build_model,
    operation_cost,
    solve,
    validate_schedule,
)
from oracle_milp import brute_force_optimum, random_micro_case


def single_interval_case(load=100.0, buy=0.20, sell=0.05, p_grid=150.0, gen=True):
    return MicrogridCase(
        generators=[Generator(p_min=0, p_max=180, ramp=200, cost_energy=0.10)]
        if gen
        else [],
        bess=[],
        p_grid_max=p_grid,
        reserve_fraction=0.0,
        dt_hours=1.0,
        load=np.array([load]),
        wind=np.array([0.0]),
        solar=np.array([0.0]),
        price_buy=np.array([buy]),
        price_sell=np.array([sell]),
        temps=np.array([25.0]),
    )


def day_case(**overrides):
    """A 24-interval case shaped like the bundled testbed."""
    hours = np.arange(24)
    fields = dict(
        generators=[Generator(p_min=0, p_max=180, ramp=120, cost_energy=0.30)],
        bess=[
            Bess(
                e_min=30,
                e_max=300,
                e_initial=150,
                p_min=0,
                p_max=150,
                eta_charge=0.9,
                eta_discharge=0.9,
            )
        ],
        p_grid_max=500.0,
        reserve_fraction=0.10,
        dt_hours=1.0,
        load=600 + 300 * np.sin((hours - 6) * np.pi / 12).clip(0),
        wind=np.full(24, 150.0),
        solar=(500 * np.sin((hours - 6) * np.pi / 12).clip(0)),
        price_buy=0.05 + 0.25 * np.exp(-((hours - 18.0) ** 2) / 8),
        price_sell=0.8 * (0.05 + 0.25 * np.exp(-((hours - 18.0) ** 2) / 8)),
        temps=20 + 8 * np.sin((hours - 9) * np.pi / 12),
    )
    fields.update(overrides)
    return MicrogridCase(**fields)


def _edited(sched, edits):
    """The schedule with (field, index, "=" or "+=", value) edits applied to
    float copies of the fields they touch."""
    fields = {}
    for field, index, op, value in edits:
        arr = fields.setdefault(field, getattr(sched, field).astype(float))
        arr[index] = value if op == "=" else arr[index] + value
    return dataclasses.replace(sched, **fields)


class TestBuildModel:
    def test_binary_count_one_gen_one_bess(self):
        # u_gen, u_char and u_disc; v_gen is continuous and trade has no binaries.
        problem = build_model(day_case())
        assert problem.n_binaries == 24 * 3

    def test_zero_cap_forces_idle_battery(self):
        sched = solve(build_model(day_case()), UsageCap(0.0))
        assert np.allclose(sched.p_char, 0.0, atol=1e-9)
        assert np.allclose(sched.p_disc, 0.0, atol=1e-9)

    def test_zero_bdc_rate_matches_plain_model(self):
        case = day_case()
        plain = solve(build_model(case))
        zero_rate = solve(build_model(case, linear_bdc_rate=0.0))
        assert zero_rate.objective == pytest.approx(plain.objective, abs=1e-6)

    def test_overload_reported_by_solve(self):
        # Tie-line and generator limits are variable bounds, so only the
        # power-balance row can take the 9,670 kW shortfall.
        with pytest.raises(InfeasibleCaseError, match="power_balance"):
            solve(build_model(single_interval_case(load=10_000.0)))

    def test_families_cover_every_row_once(self):
        base = day_case()
        case = day_case(generators=base.generators * 2, bess=base.bess * 2)
        problem = build_model(case)
        rows = np.concatenate([r.ravel() for r in problem.families.values()])
        assert np.array_equal(np.sort(rows), np.arange(problem.a.shape[0]))
        assert not {"trade", "buy_limit", "sell_limit"} & set(problem.families)

    def test_unabsorbable_surplus_reports_power_balance(self):
        # Hour 3's 750 kW surplus meets 500 kW of export and 150 kW of charging.
        wind = np.full(24, 150.0)
        wind[3] = 1350.0
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(build_model(day_case(wind=wind)))
        assert exc.value.report == ["power_balance: interval 3 short by 100.000"]

    def test_ramp_shortfall_names_the_unit(self):
        # From 0 kW at hour 2 the unit reaches at most 50 kW at hour 3, and
        # with no tie-line and no battery that hour is 250 kW short.
        case = MicrogridCase(
            generators=[Generator(p_min=0, p_max=400, ramp=50, cost_energy=0.10)],
            bess=[],
            p_grid_max=0.0,
            reserve_fraction=0.0,
            dt_hours=1.0,
            load=np.array([0.0, 0.0, 0.0, 300.0, 300.0, 300.0]),
            wind=np.zeros(6),
            solar=np.zeros(6),
            price_buy=np.full(6, 0.20),
            price_sell=np.full(6, 0.05),
            temps=np.full(6, 25.0),
        )
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(build_model(case))
        assert exc.value.report == ["ramp_up: unit 0, interval 3 short by 250.000"]

    def test_sell_above_buy_rejected(self):
        with pytest.raises(ValueError, match="sell price"):
            single_interval_case(buy=0.10, sell=0.20)

    @pytest.mark.parametrize("cost", ["cost_no_load", "cost_startup"])
    def test_negative_commitment_cost_rejected(self, cost):
        # A continuous startup indicator is exact only while a start costs >= 0.
        with pytest.raises(ValueError, match=cost):
            Generator(p_min=0, p_max=180, ramp=120, cost_energy=0.3, **{cost: -1.0})

    @pytest.mark.parametrize("rate", [np.nan, np.inf])
    def test_non_finite_bdc_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="linear_bdc_rate"):
            build_model(day_case(), linear_bdc_rate=rate)


class TestReadOffFields:
    def test_equal_prices_trade_one_way(self):
        base = day_case()
        sell = base.price_sell.copy()
        sell[:12] = base.price_buy[:12]
        case = day_case(price_sell=sell)
        problem = build_model(case)
        free = solve(problem)
        # Force selling in hour 10, which buys 277 kW at the same price; the
        # solution then trades both ways there before netting, at no cost.
        assert 100 < free.p_buy[10] < case.p_grid_max - 100
        lb = problem.lb.copy()
        lb[problem.index["p_sell"][10]] = 100.0
        forced = solve(dataclasses.replace(problem, lb=lb))
        for sched in (free, forced):
            assert np.all(sched.p_buy * sched.p_sell == 0)
            assert np.array_equal(sched.u_buy, (sched.p_buy > 0).astype(int))
            assert np.array_equal(sched.u_sell, (sched.p_sell > 0).astype(int))
            assert validate_schedule(case, sched) == []
            assert sched.objective == pytest.approx(free.objective, abs=1e-6)
            assert operation_cost(sched, case)["total"] == pytest.approx(sched.objective, abs=1e-6)

    def test_free_startups_are_the_commitment_rises(self):
        gen = Generator(p_min=0, p_max=180, ramp=120, cost_energy=0.30)
        case = day_case(generators=[gen, dataclasses.replace(gen, initially_on=True)])
        problem = build_model(case)
        # Commit both units in hours 5-9: unit 0 must start at hour 5, unit 1
        # starts on. A start costs nothing, so the model's continuous v_gen may
        # sit anywhere above the rises.
        lb = problem.lb.copy()
        lb[problem.index["u_gen"][:, 5:10]] = 1.0
        sched = solve(dataclasses.replace(problem, lb=lb))
        u = np.hstack([[[0], [1]], sched.u_gen])
        assert np.array_equal(sched.v_gen, np.maximum(np.diff(u, axis=1), 0))
        assert sched.v_gen[0, 5] == 1
        assert validate_schedule(case, sched) == []


class TestSolveToyCases:
    def test_generator_cheaper_than_grid(self):
        sched = solve(build_model(single_interval_case(buy=0.20)))
        assert sched.p_gen[0, 0] == pytest.approx(100.0, abs=1e-6)
        assert sched.objective == pytest.approx(10.0, abs=1e-6)

    def test_grid_cheaper_than_generator(self):
        sched = solve(build_model(single_interval_case(buy=0.05)))
        assert sched.p_buy[0] == pytest.approx(100.0, abs=1e-6)
        assert sched.objective == pytest.approx(5.0, abs=1e-6)

    def test_nothing_to_do_costs_nothing(self):
        sched = solve(build_model(single_interval_case(load=0.0)))
        assert sched.objective == pytest.approx(0.0, abs=1e-9)
        assert validate_schedule(single_interval_case(load=0.0), sched) == []

    def test_day_case_solves_and_validates(self):
        case = day_case()
        sched = solve(build_model(case))
        assert validate_schedule(case, sched) == []
        assert sched.energy[0, -1] == pytest.approx(case.bess[0].e_initial, abs=1e-6)

    def test_deterministic_resolve(self):
        case = day_case()
        a = solve(build_model(case))
        b = solve(build_model(case))
        assert np.array_equal(a.p_gen, b.p_gen)
        assert np.array_equal(a.p_char, b.p_char)
        assert a.objective == b.objective


def reported_shortfalls(report, family):
    """{interval: shortfall} from the report lines of one constraint family."""
    found = (re.match(rf"{family}: interval (\d+) short by (\S+)$", line) for line in report)
    return {int(m.group(1)): float(m.group(2)) for m in found if m}


class TestExampleDay:
    def test_solves_with_idle_battery_and_validates(self):
        case = load_example_day()
        idle = solve(build_model(case), UsageCap(0.0))
        assert np.allclose(idle.p_char, 0.0, atol=1e-9)
        assert np.allclose(idle.p_disc, 0.0, atol=1e-9)
        assert validate_schedule(case, idle, cap=UsageCap(0.0)) == []
        traditional = solve(build_model(case))
        assert validate_schedule(case, traditional) == []
        linear = solve(build_model(case, linear_bdc_rate=0.05))
        assert validate_schedule(case, linear) == []
        # An idle battery forgoes the evening-peak arbitrage.
        assert idle.objective > traditional.objective + 1.0

    def test_narrow_tie_line_reports_reserve_at_the_peak(self):
        # With an 800 kW tie-line, hour 19's net load of 1,020 kW needs 168 kW
        # of discharge to keep the reserve, above the battery's 150 kW.
        case = dataclasses.replace(load_example_day(), p_grid_max=800.0)
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(build_model(case))
        reserve = [line for line in exc.value.report if line.startswith("reserve:")]
        assert len(reserve) == 1
        assert "interval 19 " in reserve[0]
        assert not any("no single constraint family" in line for line in exc.value.report)

    def test_narrower_tie_line_reports_the_battery_running_out(self):
        # At 700 kW, hours 18-20 need 158.4, 268 and 62 kW of discharge to keep
        # the reserve. Hour 20's need fits the battery's 150 kW, but the battery
        # delivers at most 0.9 * (300 - 30) = 243 kWh over the three hours, so
        # together they are 245.4 kWh short. Which hours carry that shortfall
        # is a tie; the elastic solve names all three.
        case = dataclasses.replace(load_example_day(), p_grid_max=700.0)
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(build_model(case))
        short = reported_shortfalls(exc.value.report, "reserve")
        assert sorted(short) == [18, 19, 20]
        assert sum(short.values()) == pytest.approx(158.4 + 268 + 62 - 243, abs=1e-3)

    def test_small_battery_reports_the_hour_before_the_peak(self):
        # At 800 kW, hours 18 and 19 need 58.4 and 168 kW of discharge. Hour
        # 18's need fits the battery's power, but a 120 kWh battery delivers at
        # most 0.9 * 120 = 108 kWh over both hours, 118.4 kWh short of the sum.
        day = load_example_day()
        bess = [dataclasses.replace(day.bess[0], e_max=120.0, e_initial=100.0, e_min=0.0)]
        case = dataclasses.replace(day, p_grid_max=800.0, bess=bess)
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(build_model(case))
        short = reported_shortfalls(exc.value.report, "reserve")
        assert sorted(short) == [18, 19]
        assert sum(short.values()) == pytest.approx(58.4 + 168 - 108, abs=1e-3)

    def test_zero_cap_reports_reserve_at_the_peak(self):
        # With a 900 kW tie-line, hour 19 needs 1,020 - (900 + 180 - 128) = 68 kW
        # of discharge, which a zero usage cap forbids.
        case = dataclasses.replace(load_example_day(), p_grid_max=900.0)
        solve(build_model(case))
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(build_model(case), UsageCap(0.0))
        reserve = [line for line in exc.value.report if line.startswith("reserve:")]
        assert len(reserve) == 1
        assert "interval 19 " in reserve[0]

    def test_zero_cap_does_not_blame_minimum_battery_power(self):
        # p_min * u <= p lets the battery idle, so a cap below p_min * dt is
        # never a cause: the same battery solves under that cap at 1,000 kW.
        day = load_example_day()
        bess = [dataclasses.replace(day.bess[0], p_min=5.0)]
        solve(build_model(dataclasses.replace(day, bess=bess)), UsageCap(0.0))
        case = dataclasses.replace(day, bess=bess, p_grid_max=800.0)
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(build_model(case), UsageCap(0.0))
        assert not any(line.startswith("usage_cap:") for line in exc.value.report)
        assert any(line.startswith("reserve:") for line in exc.value.report)


class TestOracleEquivalence:
    def test_micro_cases_match_enumeration(self):
        rng = np.random.default_rng(2024)
        checked = 0
        while checked < 12:
            case = random_micro_case(rng)
            problem = build_model(case)
            assert problem.n_binaries <= 12
            expected, _ = brute_force_optimum(problem)
            sched = solve(problem)
            assert expected is not None
            scale = max(1.0, abs(expected))
            assert abs(sched.objective - expected) <= 1e-6 * scale
            assert validate_schedule(case, sched) == []
            checked += 1


def small_battery_day():
    """The example day at an 800 kW tie-line with a 120 kWh battery, which
    cannot keep the reserve at hours 18 and 19 (see TestExampleDay)."""
    day = load_example_day()
    bess = [dataclasses.replace(day.bess[0], e_max=120.0, e_initial=100.0, e_min=0.0)]
    return dataclasses.replace(day, p_grid_max=800.0, bess=bess)


def scipy_milp(problem, start=None):
    """`milp._milp` through scipy's public optimize.milp on the same arrays and
    options: the reference that the direct call into scipy's binding matches.
    optimize.milp takes no start."""
    assert start is None
    res = optimize.milp(
        c=problem.c,
        constraints=optimize.LinearConstraint(
            problem.a,
            np.concatenate((np.full(problem.b_ub.size, -np.inf), problem.b_eq)),
            np.concatenate((problem.b_ub, problem.b_eq)),
        ),
        integrality=problem.is_int.astype(int),
        bounds=optimize.Bounds(problem.lb, problem.ub),
        options=dict(mip_rel_gap=0.0, presolve=True, mip_heuristic_run_feasibility_jump=False,
                     mip_heuristic_run_zi_round=True),
    )
    outcome = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "failed")
    if outcome != "optimal":
        return milp._Solved(outcome, res.message)
    return milp._Solved(outcome, res.message, res.x, res.fun)


class TestScipyReference:
    """`_milp` calls HiGHS through scipy's private `_highspy._core`. The public
    optimize.milp must give the same schedules, bit for bit, so that a scipy
    release that changes the binding fails here."""

    @pytest.mark.filterwarnings("ignore:Unrecognized options detected:RuntimeWarning")
    def test_schedules_match_scipy_milp_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(2024)  # TestOracleEquivalence's micro cases
        runs = [(build_model(random_micro_case(rng)), None) for _ in range(12)]
        day = build_model(day_case())
        tau = solve(day).bess_throughput_kwh(day.case)
        runs += [(day, None), *((day, UsageCap(f * tau)) for f in (0.5, 0.2, 0.0))]
        runs.append((build_model(week_case()), None))  # solved through the rounded-binary LP
        direct = [solve(problem, cap) for problem, cap in runs]

        monkeypatch.setattr(milp, "_milp", scipy_milp)
        for (problem, cap), got in zip(runs, direct):
            want = solve(problem, cap)
            for field in dataclasses.fields(want):
                a, b = np.asarray(getattr(got, field.name)), np.asarray(getattr(want, field.name))
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), field.name

    @pytest.mark.filterwarnings("ignore:Unrecognized options detected:RuntimeWarning")
    @pytest.mark.parametrize(
        "case", [dataclasses.replace(load_example_day(), p_grid_max=700.0), small_battery_day()],
        ids=["700kW", "small_battery"])
    def test_infeasible_reports_match_scipy_milp(self, case, monkeypatch):
        # The reference is the elastic copy of the model, solved by
        # optimize.milp: a x - s <= b_ub and a x - s + s' == b_eq with every
        # slack >= 0, at weight 1 on inequality slack and 2 on equality slack.
        problem = build_model(case)
        with pytest.raises(InfeasibleCaseError) as direct:
            solve(problem)
        n, n_ub, n_rows = problem.n_variables, problem.b_ub.size, problem.a.shape[0]
        weights = np.repeat([1.0, 2.0], [n_ub, 2 * (n_rows - n_ub)])
        eye = sparse.eye_array(n_rows, format="csc")
        elastic = dataclasses.replace(
            problem,
            c=np.concatenate((np.zeros(n), weights)),
            a=sparse.hstack([problem.a, -eye, eye[:, n_ub:]], format="csc"),
            lb=np.concatenate((problem.lb, np.zeros(weights.size))),
            ub=np.concatenate((problem.ub, np.full(weights.size, np.inf))),
            is_int=np.concatenate((problem.is_int, np.zeros(weights.size, dtype=bool))),
        )
        res = scipy_milp(elastic)
        assert res.outcome == "optimal"
        slack = res.x[n : n + n_rows]
        slack[n_ub:] += res.x[n + n_rows :]
        # The reference's slack, reported as `_diagnose` reports its own.
        monkeypatch.setattr(milp, "_row_excess", lambda problem, x: slack)
        assert milp._diagnose(problem) == direct.value.report


class TestLoad:
    def test_highs_holds_the_problems_buffers(self):
        problem = build_model(day_case())
        lp = milp._load(problem, problem.lb, problem.ub, problem.is_int).getLp()
        a = lp.a_matrix_
        assert str(a.format_) == "MatrixFormat.kColwise"
        assert (lp.num_col_, lp.num_row_) == problem.a.shape[::-1]
        n_ub = problem.b_ub.size
        pairs = {
            "start_": (a.start_, problem.a.indptr),
            "index_": (a.index_, problem.a.indices),
            "value_": (a.value_, problem.a.data),
            "col_cost_": (lp.col_cost_, problem.c),
            "col_lower_": (lp.col_lower_, problem.lb),
            "col_upper_": (lp.col_upper_, problem.ub),
            "row_lower_": (lp.row_lower_, np.r_[np.full(n_ub, -np.inf), problem.b_eq]),
            "row_upper_": (lp.row_upper_, np.r_[problem.b_ub, problem.b_eq]),
            "integrality_": ([int(t) for t in lp.integrality_], problem.is_int.astype(int)),
        }
        for name, (got, want) in pairs.items():
            assert np.array_equal(np.asarray(got), want), name


class TestSolverStatuses:
    """Each HiGHS model status ends as scipy.optimize.milp classes it."""

    def test_unbounded_milp_fails_as_unbounded_or_infeasible(self):
        # HiGHS's presolve cannot tell these two apart with integers present.
        problem = build_model(day_case())
        free = np.where(problem.is_int, problem.ub, np.inf)
        unbounded = dataclasses.replace(problem, c=-np.ones(problem.n_variables), ub=free)
        with pytest.raises(RuntimeError) as exc:
            solve(unbounded)
        assert not isinstance(exc.value, InfeasibleCaseError)
        assert str(exc.value) == "solver failed: HiGHS model status Primal infeasible or unbounded"

    def test_unbounded_lp_is_reported_unbounded(self):
        problem = build_model(day_case())
        unbounded = dataclasses.replace(
            problem, c=-np.ones(problem.n_variables),
            ub=np.where(problem.is_int, problem.ub, np.inf), is_int=np.zeros_like(problem.is_int),
        )
        with pytest.raises(RuntimeError, match="^model unbounded; case invariants violated$"):
            solve(unbounded)

    def test_model_error_is_infeasible(self):
        # HiGHS refuses an infinite coefficient when the model is passed.
        problem = build_model(day_case())
        a = problem.a.copy()
        a.data[0] = np.inf
        refused = dataclasses.replace(problem, a=a)
        res = milp._milp(refused)
        assert (res.outcome, res.status, res.x) == ("infeasible", "Model error", None)
        with pytest.raises(InfeasibleCaseError) as exc:
            solve(refused)
        assert exc.value.report == ["elastic diagnosis failed: HiGHS model status Model error"]


def week_case():
    """A 168-interval week stored in the case-document layout (inline series)."""
    doc = json.loads((Path(__file__).parent / "data" / "week_case_310_6.json").read_text())
    series = doc["series"]
    return MicrogridCase(
        generators=[Generator(**g) for g in doc["generators"]],
        bess=[Bess(**b) for b in doc["bess"]],
        p_grid_max=doc["tie_line"]["p_grid_max"],
        reserve_fraction=doc["reserve_fraction"],
        dt_hours=doc["dt_hours"],
        load=series["load_kw"],
        wind=series["wind_kw"],
        solar=series["solar_kw"],
        price_buy=series["buy_price"],
        price_sell=series["sell_price"],
        temps=series["temp_c"],
    )


class TestRoundedBinaries:
    def test_week_schedule_keeps_power_limits(self):
        # HiGHS returns u_disc[0, 26] = 2.6e-7 with p_disc[0, 26] = 3.9e-5 kW
        # here; rounding the binary alone breaks the discharge limit row.
        case = week_case()
        assert case.horizon == 168
        sched = solve(build_model(case))
        assert validate_schedule(case, sched) == []
        assert sched.p_disc[0, 26] <= sched.u_disc[0, 26] * case.bess[0].p_max


class TestSparseModel:
    def test_matrix_is_canonical_csc_without_stored_zeros(self):
        # p_min = 0 puts zero coefficients on the battery minimum-power rows.
        problem = build_model(day_case())
        assert problem.case.bess[0].p_min == 0
        a = problem.a
        assert isinstance(a, sparse.csc_array)
        assert a.has_canonical_format
        assert np.all(a.data != 0)
        assert a.nnz == np.count_nonzero(problem.a_ub) + np.count_nonzero(problem.a_eq)
        assert a.shape == (problem.b_ub.size + problem.b_eq.size, problem.n_variables)

    def test_week_build_and_capped_solve_stay_small(self):
        # The dense inequality rows of this 168-interval model alone take 36 MB.
        case = week_case()
        tracemalloc.start()
        try:
            solve(build_model(case), UsageCap(500.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4e6


class TestUsageCap:
    def test_cap_never_reduces_cost(self):
        case = day_case()
        free = solve(build_model(case))
        tau = free.bess_throughput_kwh(case)
        for fraction in (0.5, 0.2, 0.0):
            capped = solve(build_model(case), UsageCap(fraction * tau))
            assert capped.objective >= free.objective - 1e-6
            assert capped.bess_throughput_kwh(case) <= fraction * tau + 1e-6
            assert validate_schedule(case, capped, cap=UsageCap(fraction * tau)) == []

    @pytest.mark.parametrize("cap", [math.nan, -1.0, -math.inf])
    def test_cap_must_be_a_number_at_least_zero(self, cap):
        with pytest.raises(ValueError, match=re.escape(f"cap_kwh must be a number >= 0: {cap}")):
            UsageCap(cap)

    def test_infinite_cap_is_no_cap(self):
        problem = build_model(day_case())
        free = solve(problem)
        assert solve(problem, UsageCap(math.inf)).objective == pytest.approx(free.objective)

    def test_cap_leaves_the_problem_unchanged(self):
        problem = build_model(day_case())
        b_ub = problem.b_ub.copy()
        solve(problem, UsageCap(10.0))
        assert np.array_equal(problem.b_ub, b_ub)

    def test_cap_row_is_last_with_a_finite_default(self):
        case = day_case()
        problem = build_model(case)
        battery = np.concatenate([problem.index["p_char"].ravel(), problem.index["p_disc"].ravel()])
        expected = np.zeros(problem.n_variables)
        expected[battery] = case.dt_hours
        assert np.array_equal(problem.a_ub[-1], expected)
        assert problem.b_ub[-1] == 2 * case.horizon * case.dt_hours * case.bess[0].p_max


class TestCapSession:
    """The fixed-commitment LP kept warm across usage caps."""

    @staticmethod
    def opened(case, fraction):
        problem = build_model(case)
        cap = fraction * solve(problem).bess_throughput_kwh(case)
        sched = solve(problem, UsageCap(cap))
        return problem, sched, cap, milp.CapSession(problem, sched)

    def test_warm_lp_is_the_cold_fixed_commitment_lp_and_affine_in_the_cap(self):
        problem, sched, cap, session = self.opened(load_example_day(), 0.9)
        lb, ub = problem.lb.copy(), problem.ub.copy()
        for name in ("u_gen", "u_char", "u_disc"):
            lb[problem.index[name]] = ub[problem.index[name]] = getattr(sched, name)
        lp = np.zeros(problem.n_variables, dtype=bool)
        for share in (1.0, 0.7, 0.4):  # down from the MILP's cap, warm after the first
            at = share * cap
            warm = session.at(at)
            cold = milp._milp(dataclasses.replace(
                problem, b_ub=np.append(problem.b_ub[:-1], at), lb=lb, ub=ub, is_int=lp))
            assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
            assert validate_schedule(problem.case, warm, cap=UsageCap(at)) == []
            for name in ("u_gen", "u_char", "u_disc"):
                assert np.array_equal(getattr(warm, name), getattr(sched, name)), name

    def test_session_leaves_the_problem_unchanged(self):
        problem, _, cap, session = self.opened(day_case(), 0.5)
        b_ub = problem.b_ub.copy()
        session.at(0.9 * cap)
        assert np.array_equal(problem.b_ub, b_ub)

    def test_refused_model_opens_an_empty_range(self):
        problem, sched, cap, _ = self.opened(day_case(), 0.5)
        a = problem.a.copy()
        a.data[0] = np.inf
        refused = dataclasses.replace(problem, a=a)
        assert milp._load(refused, refused.lb, refused.ub, refused.is_int) is None
        assert milp.CapSession(refused, sched).at(cap) is None


class TestStart:
    """A MILP started from the fixed-commitment LP of another schedule."""

    @staticmethod
    def started(case, fraction):
        """The model, the cap at a share of the uncapped throughput, and the
        LP of the uncapped schedule's commitment under that cap."""
        problem = build_model(case)
        free = solve(problem)
        cap = fraction * free.bess_throughput_kwh(case)
        return problem, free, cap, milp.CapSession(problem, free).at(cap)

    @pytest.mark.filterwarnings("ignore:Unrecognized options detected:RuntimeWarning")
    @pytest.mark.parametrize("case, fraction",
                             [(day_case(), 0.5), (day_case(), 0.2), (week_case(), 0.5)],
                             ids=["day-0.5", "day-0.2", "week-0.5"])
    def test_started_solve_is_the_start_free_optimum(self, case, fraction):
        problem, _, cap, start = self.started(case, fraction)
        assert start is not None
        got = solve(problem, UsageCap(cap), start=start)
        assert got.objective == pytest.approx(solve(problem, UsageCap(cap)).objective, rel=1e-9)
        capped = dataclasses.replace(problem, b_ub=np.append(problem.b_ub[:-1], cap))
        reference = scipy_milp(capped)
        assert got.objective == pytest.approx(reference.objective, rel=1e-9)
        assert validate_schedule(case, got, cap=UsageCap(cap)) == []

    def test_optimal_start_is_the_incumbent_highs_returns(self):
        # Here the start is optimal, and it lies on another vertex of the
        # optimal face than the one the start-free solve returns.
        problem, _, cap, start = self.started(day_case(), 0.5)
        x = milp._columns(problem, start)
        assert not np.array_equal(milp._columns(problem, solve(problem, UsageCap(cap))), x)
        assert np.array_equal(milp._columns(problem, solve(problem, UsageCap(cap), start=start)), x)

    def test_start_that_breaks_the_cap_is_dropped(self):
        problem, free, cap, _ = self.started(day_case(), 0.5)
        assert validate_schedule(problem.case, free, cap=UsageCap(cap)) != []
        got = solve(problem, UsageCap(cap), start=free)
        assert got.objective == pytest.approx(solve(problem, UsageCap(cap)).objective, rel=1e-9)
        assert validate_schedule(problem.case, got, cap=UsageCap(cap)) == []

    def test_zi_rounding_runs_only_without_a_start(self, monkeypatch):
        load, loaded = milp._load, []

        def keep(*args):
            loaded.append(load(*args))
            return loaded[-1]

        monkeypatch.setattr(milp, "_load", keep)
        problem = build_model(day_case())
        free = solve(problem)
        solve(problem, start=free)
        zi = [solver.getOptionValue("mip_heuristic_run_zi_round")[1] for solver in loaded]
        assert zi == [True, False]


class TestValidateSchedule:
    def test_solver_output_is_clean(self):
        case = day_case()
        assert validate_schedule(case, solve(build_model(case))) == []

    def test_terminal_energy_violation_detected(self):
        case = day_case()
        sched = solve(build_model(case))
        sched.energy[0, -1] += 5.0
        families = {v.family for v in validate_schedule(case, sched)}
        assert "eq17_terminal_energy" in families

    def test_simultaneous_trade_detected(self):
        case = day_case()
        sched = solve(build_model(case))
        sched.u_buy[3] = 1
        sched.u_sell[3] = 1
        families = {v.family for v in validate_schedule(case, sched)}
        assert "eq9_trade_exclusivity" in families

    def test_fractional_binary_detected(self):
        case = day_case()
        sched = solve(build_model(case))
        sched.u_gen = sched.u_gen.astype(float)
        sched.u_gen[0, 0] = 0.5
        families = {v.family for v in validate_schedule(case, sched)}
        assert "binary_integrality" in families

    def test_fractional_binary_amount_is_distance_to_nearest_integer(self):
        case = day_case()
        sched = _edited(solve(build_model(case)), [("u_gen", (0, 1), "=", 1),
                                                   ("u_gen", (0, 0), "=", 0.5)])
        found = [v for v in validate_schedule(case, sched) if v.family == "binary_integrality"]
        assert [(v.where, v.amount) for v in found] == [("u_gen", 0.5)]

    @pytest.mark.parametrize("edits, family, where", [
        ([("p_buy", 4, "+=", 5.0)], "eq5_power_balance", "t=4"),
        ([("p_gen", (0, 3), "=", 200.0)], "eq6_gen_limits", "g=0,t=3"),
        ([("p_gen", (0, 3), "=", -1.0)], "eq6_gen_limits", "g=0,t=3"),
        ([("p_gen", (0, 9), "+=", 500.0)], "eq7_ramp_up", "g=0,t=8"),
        ([("p_gen", (0, 9), "+=", 500.0)], "eq8_ramp_down", "g=0,t=9"),
        ([("u_gen", (0, 4), "=", 0), ("u_gen", (0, 5), "=", 1), ("v_gen", (0, 5), "=", 0)],
         "startup_linking", "g=0,t=5"),
        ([("u_buy", 3, "=", 1), ("u_sell", 3, "=", 1)], "eq9_trade_exclusivity", "t=3"),
        ([("p_buy", 6, "=", 600.0)], "eq10_buy_limit", "t=6"),
        ([("p_buy", 6, "=", -1.0)], "eq10_buy_limit", "t=6"),
        ([("p_sell", 7, "=", 600.0)], "eq11_sell_limit", "t=7"),
        ([("u_char", (0, 10), "=", 1), ("u_disc", (0, 10), "=", 1)],
         "eq12_bess_exclusivity", "s=0,t=10"),
        ([("p_char", (0, 11), "=", 200.0)], "eq13_charge_limits", "s=0,t=11"),
        ([("p_disc", (0, 12), "=", 200.0)], "eq14_discharge_limits", "s=0,t=12"),
        ([("energy", (0, 13), "+=", -1.0)], "eq16_energy_recursion", "s=0,t=13"),
        ([("energy", (0, 14), "=", 400.0)], "energy_capacity", "s=0,t=14"),
        ([("energy", (0, 14), "=", 10.0)], "energy_capacity", "s=0,t=14"),
        ([("energy", (0, 23), "+=", 1.0)], "eq17_terminal_energy", "s=0"),
        ([("p_gen", (0, 18), "+=", 2000.0)], "eq18_reserve", "t=18"),
        ([("u_gen", (0, 0), "=", 0.5)], "binary_integrality", "u_gen"),
    ])
    def test_each_family_reported_at_its_location(self, edits, family, where):
        case = day_case()
        sched = _edited(solve(build_model(case)), edits)
        found = {(v.family, v.where) for v in validate_schedule(case, sched)}
        assert (family, where) in found

    def test_usage_cap_reported_over_the_horizon(self):
        case = day_case()
        sched = solve(build_model(case))
        found = {(v.family, v.where) for v in validate_schedule(case, sched, cap=UsageCap(0.0))}
        assert found == {("eq29_usage_cap", "horizon")}

    def test_second_units_validated_and_named(self):
        base = day_case()
        case = day_case(generators=base.generators * 2, bess=base.bess * 2)
        sched = solve(build_model(case))
        assert validate_schedule(case, sched) == []
        sched = _edited(sched, [("p_gen", (1, 3), "=", 200.0), ("energy", (1, 14), "=", 400.0)])
        found = {(v.family, v.where) for v in validate_schedule(case, sched)}
        assert {("eq6_gen_limits", "g=1,t=3"), ("energy_capacity", "s=1,t=14")} <= found
        assert not any(where.startswith(("g=0", "s=0")) for _, where in found)


class TestOperationCost:
    def test_idle_schedule_is_free(self):
        case = single_interval_case(load=0.0)
        sched = solve(build_model(case))
        assert operation_cost(sched, case)["total"] == pytest.approx(0.0, abs=1e-9)

    def test_matches_toy_objective(self):
        case = single_interval_case(buy=0.20)
        sched = solve(build_model(case))
        cost = operation_cost(sched, case)
        assert cost["total"] == pytest.approx(10.0, abs=1e-6)
        assert cost["generation"] == pytest.approx(10.0, abs=1e-6)

    def test_sale_contributes_negative(self):
        case = single_interval_case(load=0.0, gen=True, buy=0.20, sell=0.10)
        # Force a profitable sale: free wind, sellable at 0.10.
        case = MicrogridCase(
            generators=[],
            bess=[],
            p_grid_max=150.0,
            reserve_fraction=0.0,
            dt_hours=1.0,
            load=np.array([0.0]),
            wind=np.array([50.0]),
            solar=np.array([0.0]),
            price_buy=np.array([0.20]),
            price_sell=np.array([0.10]),
            temps=np.array([25.0]),
        )
        sched = solve(build_model(case))
        cost = operation_cost(sched, case)
        assert cost["sale_revenue"] == pytest.approx(5.0, abs=1e-6)
        assert cost["total"] == pytest.approx(-5.0, abs=1e-6)

    def test_total_matches_solver_objective_with_bdc(self):
        case = day_case()
        rate = 0.05
        sched = solve(build_model(case, linear_bdc_rate=rate))
        cost = operation_cost(sched, case)
        bdc = rate * sched.bess_throughput_kwh(case)
        assert cost["total"] + bdc == pytest.approx(sched.objective, abs=1e-6)
