"""Tests for the look-ahead scheduling MILP."""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

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


class TestBuildModel:
    def test_binary_count_one_gen_one_bess(self):
        problem = build_model(day_case())
        assert problem.n_binaries == 24 * 6

    def test_zero_cap_forces_idle_battery(self):
        sched = solve(build_model(day_case()), UsageCap(0.0))
        assert np.allclose(sched.p_char, 0.0, atol=1e-9)
        assert np.allclose(sched.p_disc, 0.0, atol=1e-9)

    def test_zero_bdc_rate_matches_plain_model(self):
        case = day_case()
        plain = solve(build_model(case))
        zero_rate = solve(build_model(case, linear_bdc_rate=0.0))
        assert zero_rate.objective == pytest.approx(plain.objective, abs=1e-6)

    def test_overload_reported_before_solve(self):
        with pytest.raises(InfeasibleCaseError, match="power_balance"):
            build_model(single_interval_case(load=10_000.0))

    def test_sell_above_buy_rejected(self):
        with pytest.raises(ValueError, match="sell price"):
            single_interval_case(buy=0.10, sell=0.20)


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
