"""Tests for the iterative degradation-aware scheduling loop."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from degradesched import lod, milp
from degradesched.exampleday import load_example_day
from degradesched.lod import EconParams, LodConfig
from degradesched.milp import (
    InfeasibleCaseError,
    UsageCap,
    build_model,
    operation_cost,
    solve,
    validate_schedule,
)
from degradesched.net import NetworkSpec, Normalizer, TrainedNetwork, TrainConfig
from degradesched.quantifier import BDF_FEATURES, BDP_VARIANTS, DegradationModel
from test_milp import arbitrage_case
from test_milp import day_case as milp_day_case
from test_milp import week_case as milp_week_case


def constant_network(n_in: int, out_values) -> TrainedNetwork:
    """A network that outputs fixed values regardless of input."""
    out = np.asarray(out_values, dtype=float)
    params = [
        (np.zeros((n_in, 2)), np.zeros(2)),
        (np.zeros((2, out.size)), out.copy()),
    ]
    wide = 1e6  # ranges wide enough that no guard-band warning fires
    return TrainedNetwork(
        spec=NetworkSpec((n_in, 2, out.size)),
        params=params,
        x_norm=Normalizer(-wide * np.ones(n_in), wide * np.ones(n_in), np.ones(n_in, bool)),
        y_norm=Normalizer(np.zeros(out.size), np.ones(out.size), np.zeros(out.size, bool)),
        config=TrainConfig(),
    )


def constant_model(per_half_cycle: float) -> DegradationModel:
    """Quantifier predicting a fixed degradation per half cycle."""
    ubdf_out = [30.0, 60.0, 900.0]  # plausible it, ir, elcn
    return DegradationModel(
        ubdf_id=6,
        bdp_id=10,
        ubdf=constant_network(len(BDF_FEATURES), ubdf_out),
        bdp=constant_network(len(BDP_VARIANTS[10]), [per_half_cycle]),
    )


ECON = EconParams(capital_cost=120_000.0, salvage_value=0.0, soh_eol=0.8)


class TestDegradationCost:
    def test_zero_degradation_is_free(self):
        assert lod.degradation_cost(0.0, ECON) == 0.0

    def test_full_life_returns_net_capital(self):
        assert lod.degradation_cost(0.2, ECON) == pytest.approx(120_000.0)

    def test_reference_arithmetic(self):
        # (120000 - 0) / (1 - 0.8) * 1.6533e-5 = 9.9198
        assert lod.degradation_cost(1.6533e-5, ECON) == pytest.approx(9.92, abs=0.005)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-9])
    def test_non_finite_or_negative_rejected(self, value):
        # NaN or inf would reach summary.json as NaN or Infinity, which is no JSON.
        with pytest.raises(ValueError, match=f"degradation must be a finite number >= 0: {value}"):
            lod.degradation_cost(value, ECON)


class TestBenchmarkRuns:
    def test_traditional_has_lowest_operation_cost(self):
        case = arbitrage_case()
        model = constant_model(1e-4)
        trad = lod.run_traditional(case, model, ECON)
        linear = lod.run_linear_bdc(case, model, ECON)
        capped = solve(build_model(case), UsageCap(10.0))
        from degradesched.milp import operation_cost

        assert trad.operation_cost <= linear.operation_cost + 1e-6
        assert trad.operation_cost <= operation_cost(capped, case)["total"] + 1e-6

    def test_total_is_sum_of_parts(self):
        case = arbitrage_case()
        it = lod.run_traditional(case, constant_model(1e-4), ECON)
        assert it.total_cost == pytest.approx(it.operation_cost + it.degradation_cost)

    def test_zero_rate_linear_matches_traditional(self):
        case = arbitrage_case()
        model = constant_model(1e-4)
        econ0 = EconParams(capital_cost=120_000.0, linear_bdc_rate=0.0)
        trad = lod.run_traditional(case, model, econ0)
        linear = lod.run_linear_bdc(case, model, econ0)
        assert linear.operation_cost == pytest.approx(trad.operation_cost, abs=1e-6)
        assert linear.bess_throughput_kwh == pytest.approx(
            trad.bess_throughput_kwh, abs=1e-6
        )


class TestRunLod:
    def test_cap_sequence_and_monotone_operation_cost(self):
        case = arbitrage_case()
        trace = lod.run_lod(case, constant_model(5e-4), ECON, LodConfig(alpha=0.1))
        caps = [it.usage_cap_kwh for it in trace.iterations]
        assert caps[0] is None
        active = [c for c in caps[1:] if c is not None]
        assert all(b < a for a, b in zip(active, active[1:]))
        ops = [it.operation_cost for it in trace.iterations]
        assert all(b >= a - 1e-6 for a, b in zip(ops, ops[1:]))

    def test_cap_arithmetic(self):
        case = arbitrage_case()
        trace = lod.run_lod(case, constant_model(5e-4), ECON, LodConfig(alpha=0.03))
        first = trace.iterations[0]
        second = trace.iterations[1]
        assert second.usage_cap_kwh == pytest.approx(
            0.97 * first.bess_throughput_kwh
        )

    def test_every_iteration_validates(self):
        case = arbitrage_case()
        trace = lod.run_lod(case, constant_model(5e-4), ECON, LodConfig(alpha=0.1))
        for it in trace.iterations:
            cap = None if it.usage_cap_kwh is None else UsageCap(it.usage_cap_kwh)
            assert validate_schedule(case, it.schedule, cap=cap) == []

    def test_builds_one_model_per_run(self, monkeypatch):
        built = []

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_model(*args, **kwargs)

        monkeypatch.setattr(lod, "build_model", counting_build)
        trace = lod.run_lod(arbitrage_case(), constant_model(5e-4), ECON, LodConfig(alpha=0.1))
        assert len(trace.iterations) > 1
        assert len(built) == 1

    def test_best_is_argmin_and_not_worse_than_start(self):
        case = arbitrage_case()
        trace = lod.run_lod(case, constant_model(5e-4), ECON, LodConfig(alpha=0.1))
        totals = [it.total_cost for it in trace.iterations]
        assert trace.best_index == int(np.argmin(totals))
        assert trace.best.total_cost <= totals[0] + 1e-9

    def test_zero_model_stops_after_patience(self):
        case = arbitrage_case()
        trace = lod.run_lod(
            case, constant_model(0.0), ECON, LodConfig(alpha=0.1, patience=10)
        )
        assert trace.best_index == 0
        assert trace.termination_reason == "converged"
        assert len(trace.iterations) == 11  # iteration 0 + patience stalls

    def test_stall_counts_from_the_latest_best_pass(self, monkeypatch):
        # Scripted totals: pass 3 is the best, and pass 4 beats it by less
        # than IMPROVEMENT_TOL, so pass 4 stalls like the passes after it.
        patience = 4
        best = 10_000.0
        totals = iter([best + 300, best + 200, best + 100, best,
                       best - lod.IMPROVEMENT_TOL / 2, best, best + 100, best + 200])
        econ = EconParams(capital_cost=1.0, soh_eol=0.5)  # $2 per unit of degradation

        def scripted(case, sched, model, soh):
            return (next(totals) - operation_cost(sched, case)["total"]) / 2.0

        monkeypatch.setattr(lod, "schedule_degradation", scripted)
        trace = lod.run_lod(
            arbitrage_case(), constant_model(0.0), econ, LodConfig(alpha=0.01, patience=patience)
        )
        assert trace.best_index == 3
        assert trace.termination_reason == "converged"
        assert len(trace.iterations) == 3 + patience + 1

    def test_infeasible_first_pass_reports_the_diagnosis(self):
        case = dataclasses.replace(load_example_day(), p_grid_max=800.0)
        with pytest.raises(InfeasibleCaseError) as exc:
            lod.run_lod(case, constant_model(5e-4), ECON)
        assert any(line.startswith("reserve:") for line in exc.value.report)

    def test_trace_determinism(self):
        case = arbitrage_case()
        model = constant_model(5e-4)
        t1 = lod.run_lod(case, model, ECON, LodConfig(alpha=0.1))
        t2 = lod.run_lod(case, model, ECON, LodConfig(alpha=0.1))
        assert [i.total_cost for i in t1.iterations] == [
            i.total_cost for i in t2.iterations
        ]
        assert t1.best_index == t2.best_index
        assert t1.termination_reason == t2.termination_reason

    def test_idle_battery_stops_as_cap_exhausted(self):
        # Each pass keeps 1% of the last throughput, so the fifth goes idle.
        trace = lod.run_lod(
            arbitrage_case(),
            constant_model(5e-4),
            ECON,
            LodConfig(alpha=0.99, max_iterations=50, patience=50),
        )
        assert trace.termination_reason == "cap_exhausted"
        assert len(trace.iterations) == 5
        assert trace.iterations[-1].bess_throughput_kwh <= lod.IDLE_THROUGHPUT_KWH

    def test_max_iterations_bound(self):
        case = arbitrage_case()
        trace = lod.run_lod(
            case,
            constant_model(5e-4),
            ECON,
            LodConfig(alpha=0.01, max_iterations=5, patience=50),
        )
        assert len(trace.iterations) <= 6
        assert trace.termination_reason == "max_iterations"


class NoLp(lod.CapSession):
    """A session whose LP has no schedule at any cap. The loop takes its
    sessions by the name `lod.CapSession`, and `solve`'s rounded-binary LP
    keeps the real class."""

    def at(self, cap_kwh):
        return None


def milp_only(case, model, cfg):
    """The loop with a start-free MILP at every pass, for reference: no
    commitment LP has a schedule, so there is nothing to prove or start from."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lod, "CapSession", NoLp)
        return lod.run_lod(case, model, ECON, cfg)


@pytest.fixture
def no_bound_proofs(monkeypatch):
    """No commitment LP proves itself and the LP relaxation proves no start,
    so every capped pass solves its MILP."""
    monkeypatch.setattr(lod.CapSession, "proves_itself", lambda self: False)
    monkeypatch.setattr(lod.CapSession, "bound", lambda self, cap_kwh: -math.inf)


def lost_commitment_case():
    """arbitrage_case() with a 10 kW minimum battery power and a cheaper
    second peak: a minimum power ties throughput to the battery's binaries,
    which the LP relaxation relaxes."""
    base = arbitrage_case()
    buy = np.array([0.05, 0.05, 0.05, 1.2, 0.6, 0.05])
    return dataclasses.replace(base, price_buy=buy, price_sell=0.5 * buy,
                               bess=[dataclasses.replace(base.bess[0], p_min=10.0)])


class TestLpPasses:
    """Capped passes re-solve the last MILP's fixed-commitment LP."""

    @pytest.mark.parametrize("case", [load_example_day(), arbitrage_case(), milp_day_case()],
                             ids=["example_day", "arbitrage", "testbed_day"])
    @pytest.mark.parametrize("per_half_cycle", [1e-4, 5e-4])
    @pytest.mark.parametrize("alpha", [0.03, 0.1])
    def test_every_pass_costs_what_the_milp_at_its_cap_costs(self, case, per_half_cycle, alpha):
        problem = build_model(case)
        trace = lod.run_lod(case, constant_model(per_half_cycle), ECON, LodConfig(alpha=alpha))
        assert trace.milp_solves < len(trace.iterations)
        assert trace.milp_solves + trace.bound_proofs == len(trace.iterations)
        for it in trace.iterations[1:]:
            cap = UsageCap(it.usage_cap_kwh)
            want = operation_cost(solve(problem, cap), case)["total"]
            assert it.operation_cost == pytest.approx(want, rel=1e-6), it.index
            assert validate_schedule(case, it.schedule, cap=cap) == [], it.index

    @pytest.mark.parametrize("case", [load_example_day(), arbitrage_case(), milp_day_case()],
                             ids=["example_day", "arbitrage", "testbed_day"])
    @pytest.mark.usefixtures("no_bound_proofs")
    def test_capped_milps_start_from_the_lp(self, case, monkeypatch):
        solves = []

        def recording_solve(problem, cap=None, start=None):
            solves.append((cap, start))
            return solve(problem, cap, start)

        monkeypatch.setattr(lod, "solve", recording_solve)
        model, cfg = constant_model(5e-4), LodConfig()
        trace = lod.run_lod(case, model, ECON, cfg)
        tiny_cap = lod.TINY_CAP_SHARE * build_model(case).b_ub[-1]
        assert solves[0] == (None, None)
        assert len(solves) == trace.milp_solves > 1
        assert any(start is not None for _, start in solves)
        for cap, start in solves[1:]:
            assert (start is not None) == (cap.cap_kwh > tiny_cap), cap

        solves.clear()
        reference = milp_only(case, model, cfg)
        assert len(solves) == len(reference.iterations)
        assert all(start is None for _, start in solves)
        for got, want in zip(trace.iterations, reference.iterations, strict=True):
            assert got.usage_cap_kwh == pytest.approx(want.usage_cap_kwh, rel=1e-9), got.index
            assert got.operation_cost == pytest.approx(want.operation_cost, rel=1e-9), got.index

    def test_failed_lp_falls_back_to_the_milp(self):
        case, model, cfg = arbitrage_case(), constant_model(5e-4), LodConfig(alpha=0.1)
        trace = milp_only(case, model, cfg)
        assert trace.milp_solves == len(trace.iterations)
        reference = lod.run_lod(case, model, ECON, cfg)  # proven from the relaxation
        assert reference.bound_proofs > 0
        assert (trace.best_index, trace.termination_reason) == (
            reference.best_index, reference.termination_reason)
        for got, want in zip(trace.iterations, reference.iterations, strict=True):
            assert got.usage_cap_kwh == pytest.approx(want.usage_cap_kwh, rel=1e-9), got.index
            assert got.operation_cost == pytest.approx(want.operation_cost, rel=1e-9), got.index

    @pytest.mark.parametrize("quadratic", [False, True], ids=["constant", "quadratic"])
    @pytest.mark.usefixtures("no_bound_proofs")
    def test_at_most_one_session_is_live_at_a_milp(self, quadratic, monkeypatch):
        # Beside the commitment sessions (`live`), a run keeps one LP
        # relaxation. Degradation quadratic in throughput walks the caps
        # another way than a constant per half cycle does.
        live, relaxations = weakref.WeakSet(), weakref.WeakSet()
        live_at_milp, relaxations_at_milp = [], []

        class Tracked(lod.CapSession):
            def __init__(self, problem, sched=None):
                super().__init__(problem, sched)
                (relaxations if sched is None else live).add(self)

        def counting_solve(problem, cap=None, start=None):
            live_at_milp.append(len(live))
            relaxations_at_milp.append(len(relaxations))
            return solve(problem, cap, start)

        monkeypatch.setattr(lod, "CapSession", Tracked)
        monkeypatch.setattr(lod, "solve", counting_solve)
        if quadratic:
            monkeypatch.setattr(lod, "schedule_degradation", lambda case, sched, model, soh:
                                1e-10 * sched.bess_throughput_kwh(case) ** 2)
        model = constant_model(0.0 if quadratic else 5e-4)
        cfg = LodConfig() if quadratic else LodConfig(alpha=0.1)
        trace = lod.run_lod(load_example_day(), model, ECON, cfg)
        assert len(live_at_milp) == trace.milp_solves > 2
        assert live_at_milp[0] == relaxations_at_milp[0] == 0  # pass 0
        assert max(live_at_milp) == 0  # each closes before its MILP
        assert max(relaxations_at_milp) <= 1
        assert len(live) == len(relaxations) == 0

    def test_a_lost_commitment_reopens_the_session(self, monkeypatch):
        # A minimum battery power ties throughput to the battery's binaries:
        # as the cap tightens, the last commitment's LP has no point under
        # the cap, and the start-free MILP there opens a new session.
        opened, lp = [], []

        class Recording(lod.CapSession):
            def __init__(self, problem, sched=None):
                super().__init__(problem, sched)
                if sched is not None:  # a commitment's session, not the relaxation
                    opened.append(self)

            def at(self, cap_kwh):
                sched = super().at(cap_kwh)
                lp.append(sched)
                return sched

        case, model, cfg = lost_commitment_case(), constant_model(5e-4), LodConfig(alpha=0.3)
        monkeypatch.setattr(lod, "CapSession", Recording)
        trace = lod.run_lod(case, model, ECON, cfg)
        assert len(opened) > 1
        assert None in lp  # a commitment's LP found no point under the cap
        reference = milp_only(case, model, cfg)
        for got, want in zip(trace.iterations, reference.iterations, strict=True):
            assert got.usage_cap_kwh == pytest.approx(want.usage_cap_kwh, rel=1e-9), got.index
            assert got.operation_cost == pytest.approx(want.operation_cost, rel=1e-9), got.index

    @pytest.mark.xfail(strict=True, reason="the relaxation proves a commitment LP that ties "
                       "the MILP's operation cost, and the walk takes it; breaking that tie "
                       "on degradation is ROADMAP item 8")
    def test_lp_walk_is_no_worse_than_the_milp_walk(self):
        # With a minimum battery power, the start-free MILP at pass 7 picks an
        # equal-cost schedule that cycles less ($300 of degradation against
        # $450); the LP at the same cap keeps the old commitment and is
        # proven optimal, so the walk never sees the other and ends at pass 0.
        base = arbitrage_case()
        case = dataclasses.replace(base, bess=[dataclasses.replace(base.bess[0], p_min=10.0)])
        model, cfg = constant_model(5e-4), LodConfig(alpha=0.1)
        trace = lod.run_lod(case, model, ECON, cfg)
        reference = milp_only(case, model, cfg)
        assert trace.best.total_cost <= reference.best.total_cost + lod.IMPROVEMENT_TOL


class TestBoundProofs:
    """A capped pass whose commitment LP the relaxation proves optimal takes
    that LP's schedule and solves no MILP."""

    @pytest.mark.parametrize("case", [load_example_day(), arbitrage_case(), milp_day_case(),
                                      milp_week_case()],
                             ids=["example_day", "arbitrage", "testbed_day", "week"])
    def test_proofs_change_no_pass(self, case, monkeypatch):
        model, cfg = constant_model(5e-4), LodConfig()
        kept = lod.run_lod(case, model, ECON, cfg)
        reference = milp_only(case, model, cfg)
        monkeypatch.setattr(lod.CapSession, "_kept_bound", lambda self, cap_kwh: -math.inf)
        fresh = lod.run_lod(case, model, ECON, cfg)
        assert kept.bound_proofs > 0
        assert (kept.milp_solves, kept.bound_proofs) == (fresh.milp_solves, fresh.bound_proofs)
        for name in ("usage_cap_kwh", "operation_cost", "degradation"):
            assert [getattr(it, name) for it in kept.iterations] == [
                getattr(it, name) for it in fresh.iterations], name
        for got, want in zip(kept.iterations, reference.iterations, strict=True):
            assert got.usage_cap_kwh == pytest.approx(want.usage_cap_kwh, rel=1e-9), got.index
            assert got.operation_cost == pytest.approx(want.operation_cost, rel=1e-9), got.index
        for trace in (fresh, reference):
            assert (kept.best_index, kept.termination_reason) == (
                trace.best_index, trace.termination_reason)

    @pytest.mark.parametrize("case", [load_example_day(), milp_week_case()],
                             ids=["example_day", "week"])
    def test_kept_bound_is_at_most_a_fresh_one(self, case, monkeypatch):
        # The kept dual's bound holds only as far as HiGHS's duals are
        # feasible; above the fresh bound by more than the gap, it could
        # prove a start that is not optimal. Where it proves, it spares the
        # relaxation's run. Crossed over at their MILP's schedule, commitment
        # LPs mostly prove themselves, and on the example day the relaxation
        # never opens; here none does, so every capped pass goes to it.
        checked, runs = [], []
        kept_bound, bound = lod.CapSession._kept_bound, lod.CapSession.bound

        def recording(self, cap_kwh):
            checked.append((cap_kwh, kept_bound(self, cap_kwh)))
            return checked[-1][1]

        def counting(self, cap_kwh):
            runs.append(cap_kwh)
            return bound(self, cap_kwh)

        monkeypatch.setattr(lod.CapSession, "_kept_bound", recording)
        monkeypatch.setattr(lod.CapSession, "bound", counting)
        monkeypatch.setattr(lod.CapSession, "proves_itself", lambda self: False)
        lod.run_lod(case, constant_model(5e-4), ECON)
        monkeypatch.undo()
        assert 0 < len(runs) < len(checked)
        relaxation = lod.CapSession(build_model(case))
        gap = milp._highs()[1].mip_abs_gap
        for cap_kwh, bound in checked:
            assert bound <= relaxation.bound(cap_kwh) + gap, cap_kwh

    def test_a_gap_falls_back_to_the_started_milp(self, monkeypatch):
        # The relaxation may run the battery below its minimum power, so at
        # one range exit its bound falls short of the LP start's cost.
        checked, solves = [], []

        class Recording(lod.CapSession):
            def at(self, cap_kwh):
                self.last = (cap_kwh, super().at(cap_kwh))
                return self.last[1]

            def proves_itself(self):
                proven = super().proves_itself()
                if proven:  # one that does not prove itself goes on to `proves`
                    checked.append((*self.last, proven))
                return proven

            def proves(self, start, cap_kwh):
                checked.append((cap_kwh, start, super().proves(start, cap_kwh)))
                return checked[-1][-1]

        def recording_solve(problem, cap=None, start=None):
            solves.append((cap, start))
            return solve(problem, cap, start)

        monkeypatch.setattr(lod, "CapSession", Recording)
        monkeypatch.setattr(lod, "solve", recording_solve)
        case, model, cfg = lost_commitment_case(), constant_model(5e-4), LodConfig(alpha=0.3)
        trace = lod.run_lod(case, model, ECON, cfg)
        gaps = [(cap, start) for cap, start, proven in checked if not proven]
        assert len(gaps) == 1 and trace.bound_proofs == len(checked) - 1 > 0
        cap_kwh, start = gaps[0]
        assert any(cap is not None and cap.cap_kwh == cap_kwh and got is start
                   for cap, got in solves)
        assert trace.milp_solves == len(solves)
        reference = milp_only(case, model, cfg)
        for got, want in zip(trace.iterations, reference.iterations, strict=True):
            assert got.usage_cap_kwh == pytest.approx(want.usage_cap_kwh, rel=1e-9), got.index
            assert got.operation_cost == pytest.approx(want.operation_cost, rel=1e-9), got.index
        assert (trace.best_index, trace.termination_reason) == (
            reference.best_index, reference.termination_reason)


class TestOnePath:
    """The single-solve strategies are pass 0 of the LOD loop."""

    def test_traditional_is_the_first_lod_pass(self):
        case, model = load_example_day(), constant_model(5e-4)
        first = lod.run_lod(case, model, ECON).iterations[0]
        trad = lod.run_traditional(case, model, ECON)
        for f in dataclasses.fields(lod.LodIteration):
            if f.name != "schedule":
                assert getattr(first, f.name) == getattr(trad, f.name), f.name
        for f in dataclasses.fields(first.schedule):
            a, b = getattr(first.schedule, f.name), getattr(trad.schedule, f.name)
            assert np.array_equal(a, b), f.name

    def test_zero_max_iterations_runs_pass_0_alone(self):
        trace = lod.run_lod(arbitrage_case(), constant_model(5e-4), ECON,
                            LodConfig(max_iterations=0))
        assert len(trace.iterations) == 1
        assert trace.best_index == 0 and trace.iterations[0].usage_cap_kwh is None


class TestValidation:
    def test_negative_max_iterations_rejected(self):
        with pytest.raises(ValueError, match="max_iterations"):
            LodConfig(max_iterations=-1)

    def test_salvage_above_capital_rejected(self):
        with pytest.raises(ValueError):
            EconParams(capital_cost=100.0, salvage_value=200.0)

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            LodConfig(alpha=0.0)
        with pytest.raises(ValueError):
            LodConfig(alpha=1.0)
