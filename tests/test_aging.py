"""Tests for the synthetic battery-aging oracle."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degradesched import aging
from degradesched.aging import DATASET_COLUMNS, CycleConditions

SOH = DATASET_COLUMNS.index("soh")
DEGRADATION = DATASET_COLUMNS.index("degradation")


def make_cond(soc=0.75, dod=0.5, temp=25.0, c=0.5, soh=1.0):
    return CycleConditions(soc_high=soc, dod=dod, temp_amb=temp, c_rate=c, soh=soh)


class TestInternalTemperature:
    def test_no_current_no_heating(self):
        cond = make_cond(temp=25.0, c=1e-12, dod=0.5)
        assert aging.internal_temperature(cond) == pytest.approx(25.0, abs=1e-9)

    def test_unit_rate(self):
        # 25 + 6*1^2 + 2*1*0.5
        cond = make_cond(temp=25.0, c=1.0, dod=0.5)
        assert aging.internal_temperature(cond) == pytest.approx(32.0)

    def test_hot_fast(self):
        # 40 + 6*4 + 2*2*1
        cond = make_cond(soc=1.0, temp=40.0, c=2.0, dod=1.0)
        assert aging.internal_temperature(cond) == pytest.approx(68.0)


class TestInternalResistance:
    def test_fresh_warm_is_base(self):
        cond = make_cond(soh=1.0)
        assert aging.internal_resistance(cond, it=30.0) == pytest.approx(50.0)

    def test_aged_cell(self):
        # 50 * (1 + 4*0.1) = 70
        cond = make_cond(soh=0.9)
        assert aging.internal_resistance(cond, it=30.0) == pytest.approx(70.0)

    def test_cold_cell(self):
        # 50 * (1 + 0.8*25/25) = 90
        cond = make_cond(temp=-5.0, soh=1.0)
        assert aging.internal_resistance(cond, it=0.0) == pytest.approx(90.0)

    def test_below_ambient_rejected(self):
        cond = make_cond(temp=25.0)
        with pytest.raises(ValueError):
            aging.internal_resistance(cond, it=20.0)


class TestCycleDegradation:
    def test_vanishes_with_dod(self):
        d = aging.cycle_degradation(make_cond(dod=1e-9))
        assert 0.0 < d < 1e-13

    def test_nominal(self):
        # IT = 27 degC, Arrhenius factor exp(4000*(1/298.15 - 1/300.15)) ~ 1.0935
        d = aging.cycle_degradation(make_cond())
        arrhenius = math.exp(4000.0 * (1.0 / 298.15 - 1.0 / 300.15))
        assert d == pytest.approx(2.0e-4 * arrhenius, rel=1e-12)
        assert d == pytest.approx(2.19e-4, rel=2e-3)

    def test_hot(self):
        d = aging.cycle_degradation(make_cond(temp=45.0))
        assert d == pytest.approx(5.03e-4, rel=2e-3)


class TestEquivalentLifeCycles:
    def test_nominal(self):
        assert aging.equivalent_life_cycles(make_cond()) == pytest.approx(914.5, abs=0.5)

    def test_hot(self):
        assert aging.equivalent_life_cycles(make_cond(temp=45.0)) == pytest.approx(
            397.8, abs=0.5
        )

    def test_reciprocal_in_degradation(self):
        # Doubling per-cycle fade (via a hotter cell) halves ELCN.
        cond = make_cond()
        ratio = aging.cycle_degradation(make_cond(temp=45.0)) / aging.cycle_degradation(cond)
        assert aging.equivalent_life_cycles(cond) / aging.equivalent_life_cycles(
            make_cond(temp=45.0)
        ) == pytest.approx(ratio, rel=1e-12)

    def test_ignores_sample_soh(self):
        assert aging.equivalent_life_cycles(make_cond(soh=0.85)) == pytest.approx(
            aging.equivalent_life_cycles(make_cond(soh=1.0)), rel=1e-12
        )


class TestRunAgingTest:
    def test_nominal_length_matches_closed_form(self):
        # Independent oracle: soh follows a linear recurrence with ratio
        # (1 + 1.5*d0), so the first n with soh <= 0.8 is
        # ceil(ln(1.3) / ln(1 + 1.5*d0)) = 800 at nominal conditions.
        cond = make_cond()
        d0 = aging.cycle_degradation(cond)
        n_oracle = math.ceil(math.log(1.3) / math.log1p(1.5 * d0))
        fades = aging.run_aging_test(cond)[:, DEGRADATION]
        assert n_oracle == 800
        assert abs(len(fades) - n_oracle) <= 1  # float accumulation slack
        final_soh = 1.0 - sum(fades)
        assert final_soh <= aging.END_OF_LIFE_SOH
        assert final_soh > aging.END_OF_LIFE_SOH - 2 * fades[-1]

    def test_hot_is_shorter(self):
        n_cool = len(aging.run_aging_test(make_cond(temp=25.0)))
        n_hot = len(aging.run_aging_test(make_cond(temp=45.0)))
        assert n_hot < n_cool

    def test_soh_strictly_decreasing(self):
        sohs = aging.run_aging_test(make_cond(temp=45.0, c=2.0))[:, SOH]
        assert all(b < a for a, b in zip(sohs, sohs[1:]))

    def test_rows_equal_the_per_cycle_oracle(self):
        cond = make_cond(temp=5.0, c=2.0)
        rows = aging.run_aging_test(cond)
        soh = 1.0
        for row in rows:
            cycle = dataclasses.replace(cond, soh=soh)
            it = aging.internal_temperature(cycle)
            expected = (cond.soc_high, cond.dod, cond.temp_amb, cond.c_rate, soh, it,
                        aging.internal_resistance(cycle, it),
                        aging.equivalent_life_cycles(cycle),
                        aging.cycle_degradation(cycle))
            assert tuple(row) == expected
            soh -= row[DEGRADATION]
        assert soh <= aging.END_OF_LIFE_SOH < rows[-1, SOH]

    def test_requires_full_health(self):
        with pytest.raises(ValueError):
            aging.run_aging_test(make_cond(soh=0.9))

    def test_cycle_cap_refuses_an_endless_test(self, monkeypatch):
        # At DOD 1e-6 the fade per cycle is so small that end of life lies
        # far beyond 1,000 cycles.
        monkeypatch.setattr(aging, "MAX_AGING_CYCLES", 1000)
        with pytest.raises(RuntimeError, match="exceeded 1000 cycles"):
            aging.run_aging_test(make_cond(dod=1e-6))


class TestGenerateDataset:
    def test_default_grid_has_35_groups(self):
        grid = aging.default_grid()
        assert len(grid) == 35
        for cond in grid:
            assert cond.dod <= cond.soc_high

    def test_row_count(self):
        ds = aging.generate_dataset(aging.default_grid(), noise_sigma=0.0, seed=7)
        assert len(ds) >= 20_000
        assert ds.meta["row_count"] == len(ds)

    def test_deterministic_regeneration(self):
        grid = aging.default_grid(n_groups=3)
        a = aging.generate_dataset(grid, noise_sigma=0.02, seed=11).to_array()
        b = aging.generate_dataset(grid, noise_sigma=0.02, seed=11).to_array()
        assert a.tobytes() == b.tobytes()

    def test_noise_mean_relative_deviation(self):
        grid = aging.default_grid(n_groups=5)
        clean = aging.generate_dataset(grid, noise_sigma=0.0, seed=3).to_array()
        noisy = aging.generate_dataset(grid, noise_sigma=0.02, seed=3).to_array()
        rel = np.abs(noisy[:, 8] - clean[:, 8]) / clean[:, 8]
        # E|1+eps - 1| = sigma * sqrt(2/pi)
        assert rel.mean() == pytest.approx(0.02 * math.sqrt(2 / math.pi), rel=0.1)
        # features and noise-free outputs identical
        assert np.array_equal(noisy[:, :8], clean[:, :8])

    def test_invalid_grid_entry_named(self):
        with pytest.raises(ValueError, match="entry 1"):
            aging.generate_dataset([make_cond(), "not conditions"], seed=0)

    def test_round_trip_through_array(self):
        ds = aging.generate_dataset(aging.default_grid(n_groups=2), seed=5)
        back = aging.AgingDataset.from_array(ds.to_array(), ds.meta)
        assert np.array_equal(back.to_array(), ds.to_array())


conditions_strategy = st.builds(
    lambda soc, dod_frac, temp, c, soh: CycleConditions(
        soc_high=soc,
        dod=max(1e-6, dod_frac * soc),
        temp_amb=temp,
        c_rate=c,
        soh=soh,
    ),
    soc=st.floats(0.05, 1.0),
    dod_frac=st.floats(0.01, 1.0),
    temp=st.floats(-10.0, 50.0),
    c=st.floats(0.01, 4.0),
    soh=st.floats(0.801, 1.0),
)


class TestStressMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(cond=conditions_strategy, bump=st.floats(0.01, 0.3))
    def test_deeper_cycles_degrade_more(self, cond, bump):
        deeper = min(1.0, cond.dod + bump)
        assume(deeper <= cond.soc_high)
        # The clamp can shrink the step below the drawn minimum, down to an
        # ulp the oracle cannot resolve; only steps of the drawn size count.
        assume(deeper - cond.dod >= 0.01)
        other = CycleConditions(cond.soc_high, deeper, cond.temp_amb, cond.c_rate, cond.soh)
        assert aging.cycle_degradation(other) > aging.cycle_degradation(cond)

    @settings(max_examples=60, deadline=None)
    @given(cond=conditions_strategy, bump=st.floats(0.5, 20.0))
    def test_hotter_cycles_degrade_more(self, cond, bump):
        hotter = min(50.0, cond.temp_amb + bump)
        # The clamp can shrink the step below the drawn minimum, down to an
        # ulp the oracle cannot resolve; only steps of the drawn size count.
        assume(hotter - cond.temp_amb >= 0.5)
        other = CycleConditions(cond.soc_high, cond.dod, hotter, cond.c_rate, cond.soh)
        assert aging.cycle_degradation(other) > aging.cycle_degradation(cond)

    @settings(max_examples=60, deadline=None)
    @given(cond=conditions_strategy, bump=st.floats(0.05, 2.0))
    def test_faster_cycles_degrade_at_least_as_much(self, cond, bump):
        faster = min(4.0, cond.c_rate + bump)
        other = CycleConditions(cond.soc_high, cond.dod, cond.temp_amb, faster, cond.soh)
        assert aging.cycle_degradation(other) >= aging.cycle_degradation(cond)

    @settings(max_examples=60, deadline=None)
    @given(cond=conditions_strategy, drop=st.floats(0.005, 0.15))
    def test_aged_cells_degrade_more(self, cond, drop):
        lower = max(0.801, cond.soh - drop)
        # The clamp can shrink the step below the drawn minimum, down to an
        # ulp the oracle cannot resolve; only steps of the drawn size count.
        assume(cond.soh - lower >= 0.005)
        other = CycleConditions(cond.soc_high, cond.dod, cond.temp_amb, cond.c_rate, lower)
        assert aging.cycle_degradation(other) > aging.cycle_degradation(cond)

    @settings(max_examples=60, deadline=None)
    @given(cond=conditions_strategy)
    def test_internal_state_bounds(self, cond):
        it = aging.internal_temperature(cond)
        assert it >= cond.temp_amb
        if cond.soh == 1.0 and it >= 25.0:
            assert aging.internal_resistance(cond, it) == pytest.approx(50.0)
        assert aging.internal_resistance(cond, it) >= 50.0 * (
            1.0 - 1e-12
        ) if cond.soh == 1.0 else True


class TestValidation:
    def test_dod_above_soc_rejected(self):
        with pytest.raises(ValueError):
            make_cond(soc=0.5, dod=0.6)

    def test_zero_dod_rejected(self):
        with pytest.raises(ValueError):
            make_cond(dod=0.0)

    def test_dead_cell_rejected(self):
        with pytest.raises(ValueError):
            make_cond(soh=0.8)
