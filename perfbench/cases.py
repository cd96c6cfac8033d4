"""Seeded scheduling cases for the benchmark, feasible by construction.

Every day perturbs the shape of the 24-interval test case: one 180 kW diesel
unit, wind, rooftop solar and a 300 kWh battery behind a 500 kW tie-line,
with a cheap night, an evening price spike and a diurnal temperature swing.
A day is drawn from `numpy.random.default_rng([seed, index])`, so the same
seed and index always give the same case, whatever else was drawn before.

Feasibility with an idle battery is enforced hour by hour on the net load
(load - wind - solar):

* net <= p_grid_max + sum(p_max) - reserve_fraction * load, which is the
  reserve row in its present form and in the form `p_max * u - p_gen`
  (a committed unit at zero output still offers its full headroom);
* net - p_grid_max <= ramp * dt, so the unit can cover any shortfall the
  tie-line leaves from a standing start and follow it hour to hour;
* net >= -p_grid_max, so any renewable surplus can be exported.

`infeasibility(case)` re-checks these conditions; it is empty for every
case this module makes.
"""

from __future__ import annotations

import numpy as np

from degradesched.milp import Bess, Generator, MicrogridCase

HOURS = 24
DAYS_PER_WEEK = 7

GENERATOR = Generator(
    p_min=0.0, p_max=180.0, ramp=90.0, cost_energy=0.30,
    cost_no_load=1.5, cost_startup=20.0, initially_on=False,
)
BATTERY = Bess(
    e_min=30.0, e_max=300.0, e_initial=150.0, p_min=0.0, p_max=150.0,
    eta_charge=0.9, eta_discharge=0.9,
)
P_GRID_MAX = 500.0
RESERVE_FRACTION = 0.10
DT_HOURS = 1.0

# Net load stays this far (kW) inside each feasibility limit.
MARGIN_KW = 10.0

# Day archetypes cycled by day index, so every run of n days holds the same
# mix of weather and tariff; the seed perturbs each day inside its archetype.
# Variety comes mostly from the archetypes, which keeps the median latency
# of a run from depending much on its seed.
# (load peak kW, mean wind kW, solar peak kW, evening price peak $/kWh,
#  mean temperature degC)
ARCHETYPES = (
    (300.0, 150.0, 500.0, 0.25, 20.0),   # the test-case day
    (350.0, 60.0, 450.0, 0.30, 30.0),    # hot, sunny, still
    (250.0, 250.0, 150.0, 0.20, 8.0),    # cold, windy, overcast
    (320.0, 120.0, 300.0, 0.35, 15.0),   # sharp evening spike
    (280.0, 200.0, 550.0, 0.15, 25.0),   # renewable glut, flat tariff
    (380.0, 90.0, 350.0, 0.28, 33.0),    # heat wave, hazy sun
    (220.0, 180.0, 250.0, 0.22, 12.0),   # mild and breezy
    (300.0, 40.0, 100.0, 0.40, 5.0),     # cold, still, overcast, scarce
    (260.0, 300.0, 400.0, 0.18, 18.0),   # windy and sunny
    (340.0, 110.0, 480.0, 0.32, 26.0),   # summer weekday
)


def _limits(load: np.ndarray) -> tuple[np.ndarray, float]:
    upper = np.minimum(
        P_GRID_MAX + GENERATOR.p_max - RESERVE_FRACTION * load,
        P_GRID_MAX + GENERATOR.ramp * DT_HOURS,
    )
    return upper - MARGIN_KW, -P_GRID_MAX + MARGIN_KW


def day_series(seed: int, index: int) -> dict[str, np.ndarray]:
    """Hourly load, wind, solar, prices and temperature of one seeded day."""
    rng = np.random.default_rng([seed, index])
    peak, wind_mean, solar_peak, price_peak, temp_mean = ARCHETYPES[index % len(ARCHETYPES)]
    hours = np.arange(HOURS)
    daylight = np.sin((hours - 6) * np.pi / 12).clip(0)

    load = (600.0 + peak * rng.uniform(0.9, 1.1) * daylight
            + rng.normal(0.0, 10.0, HOURS)).clip(0.0)
    wind = (wind_mean * rng.uniform(0.85, 1.15)
            * np.exp(np.cumsum(rng.normal(0.0, 0.06, HOURS)))).clip(0.0)
    solar = solar_peak * rng.uniform(0.85, 1.05) * daylight * rng.uniform(0.85, 1.0, HOURS)
    spike_hour = 18.0 + rng.uniform(-0.75, 0.75)
    price_buy = (0.05 * rng.uniform(0.9, 1.1)
                 + price_peak * rng.uniform(0.9, 1.1)
                 * np.exp(-((hours - spike_hour) ** 2) / 8.0)
                 + rng.uniform(0.0, 0.005, HOURS))
    temps = temp_mean + 8.0 * np.sin((hours - 9) * np.pi / 12) + rng.normal(0.0, 0.5, HOURS)

    # Shed load where the net load would leave the feasible band; the reserve
    # term depends on load, so solve (1 + r) * load <= limit + wind + solar.
    upper, lower = _limits(load)
    net = load - wind - solar
    over = net > upper
    if over.any():
        cap_reserve = (P_GRID_MAX + GENERATOR.p_max - MARGIN_KW + wind + solar) / (1.0 + RESERVE_FRACTION)
        cap_ramp = P_GRID_MAX + GENERATOR.ramp * DT_HOURS - MARGIN_KW + wind + solar
        load = np.where(over, np.minimum(np.minimum(cap_reserve, cap_ramp), load), load)
    # Curtail renewables where the surplus would exceed the export limit.
    surplus = lower - (load - wind - solar)
    solar = np.where(surplus > 0, (solar - surplus).clip(0.0), solar)
    surplus = lower - (load - wind - solar)
    wind = np.where(surplus > 0, (wind - surplus).clip(0.0), wind)

    return {
        "load": load,
        "wind": wind,
        "solar": solar,
        "price_buy": price_buy,
        "price_sell": 0.8 * price_buy,
        "temps": temps,
    }


def _case(series: dict[str, np.ndarray]) -> MicrogridCase:
    return MicrogridCase(
        generators=[GENERATOR],
        bess=[BATTERY],
        p_grid_max=P_GRID_MAX,
        reserve_fraction=RESERVE_FRACTION,
        dt_hours=DT_HOURS,
        **series,
    )


def day_case(seed: int, index: int) -> MicrogridCase:
    """One seeded 24-interval case."""
    return _case(day_series(seed, index))


def week_case(seed: int, index: int) -> MicrogridCase:
    """Seven seeded days back to back: a 168-interval case.

    Built in memory only: case files are pinned to 24 intervals.
    """
    days = [day_series(seed, DAYS_PER_WEEK * index + d) for d in range(DAYS_PER_WEEK)]
    return _case({k: np.concatenate([day[k] for day in days]) for k in days[0]})


def infeasibility(case: MicrogridCase) -> list[str]:
    """Hours at which an idle battery could not keep the case feasible."""
    upper, lower = _limits(case.load)
    net = case.load - case.wind - case.solar
    bad = []
    for t in np.nonzero((net > upper + MARGIN_KW) | (net < lower - MARGIN_KW))[0]:
        bad.append(f"hour {t}: net load {net[t]:.3f} kW outside [{lower - MARGIN_KW:.3f}, "
                   f"{upper[t] + MARGIN_KW:.3f}]")
    return bad
