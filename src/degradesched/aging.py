"""Synthetic battery-aging oracle and cycling-test dataset generator.

Closed-form stress-factor model of per-cycle capacity fade. One (dis)charge
cycle is described by its stress conditions (top-of-cycle SOC, depth of
discharge, ambient temperature, C rate, state of health); the oracle returns
the cell's internal temperature, internal resistance, equivalent life cycle
count and the SOH fraction lost in that cycle. Repeated cycling from full
health down to the end-of-life threshold produces labelled aging-test data.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Real

import numpy as np

# End of life: cell capacity at 80% of rated capacity.
END_OF_LIFE_SOH = 0.8

# Internal temperature rise (deg C): Joule-heating proxy, quadratic in C rate.
HEAT_C_RATE_COEFF = 6.0
HEAT_C_RATE_DOD_COEFF = 2.0

# Internal resistance (milliohm): fresh-cell base, aging gain, cold-cell gain.
BASE_RESISTANCE_MOHM = 50.0
RESISTANCE_AGING_GAIN = 4.0
RESISTANCE_COLD_GAIN = 0.8
RESISTANCE_COLD_KNEE_C = 25.0

# Per-cycle degradation: reference fade at the reference cycle
# (DOD 0.5, mid-SOC 0.5, 25 degC internal, C rate <= 0.5, fresh cell).
REF_DEGRADATION = 2.0e-4
REF_DOD = 0.5
DOD_EXPONENT = 1.3
SOC_STRESS_SLOPE = 0.5
ARRHENIUS_RATE_K = 4000.0
REF_TEMP_K = 298.15
C_RATE_KNEE = 0.5
C_RATE_SLOPE = 0.3
AGING_ACCELERATION = 1.5

# Cycles after which an aging test that has not reached end of life is refused.
MAX_AGING_CYCLES = 2_000_000

# Column order used by every tabular view of an AgingDataset.
DATASET_COLUMNS = (
    "soc",
    "dod",
    "temp",
    "c_rate",
    "soh",
    "it",
    "ir",
    "elcn",
    "degradation",
)


@dataclass(frozen=True)
class CycleConditions:
    """Stress conditions of one battery (dis)charge cycle.

    Attributes
    ----------
    soc_high : SOC at the top of the cycle, fraction in [0, 1].
    dod : depth of discharge per cycle, fraction in (0, soc_high].
    temp_amb : ambient temperature in degrees Celsius, within [-10, 50].
    c_rate : (dis)charge rate in 1/h, within (0, 4].
    soh : state of health, fraction in (0.8, 1.0].
    """

    soc_high: float
    dod: float
    temp_amb: float
    c_rate: float
    soh: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{f.name} must be a number: {value!r}")
        if not 0.0 < self.dod <= self.soc_high <= 1.0:
            raise ValueError(
                f"require 0 < dod <= soc_high <= 1, got dod={self.dod}, "
                f"soc_high={self.soc_high}"
            )
        if not -10.0 <= self.temp_amb <= 50.0:
            raise ValueError(f"temp_amb out of [-10, 50] degC: {self.temp_amb}")
        if not 0.0 < self.c_rate <= 4.0:
            raise ValueError(f"c_rate out of (0, 4] 1/h: {self.c_rate}")
        if not END_OF_LIFE_SOH < self.soh <= 1.0:
            raise ValueError(f"soh out of ({END_OF_LIFE_SOH}, 1.0]: {self.soh}")


@dataclass
class AgingDataset:
    """Samples from a batch of aging tests plus generation metadata.

    `data` holds one row per recorded cycle as an (n, 9) float array in
    DATASET_COLUMNS order: the five stress conditions, then the oracle's
    internal temperature, internal resistance, ELCN and degradation.
    """

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.data)

    def to_array(self) -> np.ndarray:
        """Return a copy of the (n, 9) sample array."""
        return self.data.copy()

    @staticmethod
    def from_array(data: np.ndarray, meta: dict | None = None) -> "AgingDataset":
        """Build a dataset from a copy of an (n, 9) array in DATASET_COLUMNS order."""
        data = np.array(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(DATASET_COLUMNS):
            raise ValueError(f"expected (n, 9) array, got shape {data.shape}")
        return AgingDataset(data=data, meta=dict(meta or {}))


def internal_temperature(cond: CycleConditions) -> float:
    """Internal cell temperature (degC) during the cycle."""
    return (
        cond.temp_amb
        + HEAT_C_RATE_COEFF * cond.c_rate**2
        + HEAT_C_RATE_DOD_COEFF * cond.c_rate * cond.dod
    )


def internal_resistance(cond: CycleConditions, it: float) -> float:
    """Internal resistance (milliohm) given internal temperature.

    Rises with lost health and with cold internal temperature.
    """
    if it < cond.temp_amb:
        raise ValueError(
            f"internal temperature {it} below ambient {cond.temp_amb}"
        )
    return _resistance(cond.soh, it)


def _resistance(soh, it: float):
    """internal_resistance for a health value or an array of them."""
    aging = 1.0 + RESISTANCE_AGING_GAIN * (1.0 - soh)
    cold = 1.0 + RESISTANCE_COLD_GAIN * max(
        0.0, RESISTANCE_COLD_KNEE_C - it
    ) / RESISTANCE_COLD_KNEE_C
    return BASE_RESISTANCE_MOHM * aging * cold


def cycle_degradation(cond: CycleConditions) -> float:
    """Absolute SOH fraction lost in one cycle at the given conditions.

    Multiplicative stress factors: a DOD power law, a linear mid-SOC stress
    term, Arrhenius temperature acceleration on the internal temperature,
    a C-rate surcharge above C_RATE_KNEE, and aging acceleration as health
    is lost.
    """
    return _fresh_degradation(cond) * _aging_factor(cond.soh)


def _fresh_degradation(cond: CycleConditions) -> float:
    """Every stress factor of cycle_degradation but the aging one.

    Multiplying by _aging_factor last keeps cycle_degradation's left-to-right
    product, so the split changes no bit of it.
    """
    it_kelvin = internal_temperature(cond) + 273.15
    soc_avg = cond.soc_high - cond.dod / 2.0
    return (
        REF_DEGRADATION
        * (cond.dod / REF_DOD) ** DOD_EXPONENT
        * (1.0 + SOC_STRESS_SLOPE * (soc_avg - 0.5))
        * math.exp(ARRHENIUS_RATE_K * (1.0 / REF_TEMP_K - 1.0 / it_kelvin))
        * (1.0 + C_RATE_SLOPE * max(0.0, cond.c_rate - C_RATE_KNEE))
    )


def _aging_factor(soh: float) -> float:
    return 1.0 + AGING_ACCELERATION * (1.0 - soh)


def equivalent_life_cycles(cond: CycleConditions) -> float:
    """Cycles until SOH reaches the end-of-life threshold at these conditions.

    Defined from full health (soh = 1) at a constant per-cycle fade, so the
    value is a pure function of the stress conditions regardless of the
    sample's current soh.
    """
    fresh = replace(cond, soh=1.0)
    return (1.0 - END_OF_LIFE_SOH) / cycle_degradation(fresh)


def run_aging_test(initial: CycleConditions) -> np.ndarray:
    """Cycle a fresh cell at fixed conditions until end of life.

    Starts at soh = 1.0 and repeatedly applies cycle_degradation, decrementing
    soh by each cycle's fade, and stops once soh falls to END_OF_LIFE_SOH or
    below. SOC, DOD, temperature and C rate are held fixed for the whole
    test. Returns one row per cycle, an (m, 9) array in DATASET_COLUMNS order;
    a test still above end of life after MAX_AGING_CYCLES raises RuntimeError.
    """
    if initial.soh != 1.0:
        raise ValueError(f"aging tests start from full health, got soh={initial.soh}")
    fresh = _fresh_degradation(initial)
    if fresh <= 0.0:
        # The aging factor is at least 1; without a positive fresh fade soh never falls.
        raise RuntimeError(f"non-positive degradation {fresh} at cycle 0")
    sohs: list[float] = []
    fades: list[float] = []
    soh = 1.0
    while soh > END_OF_LIFE_SOH:
        if len(fades) >= MAX_AGING_CYCLES:
            raise RuntimeError(
                f"aging test exceeded {MAX_AGING_CYCLES} cycles without reaching end of life"
            )
        d = fresh * _aging_factor(soh)
        sohs.append(soh)
        fades.append(d)
        soh -= d
    it = internal_temperature(initial)
    out = np.empty((len(fades), len(DATASET_COLUMNS)))
    out[:, :4] = (initial.soc_high, initial.dod, initial.temp_amb, initial.c_rate)
    out[:, 4] = sohs
    out[:, 5] = it
    out[:, 6] = _resistance(out[:, 4], it)
    out[:, 7] = equivalent_life_cycles(initial)
    out[:, 8] = fades
    return out


def default_grid(n_groups: int = 35) -> list[CycleConditions]:
    """Default aging-test grid: 35 stress-condition groups.

    Cross product of soc_high in {0.6, 0.8, 1.0}, dod in {0.2, 0.5, 0.8}
    (clipped to soc_high), temperature in {5, 25, 45} degC and C rate in
    {0.5, 1, 2} 1/h, in that loop order, trimmed to the first n_groups
    combinations. The default 35 are the 27 groups at soc_high 0.6 (dod 0.2,
    0.5 and 0.6 after clipping) and 8 at soc_high 0.8, all with dod 0.2,
    where 45 degC appears only at C rates 0.5 and 1; soc_high 1.0 never
    appears.
    """
    grid = []
    for soc in (0.6, 0.8, 1.0):
        for dod in (0.2, 0.5, 0.8):
            for temp in (5.0, 25.0, 45.0):
                for c_rate in (0.5, 1.0, 2.0):
                    grid.append(
                        CycleConditions(
                            soc_high=soc,
                            dod=min(dod, soc),
                            temp_amb=temp,
                            c_rate=c_rate,
                        )
                    )
    return grid[:n_groups]


def generate_dataset(
    grid: list[CycleConditions],
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> AgingDataset:
    """Run one aging test per grid entry and concatenate the samples.

    With noise_sigma > 0, each recorded degradation is multiplied by
    (1 + eps), eps ~ Normal(0, noise_sigma), drawn from a per-test generator
    seeded by (seed, grid index); internal temperature, resistance and ELCN
    stay noise-free. Regeneration with the same grid, sigma and seed is
    bit-identical.
    """
    if not grid:
        raise ValueError("grid must contain at least one entry")
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be a finite number >= 0, got {noise_sigma}")
    for i, cond in enumerate(grid):
        if not isinstance(cond, CycleConditions):
            raise ValueError(f"grid entry {i} is not a CycleConditions: {cond!r}")
        if cond.soh != 1.0:
            raise ValueError(f"grid entry {i} must start at soh=1.0, got {cond.soh}")

    tests = []
    for i, cond in enumerate(grid):
        test = run_aging_test(cond)
        if noise_sigma > 0:
            rng = np.random.default_rng([seed, i])
            eps = rng.normal(0.0, noise_sigma, size=len(test))
            test[:, -1] = np.maximum(0.0, test[:, -1] * (1.0 + eps))
        tests.append(test)
    data = np.concatenate(tests)

    meta = {
        "grid": [{k: v for k, v in asdict(c).items() if k != "soh"} for c in grid],
        "noise_sigma": noise_sigma,
        "seed": seed,
        "row_count": len(data),
    }
    return AgingDataset(data=data, meta=meta)
