"""Bundled synthetic example day for the scheduling demos and tests.

A grid-connected microgrid at residential-neighborhood scale: one diesel
unit, wind, rooftop solar and a 300 kWh battery, with a cheap overnight and
midday-glut price, an evening scarcity spike, and a diurnal temperature
swing. The 24-hour series are shipped as package data.

The day is feasible with an idle battery (a zero throughput cap): the
1,000 kW tie-line plus the 180 kW generator cover the evening peak's net
load of 1,020 kW at hour 19 while keeping the 10% spinning reserve, which
counts only tie-line and generator headroom. The LOD loop relies on this,
since it shrinks the throughput cap toward zero.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from . import storage
from .milp import MicrogridCase


def example_day_case_path() -> Path:
    """Filesystem path of the bundled case document."""
    return Path(resources.files("degradesched").joinpath("data/example_day_case.json"))


def load_example_day() -> MicrogridCase:
    """Parse the bundled example day into a validated case."""
    return storage.read_case(example_day_case_path())
