"""Battery-degradation-aware microgrid look-ahead scheduling.

Synthetic aging data, a hierarchical two-stage neural degradation
quantifier, an exact scheduling MILP over a horizon of any length, and the
iterative loop that ties them together.

Importing the package does not load scipy: the MILP layer imports it on the
first model build, so commands that never solve start without it.
"""

__version__ = "0.1.0"

from .aging import (
    AgingDataset,
    CycleConditions,
    cycle_degradation,
    default_grid,
    equivalent_life_cycles,
    generate_dataset,
    internal_resistance,
    internal_temperature,
    run_aging_test,
)
from .lod import (
    EconParams,
    LodConfig,
    LodIteration,
    LodTrace,
    degradation_cost,
    run_linear_bdc,
    run_lod,
    run_traditional,
)
from .milp import (
    Bess,
    DispatchSchedule,
    Generator,
    InfeasibleCaseError,
    MicrogridCase,
    UsageCap,
    build_model,
    operation_cost,
    solve,
    validate_schedule,
)
from .net import (
    NetworkSpec,
    Normalizer,
    TrainConfig,
    TrainedNetwork,
    accuracy_at_tolerance,
    forward,
    mse,
    train,
)
from .quantifier import (
    BDP_VARIANTS,
    UBDF_VARIANTS,
    DegradationModel,
    cbup,
    predict_degradation,
    select_best_combination,
    train_benchmarks,
    train_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]
