"""Independent brute-force oracle: enumerate binary patterns, LP each one."""

import itertools

import numpy as np
from scipy.optimize import linprog


def brute_force_optimum(problem):
    """Exact optimum by exhaustive enumeration over every discrete choice.

    The choices are enumerated here on their own, including the two that the
    model leaves to the prices and costs: every integer column, every startup
    indicator v_gen as 0 or 1, and one trade direction per interval (the
    other direction's upper bound fixed at 0). Each pattern is fixed through
    the variable bounds and the remaining pure LP is solved; the best finite
    value wins. Patterns that already violate an inequality row touching
    only fixed columns are skipped (those LPs would be infeasible anyway).
    Returns (objective, x) or (None, None) when every pattern is infeasible.
    """
    fixed = np.union1d(np.flatnonzero(problem.is_int), problem.index["v_gen"].ravel())
    buy, sell = problem.index["p_buy"], problem.index["p_sell"]
    n_choices = fixed.size + buy.size
    if n_choices > 20:
        raise ValueError(f"oracle limited to 20 choices, got {n_choices}")

    # Inequality rows touching only fixed columns can pre-filter patterns.
    fixed_only_rows = []
    fixed_mask = np.zeros(problem.n_variables, dtype=bool)
    fixed_mask[fixed] = True
    for row, rhs in zip(problem.a_ub, problem.b_ub):
        nz = np.flatnonzero(row)
        if nz.size and np.all(fixed_mask[nz]):
            fixed_only_rows.append((row[fixed], rhs))

    best_obj, best_x = None, None
    for pattern in itertools.product((0.0, 1.0), repeat=n_choices):
        values, buying = np.array(pattern[: fixed.size]), np.array(pattern[fixed.size :])
        if any(row @ values > rhs + 1e-12 for row, rhs in fixed_only_rows):
            continue
        lb = problem.lb.copy()
        ub = problem.ub.copy()
        lb[fixed] = ub[fixed] = values
        ub[sell[buying == 1]] = 0.0
        ub[buy[buying == 0]] = 0.0
        res = linprog(
            problem.c,
            A_ub=problem.a_ub,
            b_ub=problem.b_ub,
            A_eq=problem.a_eq,
            b_eq=problem.b_eq,
            bounds=np.column_stack([lb, ub]),
            method="highs",
        )
        if res.status == 0 and (best_obj is None or res.fun < best_obj):
            best_obj, best_x = float(res.fun), res.x
    return best_obj, best_x


def random_micro_case(rng):
    """A random feasible scheduling case with at most 12 binaries."""
    from degradesched.milp import Bess, Generator, MicrogridCase

    layout = rng.integers(0, 4)
    if layout == 0:
        T, n_gen, n_bess = 1, 1, 1
    elif layout == 1:
        T, n_gen, n_bess = 2, 1, 1
    elif layout == 2:
        T, n_gen, n_bess = 3, 1, 0
    else:
        T, n_gen, n_bess = 2, 0, 1

    p_grid = float(rng.uniform(150, 400))
    generators = []
    for _ in range(n_gen):
        p_max = float(rng.uniform(50, 200))
        generators.append(
            Generator(
                p_min=float(rng.choice([0.0, 10.0])),
                p_max=p_max,
                ramp=float(rng.uniform(40, 250)),
                cost_energy=float(rng.uniform(0.05, 0.4)),
                cost_no_load=float(rng.uniform(0, 4)),
                cost_startup=float(rng.uniform(0, 15)),
            )
        )
    bess = []
    for _ in range(n_bess):
        e_max = float(rng.uniform(60, 200))
        e_min = 0.1 * e_max
        bess.append(
            Bess(
                e_min=e_min,
                e_max=e_max,
                e_initial=float(rng.uniform(e_min, e_max)),
                p_min=float(rng.choice([0.0, 5.0])),
                p_max=float(rng.uniform(20, 80)),
                eta_charge=0.9,
                eta_discharge=0.9,
            )
        )

    cap_supply = p_grid + sum(g.p_max for g in generators)
    load = rng.uniform(0, 0.7 * cap_supply, size=T)
    wind = rng.uniform(0, 0.3 * p_grid, size=T)
    solar = rng.uniform(0, 0.3 * p_grid, size=T)
    buy = rng.uniform(0.05, 0.5, size=T)
    sell = buy * rng.uniform(0.3, 1.0, size=T)
    return MicrogridCase(
        generators=generators,
        bess=bess,
        p_grid_max=p_grid,
        reserve_fraction=float(rng.choice([0.0, 0.05])),
        dt_hours=1.0,
        load=load,
        wind=wind,
        solar=solar,
        price_buy=buy,
        price_sell=sell,
        temps=np.full(T, 25.0),
    )
