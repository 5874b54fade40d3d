"""Both solvers against exhaustive search on adversarial tiny instances.

hypothesis draws valid instances from the corners that seeded corpora rarely
reach: zero capacity, an empty fleet, zones covered by a single station or
around an odd cycle, zero demand, and transfers far dearer than holding.
The draws are derandomized, so every run checks the same instances.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ambuplan import (
    Instance,
    SolveStatus,
    brute_force_allocation,
    brute_force_transfer,
    evaluate_allocation,
    evaluate_transfer,
    solve_allocation,
    solve_transfer,
)
from ambuplan.core import big_m_bound

MODELS = [(solve_allocation, brute_force_allocation, evaluate_allocation),
          (solve_transfer, brute_force_transfer, evaluate_transfer)]


def grid(rows: int, cols: int, hi: int):
    row = st.lists(st.integers(0, hi), min_size=cols, max_size=cols)
    return st.lists(row, min_size=rows, max_size=rows).map(np.array)


@st.composite
def instances(draw) -> Instance:
    shape = draw(st.sampled_from(["any", "single", "odd_cycle"]))
    if shape == "odd_cycle":
        # station j covers zones j and j + 1 around a triangle
        jn = zn = 3
        coverage = np.eye(3, dtype=int) + np.roll(np.eye(3, dtype=int), 1, axis=1)
    else:
        jn, zn = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        if shape == "single":
            coverage = np.zeros((jn, zn), dtype=int)
            owners = draw(st.lists(st.integers(0, jn - 1), min_size=zn, max_size=zn))
            coverage[owners, np.arange(zn)] = 1
        else:
            coverage = draw(grid(jn, zn, 1))
    tn = draw(st.integers(1, 2))
    hold = draw(grid(jn, tn, 3))
    dispatch = draw(grid(jn, tn, 3))
    fleet = draw(st.integers(0, 4))
    transfer_cost = draw(st.sampled_from([0, 1, 2, 50]))
    big_m = big_m_bound(hold, dispatch, transfer_cost, fleet, tn) + draw(st.integers(1, 9))
    # each grid below draws its own largest entry, which may be 0: zero
    # capacity, zero demand
    return Instance(num_stations=jn, num_zones=zn, num_slots=tn, fleet_size=fleet,
                    coverage=coverage,
                    capacity=draw(grid(jn, tn, draw(st.integers(0, 2)))),
                    hold_cost=hold, dispatch_cost=dispatch,
                    demand=draw(grid(zn, tn, draw(st.integers(0, 2)))),
                    big_m=big_m, transfer_cost=transfer_cost)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(instances())
# an empty fleet admits a big_m below every dispatch rate, so the transfer
# search's completion bound may charge a call no more than big_m
@example(Instance(num_stations=1, num_zones=1, num_slots=2, fleet_size=0,
                  coverage=[[1]], capacity=[[0, 0]], hold_cost=[[0, 0]],
                  dispatch_cost=[[0, 2]], demand=[[0, 1]], big_m=1))
def test_solvers_match_brute_force(inst):
    for solve, search, evaluate in MODELS:
        mine, ref = solve(inst), search(inst)
        assert mine.status is ref.status, solve.__name__
        assert mine.objective == ref.objective, solve.__name__
        if mine.status is SolveStatus.OPTIMAL:
            assert evaluate(inst, mine.plan) == (mine.objective, []), solve.__name__
