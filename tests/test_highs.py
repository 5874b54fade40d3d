"""Benchmark-scale answers against HiGHS (scipy.optimize.milp).

HiGHS shares no code with the built-in engine. Both solve the same program
from ``build_*_program``, so equal integer optima on presets 1-3, and on
preset 4 for each model, check the crash, the simplex and the branch and
bound at a scale that brute force cannot reach. ``solve_allocation`` solves
one program per slot, so its answers also check that split against the one
program over every slot.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from ambuplan import (
    SolveStatus,
    build_allocation_program,
    build_transfer_program,
    generate,
    preset,
    solve_allocation,
    solve_transfer,
)

MODELS = {
    "allocation": (build_allocation_program, solve_allocation),
    "transfer": (build_transfer_program, solve_transfer),
}


def highs(lp):
    """scipy's milp on ``lp`` at a zero relative gap."""
    lo = np.where(lp.sense <= 0, lp.rhs, -np.inf)  # >= and = rows
    hi = np.where(lp.sense >= 0, lp.rhs, np.inf)   # <= and = rows
    return milp(lp.objective, integrality=lp.integrality.astype(int),
                bounds=Bounds(lp.lower, lp.upper),
                constraints=[LinearConstraint(lp.A, lo, hi)],
                options={"mip_rel_gap": 0})


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("level", [1, 2, 3])
def test_matches_highs(model, level):
    build, solve = MODELS[model]
    for seed in range(3):
        inst = generate(preset(level), seed)
        lp, _ = build(inst)
        ref = highs(lp)
        outcome = solve(inst)
        label = f"preset {level} seed {seed}"
        assert ref.status == 0, label
        assert outcome.status is SolveStatus.OPTIMAL, label
        assert outcome.objective == round(ref.fun), label


def test_allocation_slots_match_highs_on_the_whole_day():
    # solve_allocation solves slot by slot; HiGHS gets the one program over
    # all 12 slots, so this checks the decomposition at scale
    inst = generate(preset(4), 0)
    lp, _ = build_allocation_program(inst)
    ref = highs(lp)
    outcome = solve_allocation(inst)
    assert ref.status == 0
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == round(ref.fun)
    # inventory is rebuilt from the slot plans, not solved for
    plan = outcome.plan
    np.testing.assert_array_equal(plan.inventory,
                                  np.cumsum(plan.alloc - plan.dispatch, axis=1))


def test_transfer_matches_highs_on_twelve_slots():
    # the largest transfer program in Tier-1: about 2,000 pivots through the
    # sparse eta file, the ratio test and the maintained pricing direction
    inst = generate(preset(4), 0)
    lp, _ = build_transfer_program(inst)
    ref = highs(lp)
    outcome = solve_transfer(inst)
    assert ref.status == 0
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == round(ref.fun)
