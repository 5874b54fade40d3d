"""Benchmark-scale answers against HiGHS (scipy.optimize.milp).

HiGHS shares no code with the built-in engine, so equal integer optima on
presets 1-3, and on preset 4 for each model, check the crash, the simplex
and the branch and bound at a scale that brute force cannot reach.
``solve_allocation`` solves one program per slot, and HiGHS gets the one
program over every slot, so its answers also check that split. For the
transfer model HiGHS solves ``explicit_transfer_program``, the model with
its moves as columns, so its answers also check the derived moves and the
fleet column of ``build_transfer_program``.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from ambuplan import (
    Instance,
    SolveStatus,
    build_allocation_program,
    generate,
    preset,
    solve_allocation,
    solve_transfer,
)
from ambuplan.engine import LinearProgram, LinearRow
from ambuplan.transfer import TransferIndex


def explicit_transfer_program(inst: Instance) -> LinearProgram:
    """The transfer model with every move a column, as a reference.

    The fleet is positioned once, in the first slot. A transfer-out column
    joins each transfer-in column, and three row families tie them to the
    stock: stock evolves only through moves, a station sends no more than it
    held, and every arrival left somewhere. Columns: the stock, serve,
    transfer-in and shortage blocks of ``TransferIndex``, then the
    transfer-out block where the fleet column would be.
    """
    jn, zn, tn = inst.num_stations, inst.num_zones, inst.num_slots
    ix = TransferIndex.for_instance(inst)
    n = ix.fleet + jn * (tn - 1)

    def tout(j, t):
        return ix.fleet + j * (tn - 1) + t - 1

    obj, upper = np.zeros(n), np.full(n, np.inf)
    for j in range(jn):
        for t in range(tn):
            obj[ix.stock(j, t)] = inst.hold_cost[j, t]
            upper[ix.stock(j, t)] = inst.capacity[j, t]
            if t > 0:
                obj[ix.transfer_in(j, t)] = inst.transfer_cost
    for (j, i) in ix.pairs:
        obj[ix.serve(j, i, 0):ix.serve(j, i, tn - 1) + 1] = inst.dispatch_cost[j]
    obj[ix.shortage(0, 0):ix.fleet] = inst.big_m
    moves = [(j, t) for j in range(jn) for t in range(1, tn)]
    rows = [LinearRow([(ix.stock(j, 0), 1.0) for j in range(jn)], "<=",
                      inst.fleet_size)]
    rows += [LinearRow([(ix.stock(j, t), 1.0), (ix.stock(j, t - 1), -1.0),
                        (ix.transfer_in(j, t), -1.0), (tout(j, t), 1.0)], "=", 0)
             for j, t in moves]
    rows += [LinearRow([(tout(j, t), 1.0), (ix.stock(j, t - 1), -1.0)], "<=", 0)
             for j, t in moves]
    rows += [LinearRow([(ix.transfer_in(j, t), 1.0) for j in range(jn)]
                       + [(tout(j, t), -1.0) for j in range(jn)], "=", 0)
             for t in range(1, tn)]
    rows += [LinearRow([(ix.serve(j, i, t), 1.0) for i in range(zn)
                        if inst.coverage[j, i]] + [(ix.stock(j, t), -1.0)], "<=", 0)
             for j in range(jn) for t in range(tn)]
    rows += [LinearRow([(ix.serve(j, i, t), 1.0) for j in range(jn)
                        if inst.coverage[j, i]] + [(ix.shortage(i, t), 1.0)], "=",
                       inst.demand[i, t])
             for i in range(zn) for t in range(tn)]
    return LinearProgram.from_rows(n, obj, np.zeros(n), upper, np.ones(n), rows)


MODELS = {
    "allocation": (lambda inst: build_allocation_program(inst)[0], solve_allocation),
    "transfer": (explicit_transfer_program, solve_transfer),
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
        ref = highs(build(inst))
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
    # the largest transfer program in Tier-1: about 1,900 pivots through the
    # sparse eta file, the ratio test and the maintained pricing direction
    inst = generate(preset(4), 0)
    ref = highs(explicit_transfer_program(inst))
    outcome = solve_transfer(inst)
    assert ref.status == 0
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == round(ref.fun)
