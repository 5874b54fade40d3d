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

import dataclasses

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
    tiny_params,
)
from ambuplan.core import at_minimal_penalty
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


@pytest.mark.parametrize("capacity", [10**9, 10**10])
def test_huge_capacities_match_highs(capacity):
    # every station holds `capacity` in every slot and the fleet fills them
    # all, at the smallest big_m validate_instance accepts: right-hand sides
    # near 10**10 next to demands of 1 or 2, so a start's feasibility must
    # be judged row by row
    for seed in range(60):
        base = generate(tiny_params(seed), seed)
        inst = at_minimal_penalty(dataclasses.replace(
            base, capacity=np.full_like(base.capacity, capacity),
            fleet_size=base.num_stations * capacity))
        for model in sorted(MODELS):
            build, solve = MODELS[model]
            ref = highs(build(inst))
            outcome = solve(inst)
            label = f"{model} seed {seed}"
            assert ref.status in (0, 2), label
            if ref.status == 2:  # a zone that no station covers
                assert outcome.status is SolveStatus.INFEASIBLE, label
            else:
                assert outcome.status is SolveStatus.OPTIMAL, label
                assert outcome.objective == round(ref.fun), label


def test_triangle_covers_branch_and_agree_with_highs():
    # four disjoint triangles: station 3m+v covers zones 3m+v and
    # 3m+(v+1)%3, and station 12 covers nothing but holds for free, so it can
    # soak up fleet; the relaxation covers each triangle with half vehicles,
    # and only branching finds the two whole ones each triangle needs
    coverage = np.zeros((13, 12), dtype=int)
    hold = np.zeros((13, 1), dtype=int)
    for m in range(4):
        for v in range(3):
            coverage[3 * m + v, [3 * m + v, 3 * m + (v + 1) % 3]] = 1
            hold[3 * m + v] = 5 + (m + v) % 4
    inst = at_minimal_penalty(Instance(
        num_stations=13, num_zones=12, num_slots=1, fleet_size=8,
        coverage=coverage, capacity=np.full((13, 1), 2), hold_cost=hold,
        dispatch_cost=np.zeros((13, 1), dtype=int), demand=np.ones((12, 1), dtype=int),
        big_m=1))
    ref = highs(build_allocation_program(inst)[0])
    outcome = solve_allocation(inst)
    assert ref.status == 0
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == round(ref.fun) == 307
    assert outcome.nodes > 1
    # stopped early, the search still brackets the optimum
    root = solve_allocation(inst, node_limit=1)
    assert root.status is SolveStatus.NODE_LIMIT and root.plan is None
    assert root.best_bound <= 307
    early = solve_allocation(inst, node_limit=5)
    assert early.status is SolveStatus.NODE_LIMIT and early.plan is not None
    assert early.best_bound <= 307 <= early.objective
