"""Benchmark-scale answers against HiGHS (scipy.optimize.milp).

HiGHS shares no code with the built-in engine, so equal integer optima on
presets 1-3, and on preset 4 for each model, check the crash, the simplex
and the branch and bound at a scale that brute force cannot reach.
``solve_allocation`` solves one program per slot, and HiGHS gets the one
program over every slot, without the dispatch and shortage bounds that the
rows imply (``loose_allocation_program``), so its answers also check that
split and that those bounds cut off no plan. For the
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
    evaluate_allocation,
    evaluate_transfer,
    generate,
    preset,
    solve_allocation,
    solve_transfer,
    tiny_params,
    validate_instance,
)
from ambuplan.core import at_minimal_penalty, big_m_bound
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


def loose_allocation_program(inst: Instance) -> LinearProgram:
    """The allocation program with its dispatch and shortage columns
    unbounded above, as a reference: ``dispatch <= alloc <= capacity`` and
    each slot's total row imply the bounds that ``build_allocation_program``
    gives them."""
    lp, ix = build_allocation_program(inst)
    j, t = np.divmod(np.arange(inst.num_stations * inst.num_slots), inst.num_slots)
    upper = lp.upper.copy()
    upper[ix.dispatch(j, t)] = np.inf
    upper[ix.shortage(np.arange(inst.num_slots))] = np.inf
    return LinearProgram(lp.num_vars, lp.objective, lp.lower, upper,
                         lp.integrality, lp.A, lp.sense, lp.rhs)


MODELS = {
    "allocation": (loose_allocation_program, solve_allocation),
    "transfer": (explicit_transfer_program, solve_transfer),
}
EVALUATORS = {"allocation": evaluate_allocation, "transfer": evaluate_transfer}


def random_instance(seed: int) -> Instance:
    """A valid instance drawn far wider than the generator's families.

    2-8 stations, 3-20 zones and 1-6 slots. Coverage has density 0.15, 0.3,
    0.6 or 1.0, so some zones may have no station. Hold and dispatch costs
    come from [0, 3], [0, 10], [0, 1000] or [0, 10**6], and in 30% of draws
    each is one value for every station and slot. Capacities and demands
    come from [0, 2], [0, 5] or [0, 30]. Half the demands are zeroed in 30%
    of draws, and in half the draws each station-slot capacity is zeroed
    with probability 0.3, so a station's columns are fixed in some slots and
    free in others. The fleet is drawn up to the usable fleet + 2, the
    transfer cost from {0, 1, max cost, 10 * max cost}, and ``big_m`` from
    the smallest valid value + 0..4.
    """
    rng = np.random.default_rng(seed)
    jn, zn, tn = int(rng.integers(2, 9)), int(rng.integers(3, 21)), int(rng.integers(1, 7))
    coverage = (rng.random((jn, zn)) < rng.choice([0.15, 0.3, 0.6, 1.0])).astype(int)
    top = int(rng.choice([3, 10, 1000, 10**6]))
    if rng.random() < 0.3:
        hold = np.full((jn, tn), rng.integers(0, top + 1))
        dispatch = np.full((jn, tn), rng.integers(0, top + 1))
    else:
        hold, dispatch = rng.integers(0, top + 1, (2, jn, tn))
    size = int(rng.choice([2, 5, 30]))
    capacity = rng.integers(0, size + 1, (jn, tn))
    demand = rng.integers(0, size + 1, (zn, tn))
    if rng.random() < 0.3:
        demand[rng.random((zn, tn)) < 0.5] = 0
    if rng.random() < 0.5:
        capacity[rng.random((jn, tn)) < 0.3] = 0
    fleet = int(rng.integers(0, int(capacity.sum(axis=0).max()) + 3))
    most = int(max(hold.max(), dispatch.max()))
    transfer = int(rng.choice([0, 1, most, 10 * most]))
    big_m = big_m_bound(hold, dispatch, transfer, fleet, tn) + 1 + int(rng.integers(0, 5))
    return Instance(num_stations=jn, num_zones=zn, num_slots=tn, fleet_size=fleet,
                    coverage=coverage, capacity=capacity, hold_cost=hold,
                    dispatch_cost=dispatch, demand=demand, big_m=big_m,
                    transfer_cost=transfer)


def highs(lp):
    """scipy's milp on ``lp`` at a zero relative gap."""
    lo = np.where(lp.sense <= 0, lp.rhs, -np.inf)  # >= and = rows
    hi = np.where(lp.sense >= 0, lp.rhs, np.inf)   # <= and = rows
    return milp(lp.objective, integrality=lp.integrality.astype(int),
                bounds=Bounds(lp.lower, lp.upper),
                constraints=[LinearConstraint(lp.A.to_scipy(), lo, hi)],
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
    assert outcome.nodes == 19
    # stopped early, the search still brackets the optimum
    root = solve_allocation(inst, node_limit=1)
    assert root.status is SolveStatus.NODE_LIMIT and root.plan is None
    assert root.best_bound <= 307
    early = solve_allocation(inst, node_limit=5)
    assert early.status is SolveStatus.NODE_LIMIT and early.plan is not None
    assert early.best_bound <= 307 <= early.objective
    # the search order: each extra node keeps the bracket and never widens it;
    # the bound of a stopped search counts the node it had just taken out
    bound, incumbent = -float("inf"), float("inf")
    for limit in range(20):
        step = solve_allocation(inst, node_limit=limit)
        assert step.nodes == limit
        assert step.status is (SolveStatus.OPTIMAL if limit == 19
                               else SolveStatus.NODE_LIMIT), limit
        assert bound <= step.best_bound <= 307, limit
        bound = step.best_bound
        if step.objective is not None:
            assert 307 <= step.objective <= incumbent, limit
            incumbent = step.objective
    assert bound == incumbent == 307


def test_half_integral_transfer_vertex_agrees_with_highs():
    # a valid instance, shrunk from a random draw, on which model 2's root
    # relaxation has a vertex with columns at 0.5: its matrix is not totally
    # unimodular. Whether the simplex lands there depends on its start, so
    # the node count is left free; the optimum equals the LP value
    inst = Instance(
        num_stations=4, num_zones=9, num_slots=3, fleet_size=25,
        coverage=np.array([[1, 1, 1, 0, 0, 0, 1, 0, 0], [1, 0, 1, 0, 1, 0, 1, 1, 1],
                           [0, 1, 0, 1, 1, 0, 1, 1, 1], [1, 1, 1, 1, 0, 1, 1, 1, 1]]),
        capacity=np.array([[10, 9, 9], [2, 2, 2], [6, 4, 12], [2, 2, 2]]),
        hold_cost=np.full((4, 3), 373_331), dispatch_cost=np.full((4, 3), 8_001),
        demand=np.array([[1, 0, 1], [1, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 2],
                         [2, 1, 0], [2, 0, 1], [1, 0, 1], [0, 2, 0]]),
        big_m=28_599_901, transfer_cost=0)
    ref = highs(explicit_transfer_program(inst))
    outcome = solve_transfer(inst)
    assert ref.status == 0
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.objective == round(ref.fun) == 11_375_952


@pytest.mark.parametrize("first", range(0, 200, 50))
def test_random_instances_match_highs(first):
    # valid instances beyond the generator, capacities of 0 in some slots
    # among them: each model's status and optimum against HiGHS on its
    # whole-day program, and each plan against the exact evaluator
    for seed in range(first, first + 50):
        inst = random_instance(seed)
        assert not validate_instance(inst), seed
        for model in sorted(MODELS):
            build, solve = MODELS[model]
            ref = highs(build(inst))
            outcome = solve(inst)
            label = f"{model} seed {seed}"
            assert ref.status in (0, 2), label
            if ref.status == 2:
                assert outcome.status is SolveStatus.INFEASIBLE, label
                continue
            assert outcome.status is SolveStatus.OPTIMAL, label
            assert outcome.objective == round(ref.fun), label
            assert EVALUATORS[model](inst, outcome.plan) == (outcome.objective, []), label
