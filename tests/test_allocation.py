"""Per-slot allocation model: program construction and exact solves."""

import dataclasses
import math

import numpy as np
import pytest

from ambuplan import (
    AllocationPlan,
    Instance,
    SolveStatus,
    brute_force_allocation,
    build_allocation_program,
    evaluate_allocation,
    generate,
    preset,
    solve_allocation,
    tiny_params,
)
from ambuplan.allocation import AllocationIndex, _extract_plan
from ambuplan.engine import LinearProgram, LinearRow, LpStatus, solve_lp


def one_dispatch_short(plan: AllocationPlan) -> AllocationPlan | None:
    """The plan with its latest dispatch left idle and counted short."""
    js, ts = np.nonzero(plan.dispatch)
    if js.size == 0:
        return None
    j, t = js[np.argmax(ts)], ts.max()
    dispatch, shortage = plan.dispatch.copy(), plan.shortage.copy()
    dispatch[j, t] -= 1
    shortage[t] += 1
    return AllocationPlan(plan.alloc, dispatch, shortage)


def row_by_row_program(inst: Instance) -> LinearProgram:
    """The allocation program written one LinearRow at a time, as a reference."""
    jn, zn, tn = inst.num_stations, inst.num_zones, inst.num_slots
    ix = AllocationIndex(jn, tn)
    obj, upper = np.zeros(ix.num_vars), np.full(ix.num_vars, np.inf)
    rows = []
    for j in range(jn):
        for t in range(tn):
            obj[ix.alloc(j, t)] = inst.hold_cost[j, t]
            obj[ix.dispatch(j, t)] = inst.dispatch_cost[j, t]
            upper[ix.alloc(j, t)] = inst.capacity[j, t]
            upper[ix.dispatch(j, t)] = inst.capacity[j, t]
    for t in range(tn):
        obj[ix.shortage(t)] = inst.big_m
        upper[ix.shortage(t)] = inst.demand[:, t].sum()
        rows.append(LinearRow(tuple((ix.alloc(j, t), 1.0) for j in range(jn)),
                              "<=", inst.fleet_size))
    covering = [[j for j in range(jn) if inst.coverage[j, i]] for i in range(zn)]
    for i in range(zn):
        for t in range(tn):
            rows.append(LinearRow(tuple((ix.alloc(j, t), 1.0) for j in covering[i]),
                                  ">=", inst.demand[i, t]))
    for i in range(zn):
        for t in range(tn):
            coeffs = [(ix.dispatch(j, t), 1.0) for j in covering[i]]
            rows.append(LinearRow((*coeffs, (ix.shortage(t), 1.0)), ">=",
                                  inst.demand[i, t]))
    for t in range(tn):
        coeffs = [(ix.dispatch(j, t), 1.0) for j in range(jn)]
        rows.append(LinearRow((*coeffs, (ix.shortage(t), 1.0)), "=",
                              inst.demand[:, t].sum()))
    for j in range(jn):
        for t in range(tn):
            rows.append(LinearRow(((ix.dispatch(j, t), 1.0), (ix.alloc(j, t), -1.0)),
                                  "<=", 0.0))
    return LinearProgram.from_rows(ix.num_vars, obj, np.zeros(ix.num_vars), upper,
                                   np.ones(ix.num_vars), rows)


class TestProgramShape:
    def test_two_station_single_slot_counts(self, tiny1):
        lp, ix = build_allocation_program(tiny1)
        # one slot block: alloc 2, dispatch 2, shortage 1
        assert lp.num_vars == 5 and ix.num_vars == 5
        # fleet 1, alloc-cover 2, dispatch-cover 2, total 1, s<=x 2
        assert lp.num_rows == 8

    def test_capacity_lands_on_alloc_bounds(self, tiny1):
        lp, ix = build_allocation_program(tiny1)
        for j in range(2):
            assert lp.upper[ix.alloc(j, 0)] == tiny1.capacity[j, 0]
        assert np.all(lp.lower == 0)

    def test_every_variable_integral(self, tiny1):
        lp, _ = build_allocation_program(tiny1)
        assert np.all(lp.integrality == 1)

    def test_shortage_carries_the_penalty_cost(self, tiny1):
        lp, ix = build_allocation_program(tiny1)
        assert lp.objective[ix.shortage(0)] == tiny1.big_m
        assert lp.objective[ix.alloc(1, 0)] == tiny1.hold_cost[1, 0]
        assert lp.objective[ix.dispatch(1, 0)] == tiny1.dispatch_cost[1, 0]

    def test_relaxation_bounds_integer_optimum(self, tiny1):
        lp, _ = build_allocation_program(tiny1)
        relaxed = solve_lp(lp)
        assert relaxed.status is LpStatus.OPTIMAL
        assert relaxed.objective <= 5 + 1e-9

    def test_rows_hold_at_the_oracle_plans(self, unmet_rows):
        # the exhaustive search's plans, and the same plans with their last
        # dispatch left idle and counted short, laid out by the index
        # accessors, meet every row exactly and cost what the evaluator says
        checked = 0
        for seed in range(60):
            inst = generate(tiny_params(seed), seed)
            ref = brute_force_allocation(inst)
            if ref.plan is None:
                continue
            lp, ix = build_allocation_program(inst)
            for plan in (ref.plan, one_dispatch_short(ref.plan)):
                if plan is None:
                    continue
                cost, violations = evaluate_allocation(inst, plan)
                assert violations == [], f"seed {seed}"
                x = np.zeros(lp.num_vars)
                for j in range(inst.num_stations):
                    for t in range(inst.num_slots):
                        x[ix.alloc(j, t)] = plan.alloc[j, t]
                        x[ix.dispatch(j, t)] = plan.dispatch[j, t]
                for t in range(inst.num_slots):
                    x[ix.shortage(t)] = plan.shortage[t]
                assert unmet_rows(lp, x) == [], f"seed {seed}"
                assert np.all((lp.lower <= x) & (x <= lp.upper)), f"seed {seed}"
                assert lp.objective @ x == cost, f"seed {seed}"
                checked += 1
        assert checked >= 40  # many tiny allocation instances are infeasible

    def test_matches_the_row_by_row_reference(self):
        cases = [generate(tiny_params(s), s) for s in range(60)]
        for inst in cases + [generate(preset(1), 0)]:
            lp, _ = build_allocation_program(inst)
            ref = row_by_row_program(inst)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(lp.A, part), getattr(ref.A, part)), part
            for name in ("sense", "rhs", "objective", "lower", "upper", "integrality"):
                assert np.array_equal(getattr(lp, name), getattr(ref, name)), name

    def test_plan_extraction_follows_the_column_layout(self):
        inst = generate(preset(1), 0)
        _, ix = build_allocation_program(inst)
        plan = _extract_plan(np.arange(ix.num_vars, dtype=float), ix)
        for j in range(inst.num_stations):
            idle = 0
            for t in range(inst.num_slots):
                assert plan.alloc[j, t] == ix.alloc(j, t)
                assert plan.dispatch[j, t] == ix.dispatch(j, t)
                # inventory is no column: it is the running sum of idle vehicles
                idle += ix.alloc(j, t) - ix.dispatch(j, t)
                assert plan.inventory[j, t] == idle
        for t in range(inst.num_slots):
            assert plan.shortage[t] == ix.shortage(t)


class TestSolve:
    def test_hand_checked_optimum(self, tiny1):
        outcome = solve_allocation(tiny1)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 5
        assert isinstance(outcome.objective, int)
        assert outcome.plan.alloc.tolist() == [[1], [1]]
        assert outcome.plan.dispatch.tolist() == [[1], [1]]
        assert outcome.plan.shortage.tolist() == [0]
        assert outcome.best_bound == 5

    def test_uncovered_demand_is_infeasible(self, tiny1):
        inst = dataclasses.replace(tiny1, coverage=np.array([[1, 0], [1, 0]]))
        outcome = solve_allocation(inst)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.objective is None and outcome.plan is None

    def test_zero_demand_costs_nothing(self, tiny1):
        inst = dataclasses.replace(tiny1, demand=np.zeros((2, 1), dtype=int))
        outcome = solve_allocation(inst)
        assert outcome.objective == 0
        assert np.all(outcome.plan.alloc == 0)

    def test_demand_beyond_fleet_is_infeasible(self, tiny1):
        inst = dataclasses.replace(tiny1, demand=np.array([[4], [1]]),
                                   capacity=np.array([[9], [9]]))
        assert solve_allocation(inst).status is SolveStatus.INFEASIBLE

    def test_capacity_forces_expensive_station(self):
        # cheap station capped at one vehicle; the second call must be
        # answered from the pricier station
        inst = Instance(num_stations=2, num_zones=1, num_slots=1, fleet_size=4,
                        coverage=[[1], [1]], capacity=[[1], [4]],
                        hold_cost=[[1], [2]], dispatch_cost=[[1], [3]],
                        demand=[[2]], big_m=1000)
        outcome = solve_allocation(inst)
        assert outcome.objective == (1 + 1) + (2 + 3)
        assert outcome.plan.alloc.tolist() == [[1], [1]]

    def test_slots_decouple_and_inventory_accumulates(self):
        inst = Instance(num_stations=1, num_zones=1, num_slots=3, fleet_size=5,
                        coverage=[[1]], capacity=[[3, 3, 3]],
                        hold_cost=[[1, 1, 1]], dispatch_cost=[[1, 1, 1]],
                        demand=[[2, 0, 3]], big_m=1000)
        outcome = solve_allocation(inst)
        plan = outcome.plan
        assert plan.alloc.tolist() == [[2, 0, 3]]
        assert plan.dispatch.tolist() == [[2, 0, 3]]
        # nothing is ever parked: dispatching costs nothing extra here and
        # undispatched vehicles would still pay their hold cost
        assert plan.inventory.tolist() == [[0, 0, 0]]
        assert outcome.objective == 2 * (2 + 0 + 3)

    def test_cheaper_to_overcover_than_fall_short(self):
        # one vehicle placed at the hub covers both zones' placement
        # constraint, but each call still needs its own dispatch
        inst = Instance(num_stations=1, num_zones=2, num_slots=1, fleet_size=9,
                        coverage=[[1, 1]], capacity=[[9]], hold_cost=[[2]],
                        dispatch_cost=[[3]], demand=[[1], [1]], big_m=1000)
        outcome = solve_allocation(inst)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.plan.shortage.tolist() == [0]
        # placement must reach max zone demand 1; dispatch total is 2
        assert outcome.plan.alloc.tolist() == [[2]]
        assert outcome.objective == 2 * 2 + 3 * 2

    def test_node_limit_surfaces_in_outcome(self, tiny1):
        outcome = solve_allocation(tiny1, node_limit=0)
        assert outcome.status is SolveStatus.NODE_LIMIT
        assert outcome.plan is None

    def test_node_budget_is_shared_by_the_slots(self):
        inst = generate(preset(1), 0)
        assert inst.num_slots == 4
        for limit in range(4):
            outcome = solve_allocation(inst, node_limit=limit)
            assert outcome.status is SolveStatus.NODE_LIMIT, limit
            assert outcome.nodes == limit
            # slot `limit` onwards was never explored
            assert outcome.plan is None and outcome.objective is None
            assert outcome.best_bound == -math.inf
        outcome = solve_allocation(inst, node_limit=4)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.nodes == 4
        assert outcome.objective == solve_allocation(inst).objective

    def test_the_last_open_node_is_pruned_before_the_budget_stops(self):
        # three stations cover the three zones in pairs and the fourth covers
        # nothing; the relaxation puts half a vehicle at each paired station
        # for 4.5, and the search branches once
        inst = Instance(num_stations=4, num_zones=3, num_slots=1, fleet_size=2,
                        coverage=[[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 0]],
                        capacity=[[2]] * 4, hold_cost=[[1], [1], [1], [0]],
                        dispatch_cost=[[0]] * 4, demand=[[1]] * 3, big_m=3)
        free = solve_allocation(inst)
        assert (free.status, free.objective, free.nodes) == (SolveStatus.OPTIMAL, 5, 2)
        assert brute_force_allocation(inst).objective == 5
        # the root alone: the floor child is still open and carries the
        # root's bound, rounded up to the next integer
        root = solve_allocation(inst, node_limit=1)
        assert root.status is SolveStatus.NODE_LIMIT
        assert root.plan is None and root.best_bound == 5
        # the second node finds 5; the ceiling child cannot beat it and is
        # pruned, so the budget is never the reason to stop
        both = solve_allocation(inst, node_limit=2)
        assert (both.status, both.objective, both.nodes) == (SolveStatus.OPTIMAL, 5, 2)

    def test_one_uncoverable_slot_makes_the_day_infeasible(self):
        def day(capacity):
            return Instance(num_stations=1, num_zones=1, num_slots=3, fleet_size=5,
                            coverage=[[1]], capacity=[capacity],
                            hold_cost=[[1, 1, 1]], dispatch_cost=[[1, 1, 1]],
                            demand=[[2, 1, 1]], big_m=1000)

        assert solve_allocation(day([3, 3, 3])).status is SolveStatus.OPTIMAL
        last = solve_allocation(day([3, 3, 0]))
        assert last.status is SolveStatus.INFEASIBLE
        assert last.plan is None and last.objective is None
        assert last.nodes == 3
        # the search stops at the first infeasible slot
        assert solve_allocation(day([0, 3, 3])).nodes == 1

    def test_invalid_instance_rejected(self, tiny1):
        bad = dataclasses.replace(tiny1, big_m=1)
        with pytest.raises(ValueError):
            solve_allocation(bad)

    def test_plans_always_pass_the_evaluator(self):
        for seed in range(40):
            inst = generate(tiny_params(seed), seed)
            outcome = solve_allocation(inst)
            if outcome.status is not SolveStatus.OPTIMAL:
                continue
            objective, violations = evaluate_allocation(inst, outcome.plan)
            assert violations == [], f"seed {seed}"
            assert objective == outcome.objective, f"seed {seed}"

    def test_repeat_solves_identical(self, tiny1):
        # a one-slot day, and one whose slots start from each other's bases
        for inst in (tiny1, generate(preset(1), 0)):
            a = solve_allocation(inst)
            b = solve_allocation(inst)
            assert a.plan == b.plan
            assert (a.objective, a.nodes, a.iterations) == \
                (b.objective, b.nodes, b.iterations)

    def test_headline_instance_pins_the_dual_simplex(self):
        # the 24-slot, 20-station, 60-zone day of the paper's benchmark; every
        # slot starts on the dual simplex, so a solve that reaches a
        # feasible basis with the primal simplex (5,880 pivots) fails here,
        # and so does a dual ratio test that stops at the first breakpoint
        # instead of flipping the columns it passes (984). Each slot after
        # the first starts from the previous slot's optimal basis; every
        # slot from the crash takes 530. With dispatch and shortage bounded
        # by capacity and the slot's demand, the first slot's first long
        # step passes 20 dispatch breakpoints and takes the shortage column,
        # and its path is one pivot longer than the 21 without those bounds
        outcome = solve_allocation(generate(preset(5), 42))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 150_626_543
        assert outcome.nodes == 24
        assert outcome.iterations == 22
        assert outcome.iterations < 1_500
