"""Transfer model: stocked fleet, paid rebalancing, zone-level service."""

import dataclasses

import numpy as np
import pytest

from ambuplan import (
    Instance,
    TransferPlan,
    SolveStatus,
    brute_force_transfer,
    build_transfer_program,
    evaluate_transfer,
    generate,
    preset,
    solve_transfer,
    tiny_params,
)
from ambuplan.engine import LinearProgram, LinearRow, LpStatus, solve_lp
from ambuplan.transfer import TransferIndex, _extract_plan


def one_serve_short(plan: TransferPlan) -> TransferPlan | None:
    """The plan with its latest served call counted short instead."""
    js, zs, ts = np.nonzero(plan.serve)
    if js.size == 0:
        return None
    k = np.argmax(ts)
    serve, shortage = plan.serve.copy(), plan.shortage.copy()
    serve[js[k], zs[k], ts[k]] -= 1
    shortage[zs[k], ts[k]] += 1
    return TransferPlan(plan.stock, serve, shortage)


def row_by_row_program(inst: Instance) -> LinearProgram:
    """The transfer program written one LinearRow at a time, as a reference."""
    jn, zn, tn = inst.num_stations, inst.num_zones, inst.num_slots
    ix = TransferIndex.for_instance(inst)
    obj, upper = np.zeros(ix.num_vars), np.full(ix.num_vars, np.inf)
    upper[ix.fleet] = inst.fleet_size
    for j in range(jn):
        for t in range(tn):
            obj[ix.stock(j, t)] = inst.hold_cost[j, t]
            upper[ix.stock(j, t)] = inst.capacity[j, t]
            if t > 0:
                obj[ix.transfer_in(j, t)] = inst.transfer_cost
    # a zone's demand bounds the calls any one station answers there, and
    # the zone's shortage
    for (j, i) in ix.pairs:
        for t in range(tn):
            obj[ix.serve(j, i, t)] = inst.dispatch_cost[j, t]
            upper[ix.serve(j, i, t)] = inst.demand[i, t]
    for i in range(zn):
        for t in range(tn):
            obj[ix.shortage(i, t)] = inst.big_m
            upper[ix.shortage(i, t)] = inst.demand[i, t]
    rows = [LinearRow(tuple((ix.stock(j, t), 1.0) for j in range(jn))
                      + ((ix.fleet, -1.0),), "=", 0.0) for t in range(tn)]
    for j in range(jn):
        for t in range(1, tn):
            rows.append(LinearRow(((ix.transfer_in(j, t), 1.0), (ix.stock(j, t), -1.0),
                                   (ix.stock(j, t - 1), 1.0)), ">=", 0.0))
    for j in range(jn):
        for t in range(tn):
            coeffs = [(ix.serve(j, i, t), 1.0) for i in range(zn) if inst.coverage[j, i]]
            rows.append(LinearRow((*coeffs, (ix.stock(j, t), -1.0)), "<=", 0.0))
    for i in range(zn):
        for t in range(tn):
            coeffs = [(ix.serve(j, i, t), 1.0) for j in range(jn) if inst.coverage[j, i]]
            rows.append(LinearRow((*coeffs, (ix.shortage(i, t), 1.0)), "=",
                                  inst.demand[i, t]))
    return LinearProgram.from_rows(ix.num_vars, obj, np.zeros(ix.num_vars), upper,
                                   np.ones(ix.num_vars), rows)


def two_stations(num_slots: int = 2, **fields) -> Instance:
    """Two stations sharing one zone, unit costs and demand, fleet 1."""
    ones = np.ones((2, num_slots), dtype=int)
    base = dict(num_stations=2, num_zones=1, num_slots=num_slots, fleet_size=1,
                coverage=[[1], [1]], capacity=ones, hold_cost=ones,
                dispatch_cost=ones, demand=ones[:1], big_m=100)
    return Instance(**(base | fields))


class TestProgramShape:
    def test_two_station_single_slot_counts(self, tiny1):
        lp, ix = build_transfer_program(tiny1)
        # stock 2 + serve 3 (three covered pairs) + shortage 2 + fleet 1,
        # no transfers
        assert lp.num_vars == 8 and ix.num_vars == 8
        # 1 fleet row + 2 serve<=stock + 2 demand equalities
        assert lp.num_rows == 5

    def test_day24_counts(self):
        lp, ix = build_transfer_program(generate(preset(5), 42))
        # one fleet row per slot and one move row per (station, later slot)
        # on top of the 480 limit and 1,440 demand rows
        assert lp.num_rows == 24 + 20 * 23 + 480 + 1440 == 2404
        assert lp.num_vars == ix.num_vars == 16757

    def test_serve_variables_exist_only_for_covered_pairs(self, tiny1):
        ix = TransferIndex.for_instance(tiny1)
        assert ix.pairs == ((0, 0), (1, 0), (1, 1))
        assert (0, 1) not in ix.pair_pos

    def test_capacity_lands_on_stock_bounds(self, tiny1):
        lp, ix = build_transfer_program(tiny1)
        for j in range(2):
            assert lp.upper[ix.stock(j, 0)] == tiny1.capacity[j, 0]

    def test_transfer_columns_priced_on_arrival_only(self):
        inst = two_stations(transfer_cost=7)
        lp, ix = build_transfer_program(inst)
        assert lp.objective[ix.transfer_in(0, 1)] == 7
        assert lp.objective[ix.transfer_in(1, 1)] == 7

    def test_relaxation_bounds_integer_optimum(self, tiny1):
        lp, _ = build_transfer_program(tiny1)
        relaxed = solve_lp(lp)
        assert relaxed.status is LpStatus.OPTIMAL
        assert relaxed.objective <= 5 + 1e-9

    def test_rows_hold_at_the_oracle_plans(self, unmet_rows):
        # the exhaustive search's plans, and the same plans with one served
        # call counted short, laid out by the index accessors, meet every row
        # exactly and cost what the evaluator says
        for seed in range(60):
            inst = generate(tiny_params(seed), seed)
            ref = brute_force_transfer(inst)
            lp, ix = build_transfer_program(inst)
            for plan in (ref.plan, one_serve_short(ref.plan)):
                if plan is None:
                    continue
                cost, violations = evaluate_transfer(inst, plan)
                assert violations == [], f"seed {seed}"
                x = np.zeros(lp.num_vars)
                x[ix.fleet] = plan.stock[:, 0].sum()
                for j in range(inst.num_stations):
                    for t in range(inst.num_slots):
                        x[ix.stock(j, t)] = plan.stock[j, t]
                        if t > 0:
                            x[ix.transfer_in(j, t)] = plan.transfer_in[j, t]
                for (j, i) in ix.pairs:
                    for t in range(inst.num_slots):
                        x[ix.serve(j, i, t)] = plan.serve[j, i, t]
                for i in range(inst.num_zones):
                    for t in range(inst.num_slots):
                        x[ix.shortage(i, t)] = plan.shortage[i, t]
                assert unmet_rows(lp, x) == [], f"seed {seed}"
                assert np.all((lp.lower <= x) & (x <= lp.upper)), f"seed {seed}"
                assert lp.objective @ x == cost, f"seed {seed}"
                # and the plan comes back out, moves included
                assert _extract_plan(x, ix) == plan, f"seed {seed}"

    def test_matches_the_row_by_row_reference(self):
        cases = [generate(tiny_params(s), s) for s in range(60)]
        for inst in cases + [generate(preset(1), 0)]:
            lp, _ = build_transfer_program(inst)
            ref = row_by_row_program(inst)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(lp.A, part), getattr(ref.A, part)), part
            for name in ("sense", "rhs", "objective", "lower", "upper", "integrality"):
                assert np.array_equal(getattr(lp, name), getattr(ref, name)), name

    def test_plan_extraction_follows_the_column_layout(self):
        inst = generate(preset(1), 0)
        _, ix = build_transfer_program(inst)
        # several slots and some uncovered pairs, so every block is exercised
        assert inst.num_slots > 1 and not inst.coverage.all()
        plan = _extract_plan(np.arange(ix.num_vars, dtype=float), ix)
        for j in range(inst.num_stations):
            for t in range(inst.num_slots):
                assert plan.stock[j, t] == ix.stock(j, t)
                for i in range(inst.num_zones):
                    expected = ix.serve(j, i, t) if inst.coverage[j, i] else 0
                    assert plan.serve[j, i, t] == expected
                # each station's stock rises by one a slot; the tin columns'
                # own values are not read
                assert plan.transfer_in[j, t] == (t > 0)
                assert plan.transfer_out[j, t] == 0
        for i in range(inst.num_zones):
            for t in range(inst.num_slots):
                assert plan.shortage[i, t] == ix.shortage(i, t)

    def test_moves_come_from_the_stock_not_the_tin_columns(self):
        inst = two_stations(num_slots=3, fleet_size=2, capacity=np.full((2, 3), 2))
        ix = TransferIndex.for_instance(inst)
        x = np.zeros(ix.num_vars)
        for j, row in enumerate([[2, 0, 1], [0, 2, 1]]):
            for t, v in enumerate(row):
                x[ix.stock(j, t)] = v
        # tin may sit above the arrivals when moving is free; that is ignored
        x[[ix.transfer_in(0, 1), ix.transfer_in(1, 1)]] = 5
        x[ix.fleet] = 2
        plan = _extract_plan(x, ix)
        assert plan.transfer_in.tolist() == [[0, 0, 1], [0, 2, 0]]
        assert plan.transfer_out.tolist() == [[0, 2, 0], [0, 0, 1]]


class TestSolve:
    def test_hand_checked_optimum(self, tiny1):
        outcome = solve_transfer(tiny1)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 5
        assert isinstance(outcome.objective, int)
        plan = outcome.plan
        assert plan.stock.tolist() == [[1], [1]]
        serve = np.zeros((2, 2, 1), dtype=int)
        serve[0, 0, 0] = 1
        serve[1, 1, 0] = 1
        assert plan.serve.tolist() == serve.tolist()
        assert np.all(plan.shortage == 0)

    def test_unit_capacity_forces_split_stocking(self, tiny1):
        inst = dataclasses.replace(tiny1, capacity=np.array([[1], [1]]))
        outcome = solve_transfer(inst)
        assert outcome.objective == 5
        assert outcome.plan.stock.tolist() == [[1], [1]]

    def test_uncovered_demand_becomes_priced_shortage(self, tiny1):
        inst = dataclasses.replace(tiny1, coverage=np.array([[1, 0], [1, 0]]))
        outcome = solve_transfer(inst)
        assert outcome.status is SolveStatus.OPTIMAL
        assert int(outcome.plan.shortage.sum()) == 1
        assert outcome.objective >= inst.big_m

    def test_zero_demand_costs_nothing(self, tiny1):
        inst = dataclasses.replace(tiny1, demand=np.zeros((2, 1), dtype=int))
        outcome = solve_transfer(inst)
        assert outcome.objective == 0
        assert np.all(outcome.plan.stock == 0)

    def test_empty_fleet_pays_full_shortage(self, tiny1):
        inst = dataclasses.replace(tiny1, fleet_size=0)
        outcome = solve_transfer(inst)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 2 * inst.big_m
        assert np.all(outcome.plan.stock == 0)

    def test_shortage_past_int64_is_repriced_exactly(self, tiny1):
        # the solve prices shortage below big_m; repricing the two zones'
        # 2**62 short calls each must not wrap their int64 sum to -2**63
        inst = dataclasses.replace(tiny1, fleet_size=0,
                                   demand=np.full((2, 1), 2**62))
        outcome = solve_transfer(inst)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 2**63 * inst.big_m

    def test_stock_is_conserved_across_quiet_slots(self):
        inst = Instance(num_stations=1, num_zones=1, num_slots=2, fleet_size=1,
                        coverage=[[1]], capacity=[[1, 1]], hold_cost=[[1, 1]],
                        dispatch_cost=[[1, 1]], demand=[[1, 0]], big_m=100)
        outcome = solve_transfer(inst)
        # the vehicle cannot be retired after slot 0; it keeps paying hold
        assert outcome.plan.stock.tolist() == [[1, 1]]
        assert outcome.objective == (1 + 1) + 1

    def test_cheap_transfer_follows_the_demand(self):
        inst = two_stations(hold_cost=[[5, 1], [1, 5]], big_m=1000, transfer_cost=2)
        outcome = solve_transfer(inst)
        # start at the cheap station, move when the prices swap: 1+1 hold,
        # 1+1 dispatch, one paid arrival
        assert outcome.objective == 4 + 2
        plan = outcome.plan
        assert plan.stock.tolist() == [[0, 1], [1, 0]]
        assert plan.transfer_in.tolist() == [[0, 1], [0, 0]]
        assert plan.transfer_out.tolist() == [[0, 0], [0, 1]]

    def test_dear_transfer_stays_put(self):
        inst = two_stations(hold_cost=[[5, 1], [1, 5]], big_m=1000, transfer_cost=10)
        outcome = solve_transfer(inst)
        # moving would cost 4 + 10; staying anywhere costs 6 + 2
        assert outcome.objective == 8
        assert np.all(outcome.plan.transfer_in == 0)
        assert np.all(outcome.plan.transfer_out == 0)

    def test_transfer_must_respect_prior_stock(self):
        # station 1 starts empty, so nothing can leave it in slot 1 even
        # though zone 1 only becomes reachable through station 0
        inst = Instance(num_stations=2, num_zones=2, num_slots=2, fleet_size=2,
                        coverage=[[1, 0], [0, 1]], capacity=[[2, 2], [2, 2]],
                        hold_cost=[[1, 1], [1, 1]],
                        dispatch_cost=[[1, 1], [1, 1]],
                        demand=[[1, 0], [0, 1]], big_m=1000, transfer_cost=1)
        outcome = solve_transfer(inst)
        _, violations = evaluate_transfer(inst, outcome.plan)
        assert violations == []
        assert int(outcome.plan.shortage.sum()) == 0

    def test_node_limit_surfaces_in_outcome(self, tiny1):
        outcome = solve_transfer(tiny1, node_limit=0)
        assert outcome.status is SolveStatus.NODE_LIMIT
        assert outcome.plan is None

    def test_invalid_instance_rejected(self, tiny1):
        bad = dataclasses.replace(tiny1, fleet_size=-1)
        with pytest.raises(ValueError):
            solve_transfer(bad)

    def test_plans_always_pass_the_evaluator(self):
        for seed in range(40):
            inst = generate(tiny_params(seed), seed)
            outcome = solve_transfer(inst)
            assert outcome.status is SolveStatus.OPTIMAL, f"seed {seed}"
            objective, violations = evaluate_transfer(inst, outcome.plan)
            assert violations == [], f"seed {seed}"
            assert objective == outcome.objective, f"seed {seed}"

    def test_network_structure_solves_at_the_root(self):
        # moderate-scale spot check; the acceptance suite covers 100 runs
        for seed in (11, 12, 13):
            inst = generate(preset(1), seed)
            outcome = solve_transfer(inst)
            assert outcome.status is SolveStatus.OPTIMAL
            assert outcome.nodes <= 1, f"seed {seed}"

    def test_headline_instance_pins_the_dual_simplex(self):
        # the 24-slot, 20-station, 60-zone day of the paper's benchmark. The
        # crash puts a serve column in each limit row, and every column that
        # prices in there is boxed and starts on its upper bound, so the
        # start needs no phase 1 and the dual does every pivot, from the
        # hyper-sparse pivot row. A change that moves the start or the
        # entering choices fails here
        outcome = solve_transfer(generate(preset(5), 42))
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 170_053_492
        assert outcome.nodes == 1
        assert outcome.iterations == 1_482
