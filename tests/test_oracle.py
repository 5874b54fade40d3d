"""Exhaustive reference search: exact optima, tie-breaks, and the size guard."""

import dataclasses

import numpy as np
import pytest

from ambuplan import (
    Instance,
    SearchSpaceError,
    SolveStatus,
    brute_force_allocation,
    brute_force_transfer,
    evaluate_allocation,
    evaluate_transfer,
    generate,
    preset,
    solve_allocation,
    solve_transfer,
    tiny_params,
)
from ambuplan.core import at_minimal_penalty
from ambuplan.oracle import SEARCH_BUDGET


def symmetric_pair(**overrides) -> Instance:
    """Two interchangeable stations covering one zone; forces a tie-break."""
    fields = dict(num_stations=2, num_zones=1, num_slots=1, fleet_size=1,
                  coverage=[[1], [1]], capacity=[[1], [1]],
                  hold_cost=[[1], [1]], dispatch_cost=[[1], [1]],
                  demand=[[1]], big_m=100)
    fields.update(overrides)
    return Instance(**fields)


class TestAllocationOracle:
    def test_hand_checked_optimum(self, tiny1):
        outcome = brute_force_allocation(tiny1)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 5
        assert isinstance(outcome.objective, int)
        assert outcome.plan.alloc.tolist() == [[1], [1]]
        assert outcome.plan.dispatch.tolist() == [[1], [1]]
        assert outcome.plan.inventory.tolist() == [[0], [0]]
        assert outcome.plan.shortage.tolist() == [0]

    def test_ties_break_to_the_lexicographically_least_plan(self):
        outcome = brute_force_allocation(symmetric_pair())
        # placing at station 1 equals placing at station 0 on cost; the
        # returned plan must be the smaller tuple (alloc, dispatch, ...)
        assert outcome.objective == 2
        assert outcome.plan.alloc.tolist() == [[0], [1]]
        assert outcome.plan.dispatch.tolist() == [[0], [1]]

    def test_uncovered_demand_infeasible(self, tiny1):
        inst = dataclasses.replace(tiny1, coverage=np.array([[1, 0], [1, 0]]))
        outcome = brute_force_allocation(inst)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.plan is None

    def test_shortage_allowed_when_coverage_holds(self):
        # one hub vehicle covers both zones' placement requirement, yet a
        # single dispatch cannot answer both calls; the second becomes a
        # priced shortage rather than an infeasibility
        inst = Instance(num_stations=1, num_zones=2, num_slots=1,
                        fleet_size=1, coverage=[[1, 1]], capacity=[[1]],
                        hold_cost=[[1]], dispatch_cost=[[1]],
                        demand=[[1], [1]], big_m=100)
        outcome = brute_force_allocation(inst)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.plan.shortage.tolist() == [1]
        assert outcome.objective == 1 + 1 + 100

    def test_rejects_invalid_instances(self, tiny1):
        bad = dataclasses.replace(tiny1, big_m=0)
        with pytest.raises(ValueError):
            brute_force_allocation(bad)

    def test_refuses_benchmark_scale(self):
        big = generate(preset(1), 0)
        with pytest.raises(SearchSpaceError) as info:
            brute_force_allocation(big)
        assert info.value.size > info.value.budget == SEARCH_BUDGET

    def test_plans_are_valid_and_deterministic(self):
        for seed in range(30):
            inst = generate(tiny_params(seed), seed)
            first = brute_force_allocation(inst)
            again = brute_force_allocation(inst)
            assert first.status is again.status
            if first.status is not SolveStatus.OPTIMAL:
                continue
            assert first.plan == again.plan
            objective, violations = evaluate_allocation(inst, first.plan)
            assert violations == [], f"seed {seed}"
            assert objective == first.objective, f"seed {seed}"


class TestTransferOracle:
    def test_hand_checked_optimum(self, tiny1):
        outcome = brute_force_transfer(tiny1)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 5
        plan = outcome.plan
        assert plan.stock.tolist() == [[1], [1]]
        assert plan.serve[0, 0, 0] == 1 and plan.serve[1, 1, 0] == 1
        assert int(plan.serve.sum()) == 2
        assert np.all(plan.shortage == 0)

    def test_ties_break_on_stock_first(self):
        outcome = brute_force_transfer(symmetric_pair())
        assert outcome.objective == 2
        assert outcome.plan.stock.tolist() == [[0], [1]]
        assert outcome.plan.serve[1, 0, 0] == 1

    def test_cross_slot_ties_break_globally(self):
        # with free transfers every stationing of the single vehicle costs
        # 3; the lexicographically least stock matrix parks it at station 1
        # for both slots, so no transfer appears at all
        inst = Instance(num_stations=2, num_zones=1, num_slots=2,
                        fleet_size=1, coverage=[[1], [1]],
                        capacity=[[1, 1], [1, 1]], hold_cost=[[1, 1], [1, 1]],
                        dispatch_cost=[[1, 1], [1, 1]], demand=[[0, 1]],
                        big_m=100, transfer_cost=0)
        outcome = brute_force_transfer(inst)
        assert outcome.objective == 3
        assert outcome.plan.stock.tolist() == [[0, 0], [1, 1]]
        assert np.all(outcome.plan.transfer_in == 0)
        assert outcome.plan.serve[1, 0, 1] == 1

    def test_serve_ties_break_after_stock(self):
        inst = symmetric_pair(demand=[[2]], capacity=[[2], [2]], fleet_size=2)
        outcome = brute_force_transfer(inst)
        # stock both vehicles at station 1: (0, 2) precedes (1, 1) and (2, 0)
        assert outcome.objective == 4  # two held, two dispatched
        assert outcome.plan.stock.tolist() == [[0], [2]]
        assert outcome.plan.serve[1, 0, 0] == 2

    def test_uncovered_demand_becomes_shortage(self, tiny1):
        inst = dataclasses.replace(tiny1, coverage=np.array([[1, 0], [1, 0]]))
        outcome = brute_force_transfer(inst)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.plan.shortage[1, 0] == 1

    def test_transfer_pricing_matches_evaluator(self):
        inst = Instance(num_stations=2, num_zones=1, num_slots=2, fleet_size=1,
                        coverage=[[1], [1]], capacity=[[1, 1], [1, 1]],
                        hold_cost=[[5, 1], [1, 5]],
                        dispatch_cost=[[1, 1], [1, 1]],
                        demand=[[1, 1]], big_m=1000, transfer_cost=2)
        outcome = brute_force_transfer(inst)
        assert outcome.objective == 6  # hold 1+1, dispatch 1+1, one arrival
        assert outcome.plan.transfer_in.tolist() == [[0, 1], [0, 0]]

    def test_refuses_benchmark_scale(self):
        big = generate(preset(1), 0)
        with pytest.raises(SearchSpaceError) as info:
            brute_force_transfer(big)
        assert info.value.size > info.value.budget == SEARCH_BUDGET
        assert isinstance(info.value, RuntimeError)

    def test_plans_are_valid_and_deterministic(self):
        for seed in range(30):
            inst = generate(tiny_params(seed), seed)
            first = brute_force_transfer(inst)
            again = brute_force_transfer(inst)
            assert first.status is SolveStatus.OPTIMAL
            assert first.plan == again.plan
            objective, violations = evaluate_transfer(inst, first.plan)
            assert violations == [], f"seed {seed}"
            assert objective == first.objective, f"seed {seed}"


class TestSolverAgreementSpotCheck:
    """Thirty-seed preview of the acceptance corpora, kept fast."""

    def test_allocation(self):
        for seed in range(30):
            inst = generate(tiny_params(seed), seed)
            mine = solve_allocation(inst)
            ref = brute_force_allocation(inst)
            assert mine.status is ref.status, f"seed {seed}"
            if ref.status is SolveStatus.OPTIMAL:
                assert mine.objective == ref.objective, f"seed {seed}"

    def test_transfer(self):
        for seed in range(30):
            inst = generate(tiny_params(seed), seed)
            mine = solve_transfer(inst)
            ref = brute_force_transfer(inst)
            assert mine.objective == ref.objective, f"seed {seed}"


class TestPenaltyIndependence:
    """Every valid big_m gives the exhaustive search's answer.

    Solves price shortage at the smallest valid penalty and report the plan's
    cost at the instance's own, so large penalties no longer swamp the
    simplex's tolerances.
    """

    @pytest.mark.parametrize("solve, search", [
        (solve_allocation, brute_force_allocation),
        (solve_transfer, brute_force_transfer),
    ], ids=["allocation", "transfer"])
    def test_matches_brute_force_at_any_big_m(self, solve, search):
        for seed in range(60):
            base = generate(tiny_params(seed), seed)
            for big_m in (base.big_m, 10**12, 10**18):
                inst = dataclasses.replace(base, big_m=big_m)
                mine, ref = solve(inst), search(inst)
                label = f"seed {seed} big_m {big_m}"
                assert mine.status is ref.status, label
                assert mine.objective == ref.objective, label

    @pytest.mark.parametrize("solve, search, fleet", [
        pytest.param(solve_transfer, brute_force_transfer, 10**12, id="transfer"),
        pytest.param(solve_transfer, brute_force_transfer, 10**15, id="transfer-1e15"),
        pytest.param(solve_allocation, brute_force_allocation, 10**12, id="allocation"),
        pytest.param(solve_allocation, brute_force_allocation, 10**15,
                     id="allocation-1e15"),
    ])
    def test_matches_brute_force_at_a_huge_fleet(self, solve, search, fleet):
        # the solves run at the fleet the stations can hold, so neither the
        # fleet bound nor the priced big_m grows with a fleet beyond it
        base = generate(tiny_params(1), 1)
        inst = at_minimal_penalty(dataclasses.replace(base, fleet_size=fleet))
        mine, ref = solve(inst), search(inst)
        assert mine.status is ref.status
        assert mine.objective == ref.objective
