"""Domain types, instance validation, and the exact plan evaluators."""

import numpy as np
import pytest

from ambuplan import (
    AllocationPlan,
    Instance,
    TransferPlan,
    evaluate_allocation,
    evaluate_transfer,
    validate_instance,
)


def plan1(alloc, dispatch, inventory, shortage) -> AllocationPlan:
    return AllocationPlan(alloc=alloc, dispatch=dispatch,
                          inventory=inventory, shortage=shortage)


def plan2(stock, serve, tin, tout, shortage) -> TransferPlan:
    return TransferPlan(stock=stock, serve=serve, transfer_in=tin,
                        transfer_out=tout, shortage=shortage)


# ---------------------------------------------------------------------------
# instance construction and validation
# ---------------------------------------------------------------------------

class TestInstance:
    def test_arrays_are_frozen_int64(self, tiny1):
        assert tiny1.coverage.dtype == np.int64
        assert not tiny1.coverage.flags.writeable
        with pytest.raises(ValueError):
            tiny1.demand[0, 0] = 9

    def test_scalars_coerced_to_int(self, tiny1):
        assert isinstance(tiny1.fleet_size, int)
        assert isinstance(tiny1.big_m, int)

    def test_fractional_or_boolean_scalars_rejected(self, tiny1):
        import dataclasses
        for name, value in (("fleet_size", 100.7), ("big_m", 1000.5),
                            ("transfer_cost", 0.9), ("fleet_size", True),
                            ("num_slots", np.bool_(True)),
                            ("big_m", float("inf"))):
            with pytest.raises(ValueError, match=name):
                dataclasses.replace(tiny1, **{name: value})

    def test_integral_scalars_of_any_size_accepted(self, tiny1):
        import dataclasses
        inst = dataclasses.replace(tiny1, fleet_size=3.0,
                                   transfer_cost=np.int32(0), big_m=10**20)
        assert (inst.fleet_size, inst.transfer_cost) == (3, 0)
        assert type(inst.fleet_size) is int and type(inst.transfer_cost) is int
        assert inst.big_m == 10**20
        assert validate_instance(inst) == []

    def test_value_equality_not_identity(self, tiny1):
        import dataclasses
        clone = dataclasses.replace(tiny1)
        assert clone == tiny1
        assert dataclasses.replace(tiny1, big_m=2000) != tiny1
        assert Instance.__hash__ is None

    def test_valid_instance_has_no_findings(self, tiny1):
        assert validate_instance(tiny1) == []

    def test_nonpositive_dimension(self, tiny1):
        import dataclasses
        bad = dataclasses.replace(tiny1, num_slots=0, capacity=np.zeros((2, 0)),
                                  hold_cost=np.zeros((2, 0)),
                                  dispatch_cost=np.zeros((2, 0)),
                                  demand=np.zeros((2, 0)))
        kinds = {v.kind for v in validate_instance(bad)}
        assert "dims_nonpositive" in kinds

    def test_shape_mismatch_detected(self, tiny1):
        import dataclasses
        bad = dataclasses.replace(tiny1, demand=np.array([[1], [1], [1]]))
        kinds = {v.kind for v in validate_instance(bad)}
        assert "shape_mismatch" in kinds

    def test_coverage_must_be_binary(self, tiny1):
        import dataclasses
        bad = dataclasses.replace(tiny1, coverage=np.array([[2, 0], [-1, 3]]))
        found = [v for v in validate_instance(bad)
                 if v.kind == "coverage_not_binary"]
        assert [(v.indices, v.message) for v in found] == [
            ((0, 0), "coverage[0][0] = 2, must be 0 or 1"),
            ((1, 0), "coverage[1][0] = -1, must be 0 or 1"),
            ((1, 1), "coverage[1][1] = 3, must be 0 or 1"),
        ]

    def test_negative_entry_detected(self, tiny1):
        import dataclasses
        bad = dataclasses.replace(tiny1, demand=np.array([[1], [-1]]))
        found = [v for v in validate_instance(bad) if v.kind == "negative_entry"]
        assert [(v.indices, v.message) for v in found] == [
            ((1, 0), "demand[1, 0] = -1, must be >= 0")]

    def test_big_m_must_dominate_service_costs(self, tiny1):
        import dataclasses
        # max hold 1 + max dispatch 2 = 3 per vehicle-slot, fleet 3, 1 slot
        bad = dataclasses.replace(tiny1, big_m=9)
        found = [v for v in validate_instance(bad) if v.kind == "big_m_too_small"]
        assert found and found[0].rhs == 9
        ok = dataclasses.replace(tiny1, big_m=10)
        assert validate_instance(ok) == []


# ---------------------------------------------------------------------------
# allocation evaluator
# ---------------------------------------------------------------------------

class TestEvaluateAllocation:
    def test_hand_checked_optimum(self, tiny1):
        plan = plan1([[1], [1]], [[1], [1]], [[0], [0]], [0])
        objective, violations = evaluate_allocation(tiny1, plan)
        assert objective == 5
        assert violations == []

    def test_dispatch_beyond_alloc_flagged(self, tiny1):
        plan = plan1([[1], [1]], [[2], [0]], [[-1], [1]], [0])
        _, violations = evaluate_allocation(tiny1, plan)
        kinds = {v.kind for v in violations}
        assert "dispatch_exceeds_alloc" in kinds
        at = [v for v in violations if v.kind == "dispatch_exceeds_alloc"]
        assert at[0].indices == (0, 0)

    def test_zero_plan_zero_demand(self, tiny1):
        import dataclasses
        inst = dataclasses.replace(tiny1, demand=np.zeros((2, 1), dtype=int))
        plan = plan1([[0], [0]], [[0], [0]], [[0], [0]], [0])
        assert evaluate_allocation(inst, plan) == (0, [])

    def test_inventory_recurrence_checked(self):
        inst = Instance(num_stations=1, num_zones=1, num_slots=2, fleet_size=2,
                        coverage=[[1]], capacity=[[2, 2]], hold_cost=[[1, 1]],
                        dispatch_cost=[[1, 1]], demand=[[1, 1]], big_m=100)
        # the undispatched vehicle from slot 0 accumulates as inventory
        good = plan1([[2, 1]], [[1, 1]], [[1, 1]], [0, 0])
        objective, violations = evaluate_allocation(inst, good)
        assert objective == (2 + 1) + (1 + 1)
        assert violations == []
        drifted = plan1([[2, 1]], [[1, 1]], [[1, 0]], [0, 0])
        _, violations = evaluate_allocation(inst, drifted)
        assert any(v.kind == "inventory_balance" for v in violations)

    def test_capacity_fleet_and_coverage_checks(self, tiny1):
        plan = plan1([[3], [0]], [[1], [0]], [[2], [0]], [1])
        _, violations = evaluate_allocation(tiny1, plan)
        kinds = {v.kind for v in violations}
        assert "alloc_exceeds_capacity" in kinds   # 3 > capacity 2
        assert "fleet_exceeded" not in kinds       # 3 <= fleet 3
        assert "alloc_cover_short" in kinds        # zone 1 uncovered

    def test_dispatch_totals_must_balance(self, tiny1):
        plan = plan1([[1], [1]], [[1], [1]], [[0], [0]], [1])
        _, violations = evaluate_allocation(tiny1, plan)
        assert any(v.kind == "dispatch_total_mismatch" for v in violations)

    def test_negative_entries_flagged(self, tiny1):
        plan = plan1([[1], [1]], [[1], [1]], [[0], [0]], [-1])
        _, violations = evaluate_allocation(tiny1, plan)
        assert any(v.kind == "negative_value" for v in violations)

    def test_shortage_priced_exactly_at_scale(self, tiny1):
        import dataclasses
        inst = dataclasses.replace(tiny1, big_m=10**18)
        plan = plan1([[1], [1]], [[0], [0]], [[1], [1]], [2])
        objective, _ = evaluate_allocation(inst, plan)
        assert objective == 2 + 2 * 10**18  # exact integer, no float rounding

    def test_dimension_mismatch_raises(self, tiny1):
        plan = plan1([[1, 1], [1, 1]], [[1, 1], [1, 1]], [[0, 0], [0, 0]],
                     [0, 0])
        with pytest.raises(ValueError):
            evaluate_allocation(tiny1, plan)


# ---------------------------------------------------------------------------
# transfer evaluator
# ---------------------------------------------------------------------------

class TestEvaluateTransfer:
    def test_hand_checked_optimum(self, tiny1):
        serve = np.zeros((2, 2, 1), dtype=int)
        serve[0, 0, 0] = 1
        serve[1, 1, 0] = 1
        plan = plan2([[1], [1]], serve, [[0], [0]], [[0], [0]], [[0], [0]])
        objective, violations = evaluate_transfer(tiny1, plan)
        assert objective == 5
        assert violations == []

    def test_unbalanced_transfers_flagged(self):
        inst = Instance(num_stations=2, num_zones=1, num_slots=2, fleet_size=2,
                        coverage=[[1], [1]], capacity=[[2, 2], [2, 2]],
                        hold_cost=[[1, 1], [1, 1]],
                        dispatch_cost=[[1, 1], [1, 1]],
                        demand=[[0, 0]], big_m=100, transfer_cost=1)
        serve = np.zeros((2, 1, 2), dtype=int)
        plan = plan2([[1, 2], [0, 0]], serve, [[0, 1], [0, 0]],
                     [[0, 0], [0, 0]], [[0, 0]])
        _, violations = evaluate_transfer(inst, plan)
        assert any(v.kind == "transfer_conservation" for v in violations)

    def test_transfer_pricing_counts_arrivals_only(self):
        inst = Instance(num_stations=2, num_zones=1, num_slots=2, fleet_size=1,
                        coverage=[[1], [1]], capacity=[[1, 1], [1, 1]],
                        hold_cost=[[1, 1], [1, 1]],
                        dispatch_cost=[[1, 1], [1, 1]],
                        demand=[[0, 1]], big_m=100, transfer_cost=7)
        serve = np.zeros((2, 1, 2), dtype=int)
        serve[1, 0, 1] = 1
        plan = plan2([[1, 0], [0, 1]], serve, [[0, 0], [0, 1]],
                     [[0, 1], [0, 0]], [[0, 0]])
        objective, violations = evaluate_transfer(inst, plan)
        assert violations == []
        assert objective == 2 + 1 + 7  # hold twice, one dispatch, one move

    def test_first_slot_transfers_forbidden(self, tiny1):
        serve = np.zeros((2, 2, 1), dtype=int)
        serve[0, 0, 0] = 1
        serve[1, 1, 0] = 1
        plan = plan2([[1], [1]], serve, [[1], [0]], [[0], [1]], [[0], [0]])
        _, violations = evaluate_transfer(tiny1, plan)
        assert any(v.kind == "first_slot_transfer" for v in violations)

    def test_serving_uncovered_zone_flagged(self, tiny1):
        serve = np.zeros((2, 2, 1), dtype=int)
        serve[0, 1, 0] = 1  # station 0 does not cover zone 1
        serve[1, 0, 0] = 1
        plan = plan2([[1], [1]], serve, [[0], [0]], [[0], [0]], [[0], [0]])
        _, violations = evaluate_transfer(tiny1, plan)
        assert any(v.kind == "serve_uncovered" for v in violations)

    def test_stock_and_demand_accounting(self, tiny1):
        serve = np.zeros((2, 2, 1), dtype=int)
        serve[1, 0, 0] = 1
        serve[1, 1, 0] = 1
        plan = plan2([[0], [1]], serve, [[0], [0]], [[0], [0]], [[0], [0]])
        _, violations = evaluate_transfer(tiny1, plan)
        kinds = {v.kind for v in violations}
        assert "dispatch_exceeds_stock" in kinds  # 2 serves from stock 1

    def test_demand_rows_are_equalities(self, tiny1):
        serve = np.zeros((2, 2, 1), dtype=int)
        serve[0, 0, 0] = 1
        plan = plan2([[1], [0]], serve, [[0], [0]], [[0], [0]], [[0], [0]])
        _, violations = evaluate_transfer(tiny1, plan)
        at = [v for v in violations if v.kind == "demand_mismatch"]
        assert at and at[0].indices == (1, 0)

    def test_zero_plan_zero_demand(self, tiny1):
        import dataclasses
        inst = dataclasses.replace(tiny1, demand=np.zeros((2, 1), dtype=int))
        plan = plan2([[0], [0]], np.zeros((2, 2, 1), dtype=int),
                     [[0], [0]], [[0], [0]], [[0], [0]])
        assert evaluate_transfer(inst, plan) == (0, [])

    def test_capacity_bound_on_stock(self, tiny1):
        serve = np.zeros((2, 2, 1), dtype=int)
        serve[0, 0, 0] = 1
        serve[1, 1, 0] = 1
        plan = plan2([[3], [1]], serve, [[0], [0]], [[0], [0]], [[0], [0]])
        _, violations = evaluate_transfer(tiny1, plan)
        kinds = {v.kind for v in violations}
        assert "stock_exceeds_capacity" in kinds  # 3 > capacity 2
        assert "fleet_exceeded" in kinds          # 4 > fleet 3


class TestPlanTypes:
    def test_plans_compare_by_value(self):
        a = plan1([[1]], [[1]], [[0]], [0])
        b = plan1([[1]], [[1]], [[0]], [0])
        c = plan1([[1]], [[0]], [[1]], [0])
        assert a == b and a != c
        assert AllocationPlan.__hash__ is None and TransferPlan.__hash__ is None

    def test_plan_arrays_frozen(self):
        p = plan1([[1]], [[1]], [[0]], [0])
        with pytest.raises(ValueError):
            p.alloc[0, 0] = 5
