"""Per-slot allocation planning (reposition freely between slots).

Decision variables, all integer, for stations j and slots t:

* ``alloc[j][t]``   vehicles placed at station j during slot t
* ``dispatch[j][t]`` vehicles from station j that answer calls in slot t
* ``inventory[j][t]`` running count of placed-but-idle vehicles
* ``shortage[t]``   calls in slot t that no covering vehicle answers

Placement must cover every zone's demand outright (a zone whose demand cannot
be covered makes the instance infeasible), while dispatch shortfalls are
merely priced at the ``big_m`` weight. Inventory ties consecutive slots
together through a balance equation but carries no cost, and ``dispatch <=
alloc`` keeps it nonnegative, so the program separates exactly by slot.
``build_allocation_program`` still writes the whole day as one program, for
inspection and independent checks; ``solve_allocation`` solves one small
program per slot and rebuilds inventory from the plan as the running sum of
``alloc - dispatch``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AllocationPlan,
    Instance,
    SolveOutcome,
    at_minimal_penalty,
    evaluate_allocation,
    outcome_from_milp,
    validate_instance,
)
from .engine import (
    LinearProgram,
    MilpOptions,
    MilpSolution,
    MilpStatus,
    matrix_from_blocks,
    solve_milp,
)


@dataclass(frozen=True)
class AllocationIndex:
    """Column layout of the allocation program: four contiguous blocks.
    The accessors take index arrays as well as ints."""

    num_stations: int
    num_slots: int

    def alloc(self, j: int, t: int) -> int:
        return j * self.num_slots + t

    def dispatch(self, j: int, t: int) -> int:
        return self.num_stations * self.num_slots + j * self.num_slots + t

    def inventory(self, j: int, t: int) -> int:
        return 2 * self.num_stations * self.num_slots + j * self.num_slots + t

    def shortage(self, t: int) -> int:
        return 3 * self.num_stations * self.num_slots + t

    @property
    def num_vars(self) -> int:
        return 3 * self.num_stations * self.num_slots + self.num_slots


def build_allocation_program(inst: Instance) -> tuple[LinearProgram, AllocationIndex]:
    """Assemble the integer program; returns it with its column layout."""
    jn, zn, tn = inst.num_stations, inst.num_zones, inst.num_slots
    ix = AllocationIndex(jn, tn)
    n = ix.num_vars
    jt = np.arange(jn * tn)             # station-major (j, t)
    j, t = np.divmod(jt, tn)
    it = np.arange(zn * tn)             # zone-major (i, t)
    slot = np.arange(tn)
    cj, ci = np.nonzero(inst.coverage)  # covering (j, i) pairs, once per slot
    cj, ct = np.repeat(cj, tn), np.tile(slot, ci.size)
    cover = np.repeat(ci, tn) * tn + ct  # the (i, t) row each pair-slot covers
    sizes = [jt.size, tn, it.size, it.size, tn, jt.size]
    fleet, placed, dispatched, total, limit = np.cumsum(sizes[:-1]).tolist()
    blocks = [
        # idle stock carried from the previous slot plus net placement
        (jt, ix.inventory(j, t), 1.0), (jt, ix.alloc(j, t), -1.0),
        (jt, ix.dispatch(j, t), 1.0), (jt[t > 0], ix.inventory(j, t - 1)[t > 0], -1.0),
        # fleet cap per slot
        (fleet + t, ix.alloc(j, t), 1.0),
        # placed coverage must meet each zone's demand
        (placed + cover, ix.alloc(cj, ct), 1.0),
        # dispatched coverage may fall short by the slot's shortage
        (dispatched + cover, ix.dispatch(cj, ct), 1.0),
        (dispatched + it, ix.shortage(it % tn), 1.0),
        # every call is either answered or counted short
        (total + t, ix.dispatch(j, t), 1.0), (total + slot, ix.shortage(slot), 1.0),
        # cannot dispatch more than was placed
        (limit + jt, ix.dispatch(j, t), 1.0), (limit + jt, ix.alloc(j, t), -1.0),
    ]
    sense = np.repeat([0.0, 1.0, -1.0, -1.0, 0.0, 1.0], sizes)
    demand = inst.demand.ravel()
    rhs = np.concatenate([np.zeros(jt.size), np.full(tn, float(inst.fleet_size)),
                          demand, demand, inst.demand.sum(axis=0), np.zeros(jt.size)])
    obj = np.concatenate([inst.hold_cost.ravel(), inst.dispatch_cost.ravel(),
                          np.zeros(jt.size), np.full(tn, float(inst.big_m))])
    upper = np.concatenate([inst.capacity.ravel(), np.full(n - jt.size, np.inf)])
    lp = LinearProgram(n, obj, np.zeros(n), upper, np.ones(n, dtype=bool),
                       matrix_from_blocks(blocks, (sense.size, n)), sense, rhs)
    return lp, ix


def _extract_plan(x: np.ndarray, ix: AllocationIndex) -> AllocationPlan:
    jt = ix.num_stations * ix.num_slots
    vals = np.rint(x).astype(np.int64)
    alloc, dispatch, inventory = vals[:3 * jt].reshape(3, ix.num_stations, ix.num_slots)
    return AllocationPlan(alloc, dispatch, inventory, shortage=vals[3 * jt:])


def solve_allocation(inst: Instance,
                     options: MilpOptions | None = None) -> SolveOutcome:
    """Solve the allocation model to proven optimality, one slot at a time.

    Raises ValueError on an invalid instance. The program prices shortage at
    the smallest valid ``big_m``. On OPTIMAL the returned objective is the
    exact integer cost of the plan at ``inst.big_m``, and the plan has been
    re-checked against every model rule. Nodes and iterations are summed
    over the slots, and ``options.node_limit`` is one budget that each slot
    draws what is left of. The first infeasible slot makes the instance
    infeasible; a slot that runs out of nodes makes the result NODE_LIMIT,
    with a plan only when every slot found one.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValueError(f"invalid instance: {problems[0].message}")
    priced = at_minimal_penalty(inst)
    jn, tn = inst.num_stations, inst.num_slots
    budget = None if options is None else options.node_limit
    placed = np.zeros((2, jn, tn))      # the alloc and dispatch blocks
    shortage = np.zeros(tn)
    status, found = MilpStatus.OPTIMAL, True
    objective = nodes = iterations = bound = 0
    for t in range(tn):
        if nodes == budget:
            # the shared budget is spent: this slot and the rest go unexplored
            status, found, bound = MilpStatus.NODE_LIMIT, False, -math.inf
            break
        one = slice(t, t + 1)
        slot = replace(priced, num_slots=1, capacity=priced.capacity[:, one],
                       hold_cost=priced.hold_cost[:, one],
                       dispatch_cost=priced.dispatch_cost[:, one],
                       demand=priced.demand[:, one])
        lp, _ = build_allocation_program(slot)
        slot_options = options if budget is None else replace(
            options, node_limit=budget - nodes)
        res = solve_milp(lp, slot_options)
        nodes += res.nodes
        iterations += res.iterations
        if res.status is MilpStatus.INFEASIBLE:
            status, found = res.status, False
            break
        if res.status is MilpStatus.NODE_LIMIT:
            status = res.status
        bound += res.best_bound
        found = found and res.x is not None
        if found:
            # a one-slot program's columns: alloc, dispatch, inventory, shortage
            objective += res.objective
            placed[:, :, t] = res.x[:2 * jn].reshape(2, jn)
            shortage[t] = res.x[-1]
    x = None
    if found:
        inventory = np.cumsum(placed[0] - placed[1], axis=1)
        x = np.concatenate([placed.ravel(), inventory.ravel(), shortage])
    res = MilpSolution(status, x, objective if found else None, nodes=nodes,
                       best_bound=bound, iterations=iterations)
    return outcome_from_milp(res, inst, priced.big_m, AllocationIndex(jn, tn),
                             _extract_plan, evaluate_allocation, "allocation")
