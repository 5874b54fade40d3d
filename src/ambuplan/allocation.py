"""Per-slot allocation planning (reposition freely between slots).

Decision variables, all integer, for stations j and slots t:

* ``alloc[j][t]``   vehicles placed at station j during slot t
* ``dispatch[j][t]`` vehicles from station j that answer calls in slot t
* ``shortage[t]``   calls in slot t that no covering vehicle answers

Placement must cover every zone's demand outright (a zone whose demand cannot
be covered makes the instance infeasible), while dispatch shortfalls are
merely priced at the ``big_m`` weight. No balance equation ties one slot to
another, so the program separates exactly by slot, and its columns come in
one block per slot. The plan's ``inventory``, the placed-but-idle vehicles,
carries no cost and is not a program variable: ``dispatch <= alloc`` keeps
it nonnegative, and the plan derives it as the running sum of
``alloc - dispatch``.
``build_allocation_program`` writes the whole day as one program, for
inspection and independent checks; ``solve_allocation`` solves one small
program per slot and joins their blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    AllocationPlan,
    Instance,
    SolveOutcome,
    evaluate_allocation,
    outcome_from_milp,
    solving_form,
    validate_instance,
)
from .engine import (
    LinearProgram,
    MilpSolution,
    MilpStatus,
    matrix_from_blocks,
    solve_milp,
)


@dataclass(frozen=True)
class AllocationIndex:
    """Column layout of the allocation program: one block per slot holding
    its alloc, dispatch and shortage columns. The accessors take index
    arrays as well as ints."""

    num_stations: int
    num_slots: int

    def alloc(self, j: int, t: int) -> int:
        return t * (2 * self.num_stations + 1) + j

    def dispatch(self, j: int, t: int) -> int:
        return self.alloc(j, t) + self.num_stations

    def shortage(self, t: int) -> int:
        return self.alloc(0, t) + 2 * self.num_stations

    @property
    def num_vars(self) -> int:
        return self.alloc(0, self.num_slots)


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
    sizes = [tn, it.size, it.size, tn, jt.size]
    placed, dispatched, total, limit = np.cumsum(sizes[:-1]).tolist()
    blocks = [
        # fleet cap per slot
        (t, ix.alloc(j, t), 1.0),
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
    sense = np.repeat([1.0, -1.0, -1.0, 0.0, 1.0], sizes)
    demand = inst.demand.ravel()
    rhs = np.concatenate([np.full(tn, float(inst.fleet_size)), demand, demand,
                          inst.demand.sum(axis=0, dtype=float), np.zeros(jt.size)])
    # each slot's block: alloc, dispatch, shortage
    obj = np.column_stack([inst.hold_cost.T, inst.dispatch_cost.T,
                           np.full(tn, float(inst.big_m))]).ravel()
    upper = np.column_stack([inst.capacity.T, np.full((tn, jn + 1), np.inf)]).ravel()
    lp = LinearProgram(n, obj, np.zeros(n), upper, np.ones(n, dtype=bool),
                       matrix_from_blocks(blocks, (sense.size, n)), sense, rhs)
    return lp, ix


def _extract_plan(x: np.ndarray, ix: AllocationIndex) -> AllocationPlan:
    jn = ix.num_stations
    vals = np.rint(x).astype(np.int64).reshape(ix.num_slots, 2 * jn + 1)
    return AllocationPlan(vals[:, :jn].T, vals[:, jn:2 * jn].T, vals[:, -1])


def solve_allocation(inst: Instance, node_limit: int | None = None) -> SolveOutcome:
    """Solve the allocation model to proven optimality, one slot at a time.

    Raises ValueError on an invalid instance. The program is built for
    ``solving_form(inst)``: the fleet the stations can hold and the smallest
    ``big_m`` valid for it. On OPTIMAL the returned objective is the
    exact integer cost of the plan at ``inst.big_m``, and the plan has been
    re-checked against every model rule. Nodes and iterations are summed
    over the slots, and ``node_limit`` is one budget that each slot draws
    what is left of. The first infeasible slot makes the instance
    infeasible; a slot that runs out of nodes makes the result NODE_LIMIT,
    with a plan only when every slot found one.
    """
    priced = solving_form(inst, validate_instance(inst))
    blocks = []                         # each solved slot's columns
    status, found = MilpStatus.OPTIMAL, True
    objective = nodes = iterations = bound = 0
    for t in range(inst.num_slots):
        if nodes == node_limit:
            # the shared budget is spent: this slot and the rest go unexplored
            status, found, bound = MilpStatus.NODE_LIMIT, False, -math.inf
            break
        one = slice(t, t + 1)
        slot = replace(priced, num_slots=1, capacity=priced.capacity[:, one],
                       hold_cost=priced.hold_cost[:, one],
                       dispatch_cost=priced.dispatch_cost[:, one],
                       demand=priced.demand[:, one])
        lp, _ = build_allocation_program(slot)
        res = solve_milp(lp, None if node_limit is None else node_limit - nodes)
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
            objective += res.objective
            blocks.append(res.x)
    res = MilpSolution(status, np.concatenate(blocks) if found else None,
                       objective if found else None, nodes=nodes,
                       best_bound=bound, iterations=iterations)
    return outcome_from_milp(res, inst, priced.big_m,
                             AllocationIndex(inst.num_stations, inst.num_slots),
                             _extract_plan, evaluate_allocation, "allocation")
