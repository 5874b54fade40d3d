"""Per-slot allocation planning (reposition freely between slots).

Decision variables, all integer, for stations j and slots t:

* ``alloc[j][t]``   vehicles placed at station j during slot t
* ``dispatch[j][t]`` vehicles from station j that answer calls in slot t
* ``inventory[j][t]`` running count of placed-but-idle vehicles
* ``shortage[t]``   calls in slot t that no covering vehicle answers

Placement must cover every zone's demand outright (a zone whose demand cannot
be covered makes the instance infeasible), while dispatch shortfalls are
merely priced at the ``big_m`` weight. Inventory ties consecutive slots
together through a balance equation but carries no cost, so the model
decomposes across slots; it is kept because reports show it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AllocationPlan,
    Instance,
    SolveOutcome,
    evaluate_allocation,
    outcome_from_milp,
    validate_instance,
)
from .engine import LinearProgram, LinearRow, MilpOptions, solve_milp


@dataclass(frozen=True)
class AllocationIndex:
    """Column layout of the allocation program: four contiguous blocks."""

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

    obj = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for j in range(jn):
        for t in range(tn):
            obj[ix.alloc(j, t)] = inst.hold_cost[j, t]
            obj[ix.dispatch(j, t)] = inst.dispatch_cost[j, t]
            upper[ix.alloc(j, t)] = inst.capacity[j, t]
    for t in range(tn):
        obj[ix.shortage(t)] = inst.big_m

    rows: list[LinearRow] = []
    # idle stock carried from the previous slot plus net placement
    for j in range(jn):
        for t in range(tn):
            coeffs = [(ix.inventory(j, t), 1.0),
                      (ix.alloc(j, t), -1.0), (ix.dispatch(j, t), 1.0)]
            if t > 0:
                coeffs.append((ix.inventory(j, t - 1), -1.0))
            rows.append(LinearRow(tuple(coeffs), "=", 0.0))
    # fleet cap per slot
    for t in range(tn):
        rows.append(LinearRow(
            tuple((ix.alloc(j, t), 1.0) for j in range(jn)),
            "<=", float(inst.fleet_size)))
    # placed coverage must meet each zone's demand
    for i in range(zn):
        for t in range(tn):
            coeffs = tuple((ix.alloc(j, t), 1.0)
                           for j in range(jn) if inst.coverage[j, i])
            rows.append(LinearRow(coeffs, ">=", float(inst.demand[i, t])))
    # dispatched coverage may fall short by the slot's shortage
    for i in range(zn):
        for t in range(tn):
            coeffs = tuple((ix.dispatch(j, t), 1.0)
                           for j in range(jn) if inst.coverage[j, i])
            rows.append(LinearRow(coeffs + ((ix.shortage(t), 1.0),),
                                  ">=", float(inst.demand[i, t])))
    # every call is either answered or counted short
    for t in range(tn):
        total = float(inst.demand[:, t].sum())
        coeffs = tuple((ix.dispatch(j, t), 1.0) for j in range(jn))
        rows.append(LinearRow(coeffs + ((ix.shortage(t), 1.0),), "=", total))
    # cannot dispatch more than was placed
    for j in range(jn):
        for t in range(tn):
            rows.append(LinearRow(
                ((ix.dispatch(j, t), 1.0), (ix.alloc(j, t), -1.0)),
                "<=", 0.0))

    lp = LinearProgram(n, obj, lower, upper, np.ones(n, dtype=bool), rows)
    return lp, ix


def _extract_plan(x: np.ndarray, ix: AllocationIndex) -> AllocationPlan:
    jn, tn = ix.num_stations, ix.num_slots
    jt = jn * tn
    vals = np.rint(x).astype(np.int64)
    return AllocationPlan(
        alloc=vals[:jt].reshape(jn, tn),
        dispatch=vals[jt:2 * jt].reshape(jn, tn),
        inventory=vals[2 * jt:3 * jt].reshape(jn, tn),
        shortage=vals[3 * jt:3 * jt + tn],
    )


def solve_allocation(inst: Instance,
                     options: MilpOptions | None = None) -> SolveOutcome:
    """Solve the allocation model to proven optimality.

    Raises ValueError on an invalid instance. On OPTIMAL the returned
    objective is the exact integer cost recomputed from the plan, and the
    plan has been re-checked against every model rule.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValueError(f"invalid instance: {problems[0].message}")
    lp, ix = build_allocation_program(inst)
    return outcome_from_milp(solve_milp(lp, options), inst, ix, _extract_plan,
                             evaluate_allocation, "allocation")
