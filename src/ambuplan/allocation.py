"""Per-slot allocation planning (reposition freely between slots).

Decision variables, all integer, for stations j and slots t:

* ``alloc[j][t]``   vehicles placed at station j during slot t
* ``dispatch[j][t]`` vehicles from station j that answer calls in slot t
* ``shortage[t]``   calls in slot t that no covering vehicle answers

Placement must cover every zone's demand outright (a zone whose demand cannot
be covered makes the instance infeasible), while dispatch shortfalls are
merely priced at the ``big_m`` weight. No balance equation ties one slot to
another, so the program separates exactly by slot, and its rows and
columns come in one block per slot. Every slot program has the same
constraint matrix, since coverage is the same in every slot; only demand,
costs and capacities differ. The plan's ``inventory``, the placed-but-idle vehicles,
carries no cost and is not a program variable: ``dispatch <= alloc`` keeps
it nonnegative, and the plan derives it as the running sum of
``alloc - dispatch``. Every column is boxed, as the engine requires:
alloc and dispatch by the station's capacity, shortage by the slot's
calls, bounds that ``dispatch <= alloc <= capacity`` and the slot's total
row imply. The engine bounds each slack by its row's room over that box.
``build_allocation_program`` writes the whole day as one program, whose
diagonal blocks are the slot programs. ``solve_allocation`` builds it once
and solves one small program per slot over the first block's matrix, with
the slot's own costs, bounds and right-hand side, each from the previous
slot's optimal root basis and its factor, and joins their blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    CscMatrix,
    LinearProgram,
    MilpSolution,
    MilpStatus,
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
    """Assemble the integer program; returns it with its column layout.

    Rows come in one block per slot, as columns do: the fleet row, the
    placed row of each zone, the dispatched row of each zone, the total row
    and the limit row of each station. So slot t's program is the diagonal
    block t, and every block holds the same matrix.
    """
    jn, zn, tn = inst.num_stations, inst.num_zones, inst.num_slots
    ix = AllocationIndex(jn, tn)
    n = ix.num_vars
    sizes = [1, zn, zn, 1, jn]
    # each slot's first fleet, placed, dispatched, total and limit row
    fleet, placed, dispatched, total, limit = (
        np.arange(tn)[:, None] * sum(sizes) + np.cumsum([0] + sizes[:-1])).T
    t, j = np.divmod(np.arange(tn * jn), jn)  # slot-major (t, j)
    t_i, i = np.divmod(np.arange(tn * zn), zn)  # slot-major (t, i)
    slot = np.arange(tn)
    cj, ci = np.nonzero(inst.coverage)  # covering (j, i) pairs, once per slot
    ct = np.repeat(slot, cj.size)
    cj, ci = np.tile(cj, tn), np.tile(ci, tn)
    blocks = [  # (rows, cols, the coefficient of their entries)
        # fleet cap per slot
        (fleet[t], ix.alloc(j, t), 1.0),
        # placed coverage must meet each zone's demand
        (placed[ct] + ci, ix.alloc(cj, ct), 1.0),
        # dispatched coverage may fall short by the slot's shortage
        (dispatched[ct] + ci, ix.dispatch(cj, ct), 1.0),
        (dispatched[t_i] + i, ix.shortage(t_i), 1.0),
        # every call is either answered or counted short
        (total[t], ix.dispatch(j, t), 1.0), (total, ix.shortage(slot), 1.0),
        # cannot dispatch more than was placed
        (limit[t] + j, ix.dispatch(j, t), 1.0), (limit[t] + j, ix.alloc(j, t), -1.0),
    ]
    sense = np.tile(np.repeat([1.0, -1.0, -1.0, 0.0, 1.0], sizes), tn)
    demand = inst.demand.T
    rhs = np.column_stack([np.full(tn, float(inst.fleet_size)), demand, demand,
                           inst.demand.sum(axis=0, dtype=float), np.zeros((tn, jn))]).ravel()
    # each slot's block: alloc, dispatch, shortage
    obj = np.column_stack([inst.hold_cost.T, inst.dispatch_cost.T,
                           np.full(tn, float(inst.big_m))]).ravel()
    # dispatch <= alloc <= capacity and the slot's total row imply the
    # dispatch and shortage bounds
    upper = np.column_stack([inst.capacity.T, inst.capacity.T,
                             inst.demand.sum(axis=0, dtype=float)]).ravel()
    rows, cols, coeffs = zip(*blocks)
    A = CscMatrix.from_triplets(np.concatenate(rows), np.concatenate(cols),
                                np.repeat(coeffs, [len(r) for r in rows]), (sense.size, n))
    lp = LinearProgram(n, obj, np.zeros(n), upper, np.ones(n, dtype=bool), A, sense, rhs)
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
    re-checked against every model rule. The day's program is built once,
    and slot t's program is its diagonal block t: every slot shares block
    0's matrix, and takes its own slices of the costs, bounds and
    right-hand side. So every slot after the first shares the first slot's
    standard form but for those, and its root relaxation starts from the
    previous slot's final root basis and the factor of it, which is often
    optimal for it already; the first slot starts from the crash. Nodes and
    iterations are summed over the slots, and ``node_limit`` is one budget
    that each slot draws what is left of. The first infeasible slot makes the instance
    infeasible; a slot that runs out of nodes makes the result NODE_LIMIT,
    with a plan only when every slot found one.
    """
    priced = solving_form(inst, validate_instance(inst))
    day, ix = build_allocation_program(priced)
    cols, rows = day.num_vars // ix.num_slots, day.num_rows // ix.num_slots
    end = day.A.indptr[cols]
    block = CscMatrix(day.A.indptr[:cols + 1], day.A.indices[:end], day.A.data[:end],
                      (rows, cols))
    blocks = []                         # each solved slot's columns
    status, found = MilpStatus.OPTIMAL, True
    objective = nodes = iterations = bound = 0
    start = None                        # the previous slot's root basis
    for t in range(inst.num_slots):
        if nodes == node_limit:
            # the shared budget is spent: this slot and the rest go unexplored
            status, found, bound = MilpStatus.NODE_LIMIT, False, -math.inf
            break
        c, r = slice(t * cols, (t + 1) * cols), slice(t * rows, (t + 1) * rows)
        lp = LinearProgram(cols, day.objective[c], day.lower[c], day.upper[c],
                           day.integrality[c], block, day.sense[r], day.rhs[r])
        res = solve_milp(lp, None if node_limit is None else node_limit - nodes, start)
        start = res.basis
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
    return outcome_from_milp(res, inst, priced.big_m, ix, _extract_plan,
                             evaluate_allocation, "allocation")
