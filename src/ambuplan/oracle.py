"""Exhaustive reference solvers for small instances.

These solvers enumerate plans outright, so they share no code or ideas with
the simplex engine and are the package's ground truth in tests. Both refuse
instances whose search space exceeds SEARCH_BUDGET rather than running for
hours; use tiny instances (a handful of stations, zones, slots, vehicles).

Each solver runs two passes. The first establishes the optimal cost with a
cost-ordered depth-first search under admissible per-slot bounds. The second
walks candidates in pure lexicographic order and returns the first plan (the
lexicographically least, slot by slot) that attains the optimum, so results
are deterministic and platform independent.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .core import (
    AllocationPlan,
    Instance,
    SolveOutcome,
    SolveStatus,
    TransferPlan,
    validate_instance,
)

SEARCH_BUDGET = 10_000_000


class SearchSpaceError(RuntimeError):
    """Instance is too large for exhaustive search; carries the size estimate."""

    def __init__(self, size: float, budget: int = SEARCH_BUDGET):
        self.size = size
        self.budget = budget
        super().__init__(
            f"estimated search space {size:.3g} exceeds the exhaustive-search"
            f" budget {budget:d}; use a smaller instance or the exact solver")


def _check_valid(inst: Instance) -> None:
    problems = validate_instance(inst)
    if problems:
        raise ValueError(f"invalid instance: {problems[0].message}")


def _vectors_upto(bounds: list[int], total: int) -> list[tuple[int, ...]]:
    """All nonnegative int vectors v <= bounds with sum(v) <= total, lex order."""
    out: list[tuple[int, ...]] = []
    cur: list[int] = []

    def rec(j: int, left: int) -> None:
        if j == len(bounds):
            out.append(tuple(cur))
            return
        for v in range(min(bounds[j], left) + 1):
            cur.append(v)
            rec(j + 1, left - v)
            cur.pop()

    rec(0, total)
    return out


def _vectors_exact(bounds: list[int], total: int) -> list[tuple[int, ...]]:
    """All nonnegative int vectors v <= bounds with sum(v) == total, lex order."""
    out: list[tuple[int, ...]] = []
    cur: list[int] = []
    suffix_cap = [0] * (len(bounds) + 1)
    for j in range(len(bounds) - 1, -1, -1):
        suffix_cap[j] = suffix_cap[j + 1] + bounds[j]

    def rec(j: int, left: int) -> None:
        if j == len(bounds):
            if left == 0:
                out.append(tuple(cur))
            return
        if left > suffix_cap[j]:
            return
        for v in range(min(bounds[j], left) + 1):
            cur.append(v)
            rec(j + 1, left - v)
            cur.pop()

    rec(0, total)
    return out


# ---------------------------------------------------------------------------
# allocation model
# ---------------------------------------------------------------------------

def _alloc_guard(inst: Instance) -> None:
    x_paths = 1.0
    worst_slot = 1.0
    for t in range(inst.num_slots):
        slot = 1.0
        for j in range(inst.num_stations):
            slot *= min(int(inst.capacity[j, t]), inst.fleet_size) + 1
        x_paths *= slot
        worst_slot = max(worst_slot, slot)
        if x_paths > SEARCH_BUDGET:  # avoid float overflow on silly inputs
            raise SearchSpaceError(x_paths * worst_slot)
    size = x_paths * worst_slot
    if size > SEARCH_BUDGET:
        raise SearchSpaceError(size)


def _alloc_slot_candidates(inst: Instance, t: int):
    """Feasible (cost, x, s, l) blocks for slot t, in lex order of (x, s)."""
    jn, zn = inst.num_stations, inst.num_zones
    caps = [min(int(inst.capacity[j, t]), inst.fleet_size) for j in range(jn)]
    demand = [int(inst.demand[i, t]) for i in range(zn)]
    total_demand = sum(demand)
    covers = [[j for j in range(jn) if inst.coverage[j, i]] for i in range(zn)]
    hold = [int(inst.hold_cost[j, t]) for j in range(jn)]
    disp = [int(inst.dispatch_cost[j, t]) for j in range(jn)]
    big_m = inst.big_m

    out = []
    for x in _vectors_upto(caps, inst.fleet_size):
        if any(sum(x[j] for j in covers[i]) < demand[i] for i in range(zn)):
            continue
        x_cost = sum(h * v for h, v in zip(hold, x))
        for s in _vectors_upto(list(x), total_demand):
            shortage = total_demand - sum(s)
            if any(sum(s[j] for j in covers[i]) + shortage < demand[i]
                   for i in range(zn)):
                continue
            cost = x_cost + sum(c * v for c, v in zip(disp, s)) \
                + big_m * shortage
            out.append((cost, x, s, shortage))
    out.sort(key=lambda cand: (cand[1], cand[2]))
    return out


def brute_force_allocation(inst: Instance) -> SolveOutcome:
    """Optimal allocation plan by exhaustive enumeration.

    Ties are broken to the lexicographically least (alloc block, dispatch
    block, shortage) reading slots first to last. Raises SearchSpaceError
    when the instance is too big to enumerate.
    """
    _check_valid(inst)
    _alloc_guard(inst)
    tn = inst.num_slots
    slots = [_alloc_slot_candidates(inst, t) for t in range(tn)]
    if any(not cands for cands in slots):
        return SolveOutcome(SolveStatus.INFEASIBLE, None, None)

    lower = [min(c[0] for c in cands) for cands in slots]
    tail = [0] * (tn + 1)
    for t in range(tn - 1, -1, -1):
        tail[t] = tail[t + 1] + lower[t]
    by_cost = [sorted(cands, key=lambda cand: cand[0]) for cands in slots]

    best = [None]
    explored = [0]

    def pass1(t: int, partial: int) -> None:
        if best[0] is not None and partial + tail[t] >= best[0]:
            return
        if t == tn:
            best[0] = partial
            return
        for cost, _, _, _ in by_cost[t]:
            if best[0] is not None and partial + cost + tail[t + 1] >= best[0]:
                break  # candidates are cost-sorted; the rest are no better
            explored[0] += 1
            pass1(t + 1, partial + cost)

    pass1(0, 0)
    opt = best[0]

    chosen: list[tuple] = []

    def pass2(t: int, partial: int) -> bool:
        if partial + tail[t] > opt:
            return False
        if t == tn:
            return partial == opt
        for cand in slots[t]:
            chosen.append(cand)
            if pass2(t + 1, partial + cand[0]):
                return True
            chosen.pop()
        return False

    if not pass2(0, 0):
        raise RuntimeError("search lost the optimum it had already proven")

    jn = inst.num_stations
    alloc = np.zeros((jn, tn), dtype=np.int64)
    dispatch = np.zeros((jn, tn), dtype=np.int64)
    shortage = np.zeros(tn, dtype=np.int64)
    for t, (_, x, s, sh) in enumerate(chosen):
        alloc[:, t] = x
        dispatch[:, t] = s
        shortage[t] = sh
    plan = AllocationPlan(alloc=alloc, dispatch=dispatch, shortage=shortage)
    return SolveOutcome(SolveStatus.OPTIMAL, opt, plan, nodes=explored[0])


# ---------------------------------------------------------------------------
# transfer model
# ---------------------------------------------------------------------------

def _transfer_guard(inst: Instance) -> None:
    traj = 1.0
    work = 0.0
    for t in range(inst.num_slots):
        slot = 1.0
        comp = 1.0
        for j in range(inst.num_stations):
            cap = min(int(inst.capacity[j, t]), inst.fleet_size)
            slot *= cap + 1
            zones = int(inst.coverage[j].sum())
            comp *= comb(cap + zones, zones)
        traj *= slot
        work += slot * comp
        if traj > SEARCH_BUDGET:
            raise SearchSpaceError(traj + work)
    if traj + work > SEARCH_BUDGET:
        raise SearchSpaceError(traj + work)


class _TransferSearch:
    def __init__(self, inst: Instance):
        self.inst = inst
        self.jn = inst.num_stations
        self.zn = inst.num_zones
        self.tn = inst.num_slots
        self.covered = [[i for i in range(self.zn) if inst.coverage[j, i]]
                        for j in range(self.jn)]
        self.memo: dict = {}
        # admissible completion bound per slot: each call costs at least the
        # lesser of its cheapest covering dispatch rate and the shortage
        # weight (with an empty fleet, a valid big_m may undercut every rate)
        self.slot_lb = []
        for t in range(self.tn):
            lb = 0
            for i in range(self.zn):
                unit = min([int(inst.dispatch_cost[j, t])
                            for j in range(self.jn) if inst.coverage[j, i]]
                           + [inst.big_m])
                lb += unit * int(inst.demand[i, t])
            self.slot_lb.append(lb)
        self.tail = [0] * (self.tn + 1)
        for t in range(self.tn - 1, -1, -1):
            self.tail[t] = self.tail[t + 1] + self.slot_lb[t]

    def caps(self, t: int) -> list[int]:
        return [min(int(self.inst.capacity[j, t]), self.inst.fleet_size)
                for j in range(self.jn)]

    def completion(self, t: int, stock: tuple[int, ...]):
        """Cheapest service assignment for the slot; lex-least among ties.

        Returns (cost, serve_rows) where serve_rows[j] lists served counts
        over self.covered[j].
        """
        key = (t, stock)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        inst = self.inst
        demand = [int(inst.demand[i, t]) for i in range(self.zn)]
        disp = [int(inst.dispatch_cost[j, t]) for j in range(self.jn)]
        big_m = inst.big_m
        best: list = [None, None]

        rows: list[tuple[int, ...]] = []
        served = [0] * self.zn

        def rec(j: int, cost: int) -> None:
            if best[0] is not None and cost >= best[0]:
                return  # dispatch cost alone already matches the incumbent
            if j == self.jn:
                total = cost + big_m * sum(d - v for d, v in zip(demand, served))
                if best[0] is None or total < best[0]:
                    best[0] = total
                    best[1] = tuple(rows)
                return
            zones = self.covered[j]
            budget = stock[j]

            row: list[int] = []

            def fill(k: int, left: int, add: int) -> None:
                if k == len(zones):
                    rows.append(tuple(row))
                    rec(j + 1, cost + add)
                    rows.pop()
                    return
                zone = zones[k]
                room = min(left, demand[zone] - served[zone])
                for v in range(room + 1):
                    row.append(v)
                    served[zone] += v
                    fill(k + 1, left - v, add + disp[j] * v)
                    served[zone] -= v
                    row.pop()

            fill(0, budget, 0)

        rec(0, 0)
        self.memo[key] = (best[0], best[1])
        return self.memo[key]

    def step_cost(self, t: int, prev: tuple[int, ...] | None,
                  stock: tuple[int, ...]) -> int:
        inst = self.inst
        cost = sum(int(inst.hold_cost[j, t]) * stock[j] for j in range(self.jn))
        if prev is not None:
            moved_in = sum(max(0, stock[j] - prev[j]) for j in range(self.jn))
            cost += inst.transfer_cost * moved_in
        cost += self.completion(t, stock)[0]
        return cost

    def children(self, t: int, prev: tuple[int, ...] | None) -> list[tuple[int, ...]]:
        if t == 0:
            return _vectors_upto(self.caps(0), self.inst.fleet_size)
        return _vectors_exact(self.caps(t), sum(prev))

    def solve(self) -> SolveOutcome:
        best = [None]
        explored = [0]

        def pass1(t: int, prev, partial: int) -> None:
            if best[0] is not None and partial + self.tail[t] >= best[0]:
                return
            if t == self.tn:
                best[0] = partial
                return
            kids = self.children(t, prev)
            costed = sorted(((self.step_cost(t, prev, s), s) for s in kids),
                            key=lambda p: p[0])
            for cost, s in costed:
                if best[0] is not None and partial + cost + self.tail[t + 1] >= best[0]:
                    break  # cost-sorted; the rest are no better
                explored[0] += 1
                pass1(t + 1, s, partial + cost)

        pass1(0, None, 0)
        opt = best[0]

        path: list[tuple[int, ...]] = []

        def pass2(t: int, prev, partial: int) -> bool:
            if partial + self.tail[t] > opt:
                return False
            if t == self.tn:
                return partial == opt
            for s in self.children(t, prev):
                path.append(s)
                if pass2(t + 1, s, partial + self.step_cost(t, prev, s)):
                    return True
                path.pop()
            return False

        if not pass2(0, None, 0):
            raise RuntimeError("search lost the optimum it had already proven")

        jn, zn, tn = self.jn, self.zn, self.tn
        stock = np.zeros((jn, tn), dtype=np.int64)
        serve = np.zeros((jn, zn, tn), dtype=np.int64)
        shortage = np.zeros((zn, tn), dtype=np.int64)
        for t, s in enumerate(path):
            stock[:, t] = s
            _, rows = self.completion(t, s)
            for j in range(jn):
                for k, i in enumerate(self.covered[j]):
                    serve[j, i, t] = rows[j][k]
            shortage[:, t] = self.inst.demand[:, t] - serve[:, :, t].sum(axis=0)
        plan = TransferPlan(stock=stock, serve=serve, shortage=shortage)
        return SolveOutcome(SolveStatus.OPTIMAL, opt, plan, nodes=explored[0])


def brute_force_transfer(inst: Instance) -> SolveOutcome:
    """Optimal transfer plan by exhaustive stock-trajectory enumeration.

    Transfers between consecutive stock vectors are the unique minimal ones
    (move exactly the surplus); ties are broken to the lexicographically
    least (stock block, serve block) reading slots first to last. Raises
    SearchSpaceError when the instance is too big to enumerate.
    """
    _check_valid(inst)
    _transfer_guard(inst)
    return _TransferSearch(inst).solve()
