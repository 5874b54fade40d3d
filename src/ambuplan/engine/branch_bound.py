"""Best-bound branch and bound over the bounded-variable simplex.

Nodes are LP relaxations distinguished only by tightened variable bounds, so
each node is stored as the chain of bound fixes along its path from the root.
Selection is best-bound (smallest parent relaxation value) with depth-first
plunging on the floor child of the most recent branching. Branching picks the
integer variable whose value is farthest from an integer, lowest index on
ties.

When every cost coefficient is an integer and every variable it touches is
integer-constrained, node bounds are rounded up to the next integer before
pruning and incumbent objectives are computed in exact integer arithmetic, so
optimality proofs do not depend on floating-point dots.

The search is serial, so repeated solves are bit-identical. A program without
integer columns closes at the root, whose relaxation is trivially integral.
"""

from __future__ import annotations

import heapq
import math
import operator

import numpy as np

from .program import (
    LinearProgram,
    LpStatus,
    MilpSolution,
    MilpStatus,
    NumericalBreakdownError,
    UnboundedProgramError,
)
from .simplex import INTEGRALITY_TOL, StandardForm, build_standard_form, core_solve

# a node is (bound, seq, fixes); fixes is a tuple of (var, is_upper, value)
_Node = tuple[float, int, tuple]


def _integral_objective(lp: LinearProgram) -> bool:
    """True when the optimal value is provably an integer."""
    c = lp.objective
    if not np.all(c == np.round(c)):
        return False
    touched = np.flatnonzero(c)
    return bool(np.all(lp.integrality[touched] != 0))


def _materialize(lp: LinearProgram, fixes: tuple) -> tuple[np.ndarray, np.ndarray]:
    lo = lp.lower.copy()
    hi = lp.upper.copy()
    for j, is_upper, v in fixes:
        if is_upper:
            hi[j] = v
        else:
            lo[j] = v
    return lo, hi


class _Search:
    """Bookkeeping for one branch-and-bound run."""

    def __init__(self, lp: LinearProgram, std: StandardForm,
                 int_idx: np.ndarray, node_limit: int | None):
        self.lp = lp
        self.std = std
        self.int_idx = int_idx
        self.node_limit = node_limit
        self.int_obj = _integral_objective(lp)
        self.heap: list[_Node] = []
        self.stack: list[_Node] = []
        self.seq = 0
        self.best_obj: float | int | None = None
        self.best_x: np.ndarray | None = None
        self.nodes = 0
        self.iterations = 0

    # ----- bound handling ---------------------------------------------------

    def effective(self, bound: float) -> float | int:
        if self.int_obj and math.isfinite(bound):
            return math.ceil(bound - 1e-6)
        return bound

    def prunable(self, bound: float) -> bool:
        if self.best_obj is None or not math.isfinite(bound):
            return False
        eff = self.effective(bound)
        if self.int_obj:
            return eff >= self.best_obj
        return eff >= self.best_obj - 1e-9 * (1.0 + abs(self.best_obj))

    def incumbent_objective(self, x: np.ndarray) -> float | int:
        if self.int_obj:
            # exact in Python integers; rint rounds half to even, as round does
            nz = np.flatnonzero(self.lp.objective)
            c = np.rint(self.lp.objective[nz]).tolist()
            v = np.rint(x[nz]).tolist()
            return sum(map(operator.mul, map(int, c), map(int, v)))
        return float(self.lp.objective @ x)

    # ----- node processing ----------------------------------------------------

    def offer_incumbent(self, x: np.ndarray) -> None:
        obj = self.incumbent_objective(x)
        if self.best_obj is None or obj < self.best_obj:
            self.best_obj = obj
            self.best_x = x

    def process(self, fixes: tuple, res) -> list[_Node]:
        """Digest one solved relaxation; returns child nodes to enqueue."""
        if res.status is LpStatus.INFEASIBLE:
            return []
        if res.status is LpStatus.UNBOUNDED:
            if not fixes:
                raise UnboundedProgramError(
                    "relaxation is unbounded; no optimal integer point exists")
            raise NumericalBreakdownError(
                "child relaxation reported unbounded under tightened bounds")
        obj = res.objective
        if self.prunable(obj):
            return []
        x = res.x[:self.lp.num_vars].copy()
        xi = x[self.int_idx]
        frac = xi - np.round(xi)
        if np.all(np.abs(frac) <= INTEGRALITY_TOL):
            lo, hi = _materialize(self.lp, fixes)
            x[self.int_idx] = np.round(xi)
            np.clip(x, lo, hi, out=x)
            self.offer_incumbent(x)
            return []
        j = int(self.int_idx[int(np.argmax(np.abs(frac)))])
        v = math.floor(float(x[j]))
        down: _Node = (obj, self.next_seq(), fixes + ((j, True, v),))
        up: _Node = (obj, self.next_seq(), fixes + ((j, False, v + 1),))
        return [down, up]

    def next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def open_bounds(self) -> list[float]:
        return [n[0] for n in self.heap] + [n[0] for n in self.stack]

    def finish(self, hit_limit: bool) -> MilpSolution:
        if hit_limit:
            opens = self.open_bounds()
            raw = min(opens) if opens else (
                self.best_obj if self.best_obj is not None else -math.inf)
            if self.best_obj is not None:
                raw = min(raw, self.best_obj)
            return MilpSolution(MilpStatus.NODE_LIMIT, self.best_x,
                                self.best_obj, nodes=self.nodes,
                                best_bound=self.effective(raw),
                                iterations=self.iterations)
        if self.best_x is None:
            return MilpSolution(MilpStatus.INFEASIBLE, None, None,
                                nodes=self.nodes, best_bound=None,
                                iterations=self.iterations)
        return MilpSolution(MilpStatus.OPTIMAL, self.best_x, self.best_obj,
                            nodes=self.nodes, best_bound=self.best_obj,
                            iterations=self.iterations)


def _run_serial(search: _Search) -> MilpSolution:
    limit = search.node_limit
    search.stack.append((-math.inf, search.next_seq(), ()))
    while search.stack or search.heap:
        node = search.stack.pop() if search.stack else heapq.heappop(search.heap)
        bound, _, fixes = node
        if search.prunable(bound):
            continue
        if limit is not None and search.nodes >= limit:
            search.stack.append(node)               # still open: its bound counts
            return search.finish(hit_limit=True)
        lo, hi = _materialize(search.lp, fixes)
        res = core_solve(search.std, lo, hi)
        search.nodes += 1
        search.iterations += res.iterations
        children = search.process(fixes, res)
        if children:
            search.stack.append(children[0])       # plunge on the floor child
            heapq.heappush(search.heap, children[1])
    return search.finish(hit_limit=False)


def solve_milp(lp: LinearProgram, node_limit: int | None = None) -> MilpSolution:
    """Minimize lp subject to its integrality flags.

    Statuses: OPTIMAL (x integral within 1e-6, objective proved optimal),
    INFEASIBLE, or NODE_LIMIT (budget exhausted; best_bound is still a valid
    lower bound and x/objective carry the incumbent, if any); ``node_limit``
    caps the number of nodes solved. An unbounded relaxation raises
    UnboundedProgramError.
    """
    int_idx = np.flatnonzero(lp.integrality)
    std = build_standard_form(lp)
    return _run_serial(_Search(lp, std, int_idx, node_limit))
