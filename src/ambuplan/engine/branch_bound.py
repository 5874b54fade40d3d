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

The root relaxation may start from a given basis, the final basis of an
earlier solve over a program of the same shape, and the solution returns the
root's own final basis; the children start from the crash. A start from a
program over the same matrix object and senses also lends its standard form,
whose matrix and caches the new form shares, and its factor.

The search is serial, so repeated solves are bit-identical. A program without
integer columns closes at the root, whose relaxation is trivially integral.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator

import numpy as np

from .program import (
    LinearProgram,
    LpStatus,
    MilpSolution,
    MilpStatus,
    Start,
)
from .simplex import INTEGRALITY_TOL, build_standard_form, core_solve


def _integral_objective(lp: LinearProgram) -> bool:
    """True when the optimal value is provably an integer."""
    c = lp.objective
    if not np.all(c == np.round(c)):
        return False
    touched = np.flatnonzero(c)
    return bool(np.all(lp.integrality[touched] != 0))


def _exact_objective(lp: LinearProgram, x: np.ndarray) -> int:
    """``lp.objective @ x`` in Python integers, for an integral objective."""
    # rint rounds half to even, as round does
    nz = np.flatnonzero(lp.objective)
    c = np.rint(lp.objective[nz]).tolist()
    v = np.rint(x[nz]).tolist()
    return sum(map(operator.mul, map(int, c), map(int, v)))


def solve_milp(lp: LinearProgram, node_limit: int | None = None,
               start: Start | None = None) -> MilpSolution:
    """Minimize lp subject to its integrality flags.

    Statuses: OPTIMAL (x integral within 1e-6, objective proved optimal),
    INFEASIBLE, or NODE_LIMIT (budget exhausted; best_bound is still a valid
    lower bound and x/objective carry the incumbent, if any); ``node_limit``
    caps the number of nodes solved. Every upper bound must be finite,
    else ValueError (see build_standard_form). ``start`` is a
    ``MilpSolution.basis`` of an earlier solve, which the root relaxation
    starts from (see core_solve); its form is the ``like`` of the
    standard form (see build_standard_form).
    """
    int_idx = np.flatnonzero(lp.integrality)
    std = build_standard_form(lp, None if start is None else Start(*start).form)
    int_obj = _integral_objective(lp)
    best_obj: float | int | None = None
    best_x: np.ndarray | None = None
    root_basis = None
    nodes = iterations = 0

    def effective(bound: float) -> float | int:
        if int_obj and math.isfinite(bound):
            return math.ceil(bound - 1e-6)
        return bound

    def prunable(bound: float) -> bool:
        if best_obj is None or not math.isfinite(bound):
            return False
        if int_obj:
            return effective(bound) >= best_obj
        return bound >= best_obj - 1e-9 * (1.0 + abs(best_obj))

    # a node is (bound, seq, fixes), fixes a tuple of (var, is_upper, value);
    # the floor child is solved next, its sibling waits in the heap
    seq = itertools.count()
    heap: list[tuple[float, int, tuple]] = []
    plunge = (-math.inf, next(seq), ())
    while plunge or heap:
        bound, _, fixes = plunge or heapq.heappop(heap)
        plunge = None
        if prunable(bound):
            continue
        if node_limit is not None and nodes >= node_limit:
            # the popped node is still open, so its bound counts
            raw = min([n[0] for n in heap] + [bound])
            if best_obj is not None:
                raw = min(raw, best_obj)
            return MilpSolution(MilpStatus.NODE_LIMIT, best_x, best_obj,
                                nodes=nodes, best_bound=effective(raw),
                                iterations=iterations, basis=root_basis)
        lo = lp.lower.copy()
        hi = lp.upper.copy()
        for j, is_upper, v in fixes:
            (hi if is_upper else lo)[j] = v
        res = core_solve(std, lo, hi, None if fixes else start)
        if not fixes:
            root_basis = res.basis
        nodes += 1
        iterations += res.iterations
        if res.status is LpStatus.INFEASIBLE:
            continue
        if prunable(res.objective):
            continue
        x = res.x
        xi = x[int_idx]
        frac = xi - np.round(xi)
        if np.all(np.abs(frac) <= INTEGRALITY_TOL):
            x[int_idx] = np.round(xi)
            np.clip(x, lo, hi, out=x)
            val = _exact_objective(lp, x) if int_obj else float(lp.objective @ x)
            if best_obj is None or val < best_obj:
                best_obj, best_x = val, x
            continue
        j = int(int_idx[int(np.argmax(np.abs(frac)))])
        v = math.floor(float(x[j]))
        plunge = (res.objective, next(seq), fixes + ((j, True, v),))
        heapq.heappush(heap, (res.objective, next(seq), fixes + ((j, False, v + 1),)))
    if best_x is None:
        return MilpSolution(MilpStatus.INFEASIBLE, None, None, nodes=nodes,
                            best_bound=None, iterations=iterations, basis=root_basis)
    return MilpSolution(MilpStatus.OPTIMAL, best_x, best_obj, nodes=nodes,
                        best_bound=best_obj, iterations=iterations, basis=root_basis)
