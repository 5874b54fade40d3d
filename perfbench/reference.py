"""Independent answers the benchmark checks ambuplan's solves against.

At benchmark scale the reference is HiGHS through ``scipy.optimize.milp``,
run on the same ``LinearProgram`` that ``build_*_program`` returns, with a
zero relative gap so that its objective is a proven optimum. At tiny scale
it is ambuplan's brute-force search. Every optimal plan must also pass the
exact evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

import ambuplan
from ambuplan import SolveStatus

BUILDERS = {"alloc": ambuplan.build_allocation_program,
            "transfer": ambuplan.build_transfer_program}
SOLVERS = {"alloc": ambuplan.solve_allocation,
           "transfer": ambuplan.solve_transfer}
EVALUATORS = {"alloc": ambuplan.evaluate_allocation,
              "transfer": ambuplan.evaluate_transfer}
BRUTE_FORCE = {"alloc": ambuplan.brute_force_allocation,
               "transfer": ambuplan.brute_force_transfer}


def milp_arguments(lp) -> dict:
    """Keyword arguments for ``scipy.optimize.milp`` equivalent to ``lp``."""
    from scipy.optimize import Bounds, LinearConstraint

    rows, cols, vals = [], [], []
    lo = np.full(lp.num_rows, -np.inf)
    hi = np.full(lp.num_rows, np.inf)
    for k, row in enumerate(lp.rows):
        for i, v in row.coeffs:
            rows.append(k)
            cols.append(i)
            vals.append(v)
        if row.relation in ("<=", "="):
            hi[k] = row.rhs
        if row.relation in (">=", "="):
            lo[k] = row.rhs
    A = sparse.csr_array((vals, (rows, cols)), shape=(lp.num_rows, lp.num_vars))
    return {
        "c": lp.objective,
        "integrality": lp.integrality.astype(int),
        "bounds": Bounds(lp.lower, lp.upper),
        "constraints": [LinearConstraint(A, lo, hi)] if lp.num_rows else [],
        "options": {"mip_rel_gap": 0},
    }


@dataclass(frozen=True)
class Reference:
    """A reference verdict: status, and the integer optimum when optimal."""

    status: SolveStatus
    objective: int | None


def highs_reference(lp) -> Reference:
    """Solve ``lp`` with HiGHS; raise when it gives no usable verdict."""
    from scipy.optimize import milp

    res = milp(**milp_arguments(lp))
    if res.status == 2:
        return Reference(SolveStatus.INFEASIBLE, None)
    if res.status != 0:
        raise RuntimeError(f"HiGHS gave no verdict: {res.message}")
    objective = int(round(res.fun))
    if abs(res.fun - objective) > 1e-6 * (1 + abs(res.fun)):
        raise RuntimeError(f"HiGHS objective {res.fun} is not an integer")
    return Reference(SolveStatus.OPTIMAL, objective)


def check_outcome(model: str, inst, outcome, ref: Reference,
                  evaluation: tuple | None = None) -> str | None:
    """Why ``outcome`` is wrong for ``inst``, or None when it is right.

    ``evaluation`` is the evaluator's (cost, violations) for the plan when
    the caller already has it.
    """
    if outcome.status is not ref.status:
        return f"status {outcome.status.value}, reference {ref.status.value}"
    if outcome.status is not SolveStatus.OPTIMAL:
        return None
    if outcome.objective != ref.objective:
        return f"objective {outcome.objective}, reference {ref.objective}"
    if evaluation is None:
        if outcome.plan is None:
            return "optimal status without a plan"
        evaluation = EVALUATORS[model](inst, outcome.plan)
    cost, violations = evaluation
    if violations:
        return f"plan violates {violations[0].kind}: {violations[0].message}"
    if cost != outcome.objective:
        return f"plan costs {cost}, solver reported {outcome.objective}"
    return None
