"""Exact LP and MILP solving used by the planning models.

The public surface is small: build a LinearProgram, then call solve_lp for
the continuous relaxation or solve_milp to enforce integrality flags.
"""

from .branch_bound import solve_milp
from .program import (
    CscMatrix,
    EngineError,
    LinearProgram,
    LinearRow,
    LpSolution,
    LpStatus,
    MilpSolution,
    MilpStatus,
    NumericalBreakdownError,
    matrix_from_blocks,
)
from .simplex import FEAS_TOL, INTEGRALITY_TOL, PIVOT_TOL, solve_lp

__all__ = [
    "CscMatrix",
    "EngineError",
    "FEAS_TOL",
    "INTEGRALITY_TOL",
    "PIVOT_TOL",
    "LinearProgram",
    "LinearRow",
    "LpSolution",
    "LpStatus",
    "MilpSolution",
    "MilpStatus",
    "NumericalBreakdownError",
    "matrix_from_blocks",
    "solve_lp",
    "solve_milp",
]
