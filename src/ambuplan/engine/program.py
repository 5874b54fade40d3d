"""Problem and solution containers for the exact solver.

A :class:`LinearProgram` is a minimization over bounded variables subject to
sparse linear rows. Integrality is a per-variable flag interpreted by
``solve_milp``; ``solve_lp`` always solves the continuous relaxation of
whatever it is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

RELATIONS = ("<=", ">=", "=")


class EngineError(RuntimeError):
    """Base class for solver failures that are not a problem status."""


class NumericalBreakdownError(EngineError):
    """Raised when no numerically acceptable pivot exists.

    The solver refuses to return a possibly wrong answer instead of silently
    continuing with pivots below the stability threshold.
    """


class UnboundedProgramError(EngineError):
    """Raised when an integer solve meets an unbounded relaxation."""


@dataclass(frozen=True)
class LinearRow:
    """One constraint: sum of coeffs (variable index, coefficient) REL rhs."""

    coeffs: tuple[tuple[int, float], ...]
    relation: str
    rhs: float

    def __post_init__(self) -> None:
        if self.relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}, got {self.relation!r}")
        object.__setattr__(self, "coeffs",
                           tuple((int(i), float(v)) for i, v in self.coeffs))
        object.__setattr__(self, "rhs", float(self.rhs))


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class MilpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"


@dataclass
class LinearProgram:
    """min objective @ x  subject to  rows, lower <= x <= upper.

    Bounds may be +-inf. ``integrality[k]`` marks x_k as integer for
    ``solve_milp``.
    """

    num_vars: int
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    rows: list[LinearRow] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = int(self.num_vars)
        self.num_vars = n
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        self.integrality = np.asarray(self.integrality, dtype=bool)
        for name in ("objective", "lower", "upper", "integrality"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if np.any(np.isnan(self.objective)) or np.any(np.isinf(self.objective)):
            raise ValueError("objective coefficients must be finite")
        if np.any(self.lower > self.upper):
            bad = int(np.argmax(self.lower > self.upper))
            raise ValueError(
                f"variable {bad}: lower bound {self.lower[bad]} exceeds"
                f" upper bound {self.upper[bad]}")
        for k, row in enumerate(self.rows):
            if not isinstance(row, LinearRow):
                raise ValueError(f"row {k} is not a LinearRow")
            for i, _ in row.coeffs:
                if not 0 <= i < n:
                    raise ValueError(f"row {k} references variable {i},"
                                     f" num_vars is {n}")
            if np.isnan(row.rhs) or np.isinf(row.rhs):
                raise ValueError(f"row {k} has non-finite rhs")

    @property
    def num_rows(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class LpSolution:
    """Continuous solve result. x and objective are None unless OPTIMAL."""

    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0


@dataclass(frozen=True)
class MilpSolution:
    """Integer solve result.

    At OPTIMAL, ``best_bound == objective`` and every flagged variable in
    ``x`` is exactly integral (rounded after passing the integrality
    tolerance). At NODE_LIMIT, ``objective``/``x`` describe the incumbent
    (None when none was found) and ``best_bound`` is a valid lower bound on
    the true optimum.
    """

    status: MilpStatus
    x: np.ndarray | None
    objective: float | None
    nodes: int = 0
    best_bound: float | None = None
    iterations: int = 0


@dataclass(frozen=True)
class MilpOptions:
    """Search options: ``node_limit`` caps the number of nodes solved."""

    node_limit: int | None = None
