"""Problem and solution containers for the exact solver.

A :class:`LinearProgram` is a minimization over bounded variables subject to
the rows of one sparse constraint matrix. Integrality is a per-variable flag
interpreted by ``solve_milp``; ``solve_lp`` always solves the continuous
relaxation of whatever it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import sparse

# row sense per relation, the sign a row's slack column carries
SENSES = {"<=": 1.0, ">=": -1.0, "=": 0.0}
_RELATIONS = {v: k for k, v in SENSES.items()}


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
    """One hand-written constraint: sum of (variable index, coefficient) REL rhs."""

    coeffs: tuple[tuple[int, float], ...]
    relation: str
    rhs: float

    def __post_init__(self) -> None:
        if self.relation not in SENSES:
            raise ValueError(f"relation must be one of {tuple(SENSES)},"
                             f" got {self.relation!r}")
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
    """min objective @ x  subject to  A x (sense) rhs, lower <= x <= upper.

    ``A`` is sparse, num_rows x num_vars. Row k reads ``<=`` when
    ``sense[k]`` is +1, ``>=`` when it is -1 and ``=`` when it is 0. Lower
    bounds are finite, upper bounds finite or +inf. ``integrality[k]`` marks
    x_k as integer for ``solve_milp``.
    """

    num_vars: int
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    A: sparse.csc_array
    sense: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_vars = int(self.num_vars)
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        self.integrality = np.asarray(self.integrality, dtype=bool)
        if not isinstance(self.A, sparse.csc_array) or self.A.dtype != np.float64:
            self.A = sparse.csc_array(self.A, dtype=np.float64)
        self.sense = np.asarray(self.sense, dtype=np.float64)
        self.rhs = np.asarray(self.rhs, dtype=np.float64)
        m = self.A.shape[0]
        for name, shape in (("objective", (n,)), ("lower", (n,)), ("upper", (n,)),
                            ("integrality", (n,)), ("A", (m, n)), ("sense", (m,)),
                            ("rhs", (m,))):
            if getattr(self, name).shape != shape:
                raise ValueError(f"{name} must have shape {shape},"
                                 f" got {getattr(self, name).shape}")
        for name, values in (("objective", self.objective), ("lower", self.lower),
                             ("A", self.A.data), ("rhs", self.rhs)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} entries must be finite")
        if not ((self.sense == 1) | (self.sense == 0) | (self.sense == -1)).all():
            raise ValueError("sense entries must be -1, 0 or 1")
        if not (self.lower <= self.upper).all():  # NaN upper bounds fail too
            bad = int(np.argmin(self.lower <= self.upper))
            raise ValueError(f"variable {bad}: lower bound {self.lower[bad]}"
                             f" is not at most upper bound {self.upper[bad]}")

    @classmethod
    def from_rows(cls, num_vars: int, objective, lower, upper, integrality,
                  rows=()) -> LinearProgram:
        """The program whose constraints are the hand-written LinearRows."""
        rows = list(rows)
        k, i, v = np.array([(k, i, v) for k, row in enumerate(rows) for i, v in row.coeffs],
                           dtype=np.float64).reshape(-1, 3).T
        A = sparse.csc_array((v, (k.astype(np.int64), i.astype(np.int64))),
                             shape=(len(rows), int(num_vars)))
        return cls(num_vars, objective, lower, upper, integrality, A,
                   [SENSES[row.relation] for row in rows], [row.rhs for row in rows])

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def rows(self) -> list[LinearRow]:
        """The constraints as LinearRows, rebuilt from A (a read-only view)."""
        A = self.A.tocsr()
        ends = zip(A.indptr[:-1].tolist(), A.indptr[1:].tolist())
        return [LinearRow(tuple(zip(A.indices[s:e].tolist(), A.data[s:e].tolist())),
                          _RELATIONS[sense], rhs)
                for (s, e), sense, rhs in zip(ends, self.sense.tolist(), self.rhs.tolist())]


def matrix_from_blocks(blocks, shape: tuple[int, int]) -> sparse.csc_array:
    """The CSC matrix of COO blocks ``(rows, cols, coeff)``: equal-length index
    arrays and the one coefficient their entries share. No entry may repeat."""
    rows, cols, coeffs = zip(*blocks)
    vals = np.repeat(np.array(coeffs, dtype=np.float64), [len(r) for r in rows])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    order = np.argsort(cols * shape[0] + rows)  # column-major; keys are unique
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=shape[1]))])
    return sparse.csc_array((vals[order], rows[order], indptr), shape=shape)


@dataclass(frozen=True)
class LpSolution:
    """Continuous solve result. x and objective are None unless OPTIMAL.

    At OPTIMAL, ``basis`` is the final ``(basis, dirn)`` of the standard
    form: the column in each basis position, and each column's direction
    (-1 at its lower bound, +1 at its upper, 0 basic or fixed). A later solve
    over a standard form of the same shape may start from it.
    """

    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    basis: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class MilpSolution:
    """Integer solve result.

    At OPTIMAL, ``best_bound == objective`` and every flagged variable in
    ``x`` is exactly integral (rounded after passing the integrality
    tolerance). At NODE_LIMIT, ``objective``/``x`` describe the incumbent
    (None when none was found) and ``best_bound`` is a valid lower bound on
    the true optimum. ``basis`` is the root relaxation's final basis (see
    LpSolution), None when the root was not solved to optimality.
    """

    status: MilpStatus
    x: np.ndarray | None
    objective: float | None
    nodes: int = 0
    best_bound: float | None = None
    iterations: int = 0
    basis: tuple[np.ndarray, np.ndarray] | None = None
