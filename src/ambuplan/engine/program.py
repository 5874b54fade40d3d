"""Problem and solution containers for the exact solver.

A :class:`LinearProgram` is a minimization over bounded variables subject to
the rows of one sparse constraint matrix. Integrality is a per-variable flag
interpreted by ``solve_milp``; ``solve_lp`` always solves the continuous
relaxation of whatever it is given. The matrix is a :class:`CscMatrix`,
three numpy arrays in compressed sparse column form. Every matrix built
from entries goes through ``CscMatrix.from_triplets``: both models' block
triplets, a scipy sparse matrix or dense array given to a program (read
through its attributes, so this module loads numpy only) and every
transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .simplex import StandardForm

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


class CscMatrix:
    """A sparse matrix in compressed sparse column form: column j holds the
    values ``data[indptr[j]:indptr[j + 1]]`` in the rows ``indices`` at the
    same positions, ascending. ``A @ x`` sums the entries per row with
    np.bincount; the product with the transpose is ``A.transpose() @ y``.
    """

    __slots__ = ("indptr", "indices", "data", "shape", "_cols")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
                 shape: tuple[int, int]):
        self.indptr, self.indices, self.data = indptr, indices, data
        self.shape = (int(shape[0]), int(shape[1]))
        self._cols = None

    @classmethod
    def from_triplets(cls, rows, cols, vals, shape: tuple[int, int]) -> CscMatrix:
        """The matrix with value vals[k] at (rows[k], cols[k]); repeated
        positions are summed in the order given, and entries that are zero
        are dropped. This is the one conversion of entries to CSC arrays:
        one stable sort on the column-major key ``col * m + row``."""
        m, n = shape
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        vals = np.asarray(vals, dtype=np.float64).ravel()
        if rows.size and (rows.min() < 0 or rows.max() >= m
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError(f"matrix entry index out of range for shape {shape}")
        key = cols * m + rows
        order = np.argsort(key, kind="stable")
        key, rows, vals = key[order], rows[order], vals[order]
        repeat = key[1:] == key[:-1]
        if repeat.any():
            first = np.flatnonzero(np.concatenate(([True], ~repeat)))
            key, rows, vals = key[first], rows[first], np.add.reduceat(vals, first)
        keep = vals != 0
        if not keep.all():
            key, rows, vals = key[keep], rows[keep], vals[keep]
        return cls(np.searchsorted(key, np.arange(n + 1) * m), rows, vals, shape)

    @classmethod
    def of(cls, A) -> CscMatrix:
        """A as a CscMatrix: a CscMatrix itself, a scipy sparse matrix (read
        through ``tocoo()``, without importing scipy) or a dense 2-d array."""
        if isinstance(A, CscMatrix):
            return A
        if hasattr(A, "tocoo"):
            coo = A.tocoo()
            return cls.from_triplets(coo.row, coo.col, coo.data, coo.shape)
        dense = np.asarray(A, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"A must be a 2-d matrix, got {dense.ndim} dimensions")
        rows, cols = np.nonzero(dense)
        return cls.from_triplets(rows, cols, dense[rows, cols], dense.shape)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def entry_columns(self) -> np.ndarray:
        """The column of each entry, built on first use."""
        if self._cols is None:
            self._cols = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        return self._cols

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.indices, self.data * x[self.entry_columns()],
                           minlength=self.shape[0])

    def combination(self, idx: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """sum_k weights[k] * A[:, idx[k]], from the entries of those
        columns only."""
        pos, lens = runs(self.indptr, idx)
        return np.bincount(self.indices[pos], self.data[pos] * np.repeat(weights, lens),
                           minlength=self.shape[0])

    def columns(self, idx: np.ndarray) -> CscMatrix:
        """The columns idx, in that order."""
        pos, lens = runs(self.indptr, idx)
        return CscMatrix(np.concatenate(([0], np.cumsum(lens))), self.indices[pos],
                         self.data[pos], (self.shape[0], len(idx)))

    def to_scipy(self):
        """This matrix as a scipy.sparse.csc_array over the same arrays;
        imports scipy."""
        from scipy.sparse import csc_array
        return csc_array((self.data, self.indices, self.indptr), shape=self.shape)

    def transpose(self) -> CscMatrix:
        """The transpose: its columns are this matrix's rows, each in
        ascending column order."""
        return CscMatrix.from_triplets(self.entry_columns(), self.indices, self.data,
                                       (self.shape[1], self.shape[0]))


def runs(indptr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of the runs idx (columns of a CSC matrix),
    run after run, and each run's length."""
    starts = indptr[idx]
    lens = indptr[idx + 1] - starts
    pos = np.repeat(starts - np.cumsum(lens) + lens, lens)
    pos += np.arange(pos.size)
    return pos, lens


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


class MilpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"


@dataclass
class LinearProgram:
    """min objective @ x  subject to  A x (sense) rhs, lower <= x <= upper.

    ``A`` is a CscMatrix, num_rows x num_vars (any sparse or dense matrix
    given is read into one, see CscMatrix.of). Row k reads ``<=`` when
    ``sense[k]`` is +1, ``>=`` when it is -1 and ``=`` when it is 0. Lower
    bounds are finite, upper bounds finite or +inf, but the engine solves
    boxed programs only: ``solve_lp`` and ``solve_milp`` require finite
    upper bounds. ``integrality[k]`` marks x_k as integer for ``solve_milp``.
    """

    num_vars: int
    objective: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    A: CscMatrix
    sense: np.ndarray
    rhs: np.ndarray

    def __post_init__(self) -> None:
        n = self.num_vars = int(self.num_vars)
        self.objective = np.asarray(self.objective, dtype=np.float64)
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        self.integrality = np.asarray(self.integrality, dtype=bool)
        self.A = CscMatrix.of(self.A)
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
        A = CscMatrix.from_triplets(k, i, v, (len(rows), int(num_vars)))
        return cls(num_vars, objective, lower, upper, integrality, A,
                   [SENSES[row.relation] for row in rows], [row.rhs for row in rows])

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def rows(self) -> list[LinearRow]:
        """The constraints as LinearRows, rebuilt from A (a read-only view)."""
        A = self.A.transpose()
        ends = zip(A.indptr[:-1].tolist(), A.indptr[1:].tolist())
        return [LinearRow(tuple(zip(A.indices[s:e].tolist(), A.data[s:e].tolist())),
                          _RELATIONS[sense], rhs)
                for (s, e), sense, rhs in zip(ends, self.sense.tolist(), self.rhs.tolist())]


class Start(NamedTuple):
    """The final basis of a solve, which a later solve may start from.

    ``basis`` is the column in each basis position and ``dirn`` each
    column's direction (-1 at its lower bound, +1 at its upper, 0 basic or
    fixed). ``form`` is the standard form that was solved, and ``factor``
    the fresh factorization of the basis over ``form.A`` that the solve
    ended on. A later solve over a form with the same A object, whatever
    its costs, bounds and right-hand side, starts from the basis on that
    factor; any other solve ignores the start.
    """

    basis: np.ndarray
    dirn: np.ndarray
    form: StandardForm
    factor: Any


@dataclass(frozen=True)
class LpSolution:
    """Continuous solve result. x and objective are None unless OPTIMAL.

    At OPTIMAL, ``basis`` is the final basis and its factor, a Start.
    """

    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    basis: Start | None = None


@dataclass(frozen=True)
class MilpSolution:
    """Integer solve result.

    At OPTIMAL, ``best_bound == objective`` and every flagged variable in
    ``x`` is exactly integral (rounded after passing the integrality
    tolerance). At NODE_LIMIT, ``objective``/``x`` describe the incumbent
    (None when none was found) and ``best_bound`` is a valid lower bound on
    the true optimum. ``basis`` is the root relaxation's final basis and
    its factor (a Start), None when the root was not solved to optimality.
    """

    status: MilpStatus
    x: np.ndarray | None
    objective: float | None
    nodes: int = 0
    best_bound: float | None = None
    iterations: int = 0
    basis: Start | None = None
