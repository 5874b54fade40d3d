"""Bounded-variable dual simplex over a sparse revised formulation.

The program's constraint matrix is converted once into equality standard
form with one logical unit column per row (Maros, "Computational
Techniques of the Simplex Method", 2003, ch. 1): the slack of an
inequality row, or the artificial of an equality row, fixed on [0, 0] at
zero cost. Every solve and every branch-and-bound node works on that one
matrix, held as numpy CSC arrays (CscMatrix). The basis inverse is
represented by a factorization of the basis (``splu``, see "Factors"
below) plus a product-form eta file that is folded back into a fresh
factorization every REFACTOR_EVERY pivots. The crash basis gives every
inequality row to its slack, whatever value that leaves the slack, and
each equality row to a structural column singleton that can absorb the
row's residual within its bounds, else to the row's artificial at the
signed residual. An inequality row whose slack sits at
zero then takes instead a column that prices in, has no other nonzero in an
inequality row, and stays at its lower bound. On the preset-5 transfer
program (seed 42) those are the serve columns, one per station and slot.

A solve may instead start from the final basis of another solve, a Start
that ``core_solve`` returns and takes back. A solve ends on a fresh
factorization of its final basis, and the Start carries it with the form
it was made over. One rule decides: a start is used only when its form's
A is the solving form's A, the same object, and the solve then starts on
the start's factor without factoring the basis again. Any other start is
ignored and the solve runs from the crash, so a basis never meets a
matrix it was not factored on. Each nonbasic column then sits on the
bound its dirn names, and a column with lo == up is fixed. Model 1's slot
programs share one matrix, and ``build_standard_form`` lets each slot's
form share the previous one's A and caches. On the preset-5 day (seed 42)
each slot's optimal basis is optimal for the next slot at most slots: 22
pivots in all where the crash in every slot takes 530, and 2
factorizations where factoring each slot's start took 25.

The engine solves boxed programs only: every column has finite bounds.
A program's own upper bounds must be finite (``build_standard_form``
raises ValueError otherwise), and each slack takes the bound that the
row's activity over the structural box implies (Andersen & Andersen,
Math. Prog. 71, 1995). So no program is unbounded, and every start
prices out after bound flips, without a phase 1 (Koberstein, PhD thesis,
Paderborn 2005, ch. 4).

Every solve runs the dual simplex from its start. That start must price
out (dirn * d <= the pricing tolerance 1e-7 + 1e-11 * |c_j| of every
nonbasic column). The crash and a given start each put the nonbasic
columns on their bounds one way (``place``), and the first factorization
computes the basic values. The crash basis is triangular,
and the crash computes its prices y, and from them d, without a
factorization; a given start is priced once on its first factorization.
A column that prices in flips to its other bound, where it prices out: at
the crash it is placed on its upper bound, and at a given start one ftran
of the flipped columns updates the basic values, as for the dual's own
flips.

The dual is feasible when no basic column violates its bounds by more
than FEAS_TOL scaled by 1 + its value; a feasible start costs no pivot.
Otherwise the dual pivots out the basic column with the largest bound
violation. Its ratio test takes the long step: the columns whose
breakpoints it passes flip to their other bound instead of each costing
a pivot. A dual ray proves the program infeasible whatever the costs,
and it is the only way a solve answers INFEASIBLE, apart from node bounds
that cross. On the preset-5 transfer program (seed 42) the dual takes
1,498 pivots. The feasible basis is optimal once it prices out on the
fresh factorization the dual ends on; where a column prices in there,
drift in the updated reduced costs hid it, and the start repeats from
that basis. The optimum must then pass a residual check and a bound check
on every column, the logicals included, or the solve raises
NumericalBreakdownError.

Per-pivot work follows the nonzeros of the pivot column w = B^-1 a_q (a
median 7% of the rows on the preset-5 transfer program) and of the pivot
row rather than the row count m or the column count:

- Each eta holds (r, w[r], idx, w[idx]) with idx the nonzeros of w other
  than the pivot row r, so ftran subtracts over idx and btran updates u[r]
  with one short dot product.
- A maintained direction per column, dirn (-1 movable at lower, +1
  movable at upper, 0 basic or fixed), turns pricing into one product
  dirn * d. Together with the basis it is the only record of a column's
  place: every lower bound is finite, so a nonbasic column sits on lo or up.
  It is set by ``place``, and each pivot updates only the entering and
  leaving entries and those of the columns it flips.
- The dual computes the reduced costs d = c - A^T B^-T c_B in full only
  after a factorization. A pivot on row r updates them from the pivot row,
  d -= (d_q / alpha_rq) * alpha_r with alpha_r = rho^T A and rho = B^-T e_r
  (alpha_rq = w_r), on the columns of that row only. The ratio test also
  reads only those columns. A bound flip changes neither the basis nor d
  and costs no btran; the basic values follow from one ftran of the
  flipped columns, summed from the CSC arrays.
- pivot_row forms alpha_r in one of two ways. rho is hyper-sparse, a
  median 8 nonzeros in 2,404 rows on the
  preset-5 transfer program, so the row can be gathered from the rows of
  A at rho's nonzeros, kept row-major by the StandardForm, and merged per
  column by a stable sort and np.add.reduceat (Hall & McKinnon,
  "Hyper-sparsity in the revised simplex method", Comp. Optim. Appl. 32,
  2005). The dense product A^T rho reads all of A instead, in a gather, a
  product and np.bincount. Micro-timings on a 2-CPU Xeon host (Python
  3.11, numpy 2.4), over the pivot rows of real solves, put the product at
  about 3 us + 2.7 ns * (nnz(A) + N) and the gather at about 16 us + 40 ns
  per entry gathered, estimated as nnz(rho) * nnz(A) / m: PRODUCT_NS,
  PRODUCT_ENTRY_NS, GATHER_NS and GATHER_ENTRY_NS. Each solve turns this
  model into the count of rho's nonzeros below which pivot_row gathers; on
  small programs that count is 0 and rho is not even scanned. The two tie
  near the preset-3 transfer program (nnz(A) + N about 6.3k, about 20 us
  each), which gathers when rho has at most 7 nonzeros. Tiny programs,
  the allocation slot programs (at most 1.7k) and the preset-1 and preset-2
  transfer programs take the product, and the preset-4 and preset-5
  transfer programs (19k and 54k) the gather, 23-31 us against 53-150 us.
- A pivot whose ratio test flips columns solves its entering column and
  the flips' moved sum in one two-column call of the factor, so every
  pivot costs one btran and one ftran. On the preset-5 transfer program
  (seed 42) that is 3,092 SuperLU solves for 1,498 pivots. Measured
  when that solve took 1,482 pivots, one call made 3,060 solves where a
  separate ftran for the flips took 3,956.

Factors. ``splu`` factors each basis in one of two ways. A basis of at
most TRIANGULAR_ROWS rows is first peeled by row singletons (Suhl & Suhl,
ORSA J. Comput. 2, 1990). If that makes it triangular within
TRIANGULAR_LEVELS rounds, a numpy level-scheduled factor takes it: ftran
walks the rounds forward and btran walks them back, a few numpy calls per
round (Anderson & Saad, Int. J. High Speed Comput. 1, 1989). Any other
basis, with a bump or above either limit, goes to scipy's SuperLU, and
scipy is imported on the first such call. The level factor's gain is that
import, about 0.15 s of a CLI process; on most bases its solves are the
slower. Every basis met in solving preset 1 (seeds 42-61), presets 2-4
(seeds 0-1), preset 5 (seed 42) and tiny seeds 0-39 is triangular, and
each was timed with both factors on the host above. A level solve costs
about 2.1 us a round, SuperLU's about 3.8 us + 14 ns a row, so the level
solve is the faster only on bases of at most 2-3 rounds below 300 rows,
6 rounds at 952 rows and 11 at 2,404. Medians, level against SuperLU on
the same bases:

- allocation slot programs (52-142 rows, 2 rounds, at most 6): solves
  3.3-4.8 us against 4.2-5.3 us, factorizations 58-82 us against
  54-166 us; with about 8 solves a factorization the level factor does
  less work on every preset.
- transfer programs, with 40-64 solves a factorization: preset 1 (154
  rows, 7 rounds, at most 12) 13 us against 6 us; preset 2 (229 rows, 8
  rounds) 16 against 7; preset 3 (304, 10) 19 against 7.5; preset 4
  (952, 12) 27 against 16; preset 5 (2,404, 11) 33 against 31, where the
  peel and the level factor cost 0.40 ms against SuperLU's 0.34 ms.

TRIANGULAR_ROWS = 200 takes every allocation slot program and the
preset-1 transfer programs, so the CLI solves a preset-1 day with either
model without loading scipy, in about 0.17 s where it took 0.39 s. In
process that costs a preset-1 transfer solve about 1.5 ms of 15 ms.
Presets 2-5 transfer go to SuperLU without a peel: with the cap at 1,024
rows, in-process preset-3 and preset-4 transfer solves took about 20%
longer than on SuperLU (5 alternating runs of 15 solves each).
TRIANGULAR_LEVELS = 12 is the deepest basis met below that cap; a
12-round solve on the preset-1 transfer program costs 25-38 us against
SuperLU's 6-7 us.

REFACTOR_EVERY = 32 was chosen on preset 5 (seed 42), before the dual phase
and warm slot starts existed, when the allocation day took thousands of
primal pivots. Going from 64 to 32 then doubled the refactorizations
(transfer 68 -> 133, allocation 140 -> 227) but cut the time of the ftran
and btran eta loops by about 40%. The allocation day now takes 22 pivots
and factors twice; the transfer day factors 48 times over 1,498 pivots.
SuperLU orders each basis it takes by COLAMD and builds no relaxed
supernodes (relax=1, panel_size=1). On 20 of the preset-5 transfer bases
that cut the mean factorization from 993 to 660 us and the ftran/btran
solves from 103/70 to 72/57 us, for 1% more fill; the allocation slot
bases (about 10 us per solve) did not change.

Anti-cycling: once the dual objective has not risen for 5 * (num_vars +
num_rows) pivots, the dual takes Bland's rule: the lowest basic column
among the violated rows and the lowest-index column among the tied
ratios, flipping none. Pivots smaller than PIVOT_TOL are never accepted;
if no acceptable pivot exists after a fresh refactorization the solver
raises NumericalBreakdownError rather than guessing. core_solve makes one
run and retries nothing: no generator or random input has reached a
breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .program import (
    CscMatrix,
    LinearProgram,
    LpSolution,
    LpStatus,
    NumericalBreakdownError,
    Start,
    runs,
)

FEAS_TOL = 1e-9      # row/bound tolerance, scaled by 1 + |reference value|
DUAL_TOL = 1e-7      # reduced-cost tolerance, plus 1e-11 * |c_j| per column
PIVOT_TOL = 1e-7     # smallest acceptable pivot magnitude
INTEGRALITY_TOL = 1e-6
REFACTOR_EVERY = 32  # eta-file length before folding into a fresh LU
# the largest basis, in rows and in peel rounds, that the level factor
# takes (see the module docstring)
TRIANGULAR_ROWS, TRIANGULAR_LEVELS = 200, 12
# pivot_row's cost model, in ns: the product A^T rho, and the gather of the
# rows of A at rho's nonzeros (see the module docstring)
PRODUCT_NS, PRODUCT_ENTRY_NS = 3000.0, 2.7
GATHER_NS, GATHER_ENTRY_NS = 16000.0, 40.0


@dataclass
class StandardForm:
    """Equality form min c x, A x = b, lo <= x <= up shared across solves.

    The columns are the n_struct structural ones, then one logical column
    per row k, at n_struct + k, at zero cost: on an inequality row its
    slack, sense[k] e_k on [0, the row's room over the structural box], on
    an equality row its artificial, +e_k fixed on [0, 0]. ``source`` is the
    program's own matrix, the first n_struct columns of A; a form built
    later for a program over that same matrix object shares A, sense and
    the caches below (see build_standard_form).
    """

    m: int
    n_struct: int
    A: CscMatrix           # m x (n_struct + m)
    sense: np.ndarray      # per row: +1 for <=, -1 for >=, 0 for =
    b: np.ndarray
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    source: CscMatrix

    @cached_property
    def rows(self) -> CscMatrix:
        """A^T, whose columns are the rows of A, built on first use and
        shared by every solve over this form: pricing multiplies by it, and
        pivot_row gathers its columns."""
        return self.A.transpose()

    @cached_property
    def crash_columns(self) -> tuple[np.ndarray, ...]:
        """The structural columns the crash may put in an inequality row in
        place of its slack: two or more nonzeros, exactly one of them in an
        inequality row and of the sign of that row's slack, so that raising
        the column takes up the row's room as raising the slack does.

        Returns (cols, row, a, other, starts): each column's inequality row
        and its coefficient there, then the equality rows of its other
        nonzeros, concatenated, one run per column beginning at ``starts``.
        Built on first use and shared by every solve over this form.
        """
        indptr = self.A.indptr[:self.n_struct + 1]
        rows, vals = self.A.indices[:indptr[-1]], self.A.data[:indptr[-1]]
        sign = self.sense[rows]
        counts = indptr[1:] - indptr[:-1]

        def per_column(flags: np.ndarray) -> np.ndarray:
            run = np.concatenate(([0], np.cumsum(flags, dtype=np.intp)))[indptr]
            return run[1:] - run[:-1]

        fits = ((counts >= 2) & (per_column(sign != 0) == 1)
                & (per_column(sign * vals > 0) == 1))
        mine = np.repeat(fits, counts)
        ineq = mine & (sign != 0)
        cols = np.flatnonzero(fits)
        other = counts[cols] - 1
        return (cols, rows[ineq], vals[ineq], rows[mine & (sign == 0)],
                np.cumsum(other) - other)


def _slack_bounds(lp: LinearProgram) -> np.ndarray:
    """The upper bound of each row's slack, max(0, sense[k] * (rhs[k] -
    act[k])), with act[k] the row's activity over the box at the end that
    leaves the slack the most room: each entry a at its column's lower
    bound where a * sense[k] > 0, else at its upper (Andersen & Andersen,
    Math. Prog. 71, 1995). One np.bincount over A's entries."""
    A = lp.A
    cols = A.entry_columns()
    low = A.data * lp.sense[A.indices] > 0
    act = np.bincount(A.indices, A.data * np.where(low, lp.lower[cols], lp.upper[cols]),
                      minlength=lp.num_rows)
    return np.maximum(0.0, lp.sense * (lp.rhs - act))


# the caches of a StandardForm that depend on its A and sense only
_SHARED = ("rows", "crash_columns")


def build_standard_form(lp: LinearProgram, like: StandardForm | None = None) -> StandardForm:
    """Append one logical column per row: the row's slack, signed by its
    sense, or the artificial of an equality row.

    Every upper bound of lp must be finite, else ValueError. Each slack
    takes the bound of _slack_bounds. A row with no room over the box gets a
    slack on [0, 0] rather than an early answer, so the dual's ray stays
    the one proof of infeasibility. A node's tighter bounds leave these
    bounds valid.

    ``like`` is a form built earlier. When lp's matrix is like's source,
    the same object, and the senses are equal, the new form shares like's
    A and sense and the caches like has built, and only its costs, bounds
    and right-hand side are new. Otherwise the form is built from scratch.
    """
    m, n, A = lp.num_rows, lp.num_vars, lp.A
    if not np.isfinite(lp.upper).all():
        bad = int(np.argmin(np.isfinite(lp.upper)))
        raise ValueError(f"variable {bad}: upper bound {lp.upper[bad]} is not finite;"
                         " the engine solves boxed programs only")
    data = {"b": lp.rhs.copy(),
            "cost": np.concatenate([lp.objective, np.zeros(m)]),
            "lower": np.concatenate([lp.lower, np.zeros(m)]),
            "upper": np.concatenate([lp.upper, _slack_bounds(lp)])}
    if like is not None and like.source is A and np.array_equal(like.sense, lp.sense):
        std = replace(like, **data)
        std.__dict__.update((k, v) for k, v in like.__dict__.items() if k in _SHARED)
        return std
    ends = A.indptr[-1] + np.arange(1, m + 1, dtype=A.indptr.dtype)
    std_A = CscMatrix(np.concatenate([A.indptr, ends]),
                      np.concatenate([A.indices, np.arange(m, dtype=A.indices.dtype)]),
                      np.concatenate([A.data, np.where(lp.sense != 0, lp.sense, 1.0)]),
                      (m, n + m))
    return StandardForm(m=m, n_struct=n, A=std_A, sense=lp.sense.copy(), source=A, **data)


def _peel(B: CscMatrix) -> list[np.ndarray] | None:
    """Peel the square matrix B by row singletons (Suhl & Suhl, ORSA J.
    Comput. 2, 1990): each round takes every row with one entry left in the
    columns not yet taken, and takes that entry's column as its pivot.
    Returns the positions of each round's pivot entries in B's arrays, or
    None when a round finds no such row (a bump, or a structurally singular
    B) or B is deeper than TRIANGULAR_LEVELS rounds."""
    m = B.shape[0]
    erow, ecol = B.indices, B.entry_columns()
    epos = np.arange(erow.size)
    count = np.bincount(erow, minlength=m)
    levels, peeled = [], 0
    while peeled < m:
        if len(levels) == TRIANGULAR_LEVELS:
            return None
        single = count[erow] == 1
        pos = epos[single]
        if not pos.size:
            return None
        taken = np.zeros(m, dtype=bool)
        taken[ecol[single]] = True
        drop = taken[ecol]
        count -= np.bincount(erow[drop], minlength=m)
        keep = ~drop
        erow, ecol, epos = erow[keep], ecol[keep], epos[keep]
        levels.append(pos)
        peeled += pos.size
    return levels


class _LevelFactor:
    """A basis that the row-singleton peel made triangular, solved level by
    level (Anderson & Saad, Int. J. High Speed Comput. 1, 1989).

    Pivot p, in peel order, is the entry of row prow[p] in column pcol[p].
    In that order B is lower triangular, and the pivots of one peel round
    depend only on those of earlier rounds: ftran walks the rounds forward,
    btran walks them back, each round one gather, product and
    np.add.reduceat over the off-pivot entries that reach it, stored
    divided by their pivot. ``solve`` has SuperLU's signature.
    """

    def __init__(self, B: CscMatrix, levels: list[np.ndarray]):
        m = B.shape[0]
        ppos = np.concatenate([np.zeros(0, dtype=np.intp)] + levels)
        cols = B.entry_columns()
        prow, pcol, piv = B.indices[ppos], cols[ppos], B.data[ppos]
        # each row's and each column's place in pivot order
        rank_r = np.empty(m, dtype=np.intp)
        rank_r[prow] = np.arange(m)
        rank_c = np.full(m, -1, dtype=np.intp)
        rank_c[pcol] = np.arange(m)
        if (rank_c < 0).any() or not piv.all():
            # two rows peeled on one column, or a zero pivot
            raise NumericalBreakdownError(
                "basis factorization failed: the triangular basis is singular")
        self.rank_r, self.rank_c, self.prow, self.pcol = rank_r, rank_c, prow, pcol
        self.inv = 1.0 / piv
        off = np.ones(B.nnz, dtype=bool)
        off[ppos] = False
        er, ec, ev = rank_r[B.indices[off]], rank_c[cols[off]], B.data[off]
        bounds = np.cumsum([0] + [p.size for p in levels]).tolist()

        # forward: each row past the first round has an entry in an earlier
        # column, so every segment of the reduceat is nonempty
        order = np.argsort(er, kind="stable")
        fr, fc = er[order], ec[order]
        fv = ev[order] * self.inv[fr]
        at = np.searchsorted(fr, bounds).tolist()
        second = bounds[min(1, len(levels))]
        starts = np.searchsorted(fr, np.arange(second, m))
        self.forward = [(s, e, fc[a:b], fv[a:b], starts[s - second:e - second] - a)
                        for s, e, a, b in zip(bounds[1:-1], bounds[2:], at[1:-1], at[2:])]

        # backward: the columns of one round that reach later rows
        order = np.argsort(ec, kind="stable")
        gc, gr = ec[order], er[order]
        gv = ev[order] * self.inv[gc]
        first = np.flatnonzero(np.concatenate(([True], gc[1:] != gc[:-1])))[:gc.size]
        targets = gc[first]
        at = np.searchsorted(gc, bounds).tolist()
        tat = np.searchsorted(targets, bounds).tolist()
        self.backward = []
        for k in range(len(levels) - 2, -1, -1):
            a, b = at[k], at[k + 1]
            if a == b:
                continue
            t = targets[tat[k]:tat[k + 1]]
            if t.size == bounds[k + 1] - bounds[k]:
                t = slice(bounds[k], bounds[k + 1])
            self.backward.append((t, gr[a:b], gv[a:b], first[tat[k]:tat[k + 1]] - a))

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """B^-1 rhs, or B^-T rhs for trans "T"; rhs one column or several
        side by side."""
        if rhs.ndim == 2:
            return np.array([self.solve(col, trans) for col in rhs.T]).T
        if trans == "N":
            x = rhs[self.prow] * self.inv
            for s, e, cols, vals, seg in self.forward:
                x[s:e] -= np.add.reduceat(vals * x[cols], seg)
            return x[self.rank_c]
        y = rhs[self.pcol] * self.inv
        for t, rows, vals, seg in self.backward:
            y[t] -= np.add.reduceat(vals * y[rows], seg)
        return y[self.rank_r]


def splu(B: CscMatrix):
    """Factor the basis matrix B. The returned factor's ``solve(rhs,
    trans="N")`` gives B^-1 rhs, or B^-T rhs for trans "T".

    A basis of at most TRIANGULAR_ROWS rows that the row-singleton peel
    makes triangular within TRIANGULAR_LEVELS rounds takes the level
    factor; any other goes to scipy's SuperLU, imported on the first such
    call, in COLAMD order without relaxed supernodes (see the module
    docstring). A singular basis raises NumericalBreakdownError.
    """
    if B.shape[0] <= TRIANGULAR_ROWS:
        levels = _peel(B)
        if levels is not None:
            return _LevelFactor(B, levels)
    from scipy.sparse.linalg import splu as superlu
    try:
        return superlu(B.to_scipy(), permc_spec="COLAMD", relax=1, panel_size=1)
    except RuntimeError as exc:
        raise NumericalBreakdownError(f"basis factorization failed: {exc}") from exc


class _Solver:
    """One bounded-simplex run over a shared StandardForm."""

    def __init__(self, std: StandardForm,
                 lo_struct: np.ndarray | None, hi_struct: np.ndarray | None,
                 start: Start | None = None):
        self.std = std
        m = self.m = std.m
        self.N = std.n_struct + m
        self.A, self.AT = std.A, std.rows
        # pivot_row gathers a row when rho has fewer nonzeros than this,
        # where the cost model of the module docstring puts the gather below
        # the product; on small programs no rho is that sparse
        nnz = std.A.nnz
        product_ns = PRODUCT_NS + PRODUCT_ENTRY_NS * (nnz + self.N)
        self.gather_nz = (product_ns - GATHER_NS) * m / (GATHER_ENTRY_NS * max(nnz, 1))
        self.c = std.cost
        # pricing tolerance per column, relative to its own true cost
        self.dtol = DUAL_TOL + 1e-11 * np.abs(self.c)
        rest = slice(std.n_struct, None)
        self.lo = std.lower if lo_struct is None else np.concatenate([lo_struct, std.lower[rest]])
        self.up = std.upper if hi_struct is None else np.concatenate([hi_struct, std.upper[rest]])
        self.x = np.zeros(self.N)
        self.basis = np.zeros(m, dtype=np.int64)
        self.lu = None
        # one (r, w[r], idx, w[idx]) per pivot, idx the other nonzeros of w
        self.etas: list[tuple[int, float, np.ndarray, np.ndarray]] = []
        self.dirn = None  # set by place, then kept by _apply
        # reduced costs: computed after a factorization, then updated per
        # pivot; refactor drops them
        self.d = None
        self.iterations = 0
        self.bland_threshold = 5 * (std.n_struct + m)
        self.max_iterations = 20000 + 50 * (m + self.N)
        # a start counts only over the matrix its factor was made on
        self.start = start if start is not None and start.form.A is std.A else None

    # ----- basis linear algebra -------------------------------------------

    def column(self, q: int) -> np.ndarray:
        s, e = self.A.indptr[q], self.A.indptr[q + 1]
        col = np.zeros(self.m)
        col[self.A.indices[s:e]] = self.A.data[s:e]
        return col

    def refactor(self, lu=None) -> None:
        """Factor the basis afresh, or take lu, a factor of this basis over
        this A, and recompute the basic values."""
        self.lu = splu(self.A.columns(self.basis)) if lu is None else lu
        self.etas = []
        self.d = None
        self.basic_values()

    def activity(self, x: np.ndarray) -> np.ndarray:
        """A x, summed over the columns where x is nonzero: most nonbasic
        columns sit on a zero bound."""
        nz = np.flatnonzero(x)
        return self.A.combination(nz, x[nz])

    def basic_values(self) -> None:
        """x_B = B^-1 (b - N x_N) on a fresh factorization, which sheds the
        drift of the per-pivot updates."""
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.lu.solve(self.std.b - self.activity(xn))

    def ftran(self, col: np.ndarray) -> np.ndarray:
        """B^-1 col, for one column or for several side by side."""
        v = self.lu.solve(col)
        for u in v.T if v.ndim == 2 else (v,):
            for r, wr, idx, vals in self.etas:
                t = u[r] / wr
                if t != 0.0:
                    u[idx] -= vals * t
                u[r] = t
        return v

    def btran(self, c: np.ndarray) -> np.ndarray:
        u = c.copy()
        for r, wr, idx, vals in reversed(self.etas):
            u[r] = (u[r] - vals @ u[idx]) / wr
        return self.lu.solve(u, trans="T")

    # ----- initialization --------------------------------------------------

    def crash_basis(self) -> np.ndarray:
        """Crash basis: every inequality row on its slack, or on a column
        that a zero slack makes room for; each equality row on a fitting
        column singleton, else on its artificial. Sets the basis only and
        returns the reduced costs d = c - A^T y at the basis's prices y
        (B^T y = c_B), which the crash builds without a factorization.

        The crash reads every column at its (finite) lower bound, where each
        basic value is its row's residual over its entry. A slack takes its
        row whatever value that leaves it; the dual repairs one off its
        bounds. An equality row whose residual is nonzero goes to a
        structural column with its only nonzero in that row, |a| >= PIVOT_TOL, when
        moving that column to lo + resid / a keeps it within this solve's
        bounds; the lowest such column wins (Bixby, ORSA J. Computing 4(3),
        1992). The other equality rows start on their artificials at the
        signed residual. That basis is diagonal, so y = c_B / diag(B).

        Then, if some structural column prices in at y, an inequality row
        whose slack sits at exactly zero takes a movable column of
        StandardForm.crash_columns in that row that prices in, and the slack
        leaves at 0. Among a row's candidates the most negative reduced cost
        wins, then the largest |basic value| in the column's other rows,
        then the lowest index (a triangular crash; Maros & Mitra, INFORMS J.
        Computing 10(2), 1998). The column's other rows are equality rows,
        each held by a column singleton or an artificial, so the basis
        stays triangular, and the column stays at its lower bound, so the
        start keeps every value. On such a row r, whose slack cost nothing,
        the price becomes y_r = d_q / a_rq. No allocation column prices in
        at the diagonal basis, so a slot program never looks for candidates.
        """
        std, n = self.std, self.std.n_struct
        resid = std.b - self.activity(self.lo)
        slack = std.sense != 0
        basis = n + np.arange(self.m)
        diag = np.where(slack, std.sense, 1.0)  # the logicals' entries, +-1
        value = diag * resid

        # structural column singletons, in column order
        indptr = std.A.indptr
        cols = np.flatnonzero(np.diff(indptr[:n + 1]) == 1)
        rows = std.A.indices[indptr[cols]]
        a = std.A.data[indptr[cols]]
        ok = ~slack[rows] & (resid[rows] != 0) & (np.abs(a) >= PIVOT_TOL)
        cols, rows, a = cols[ok], rows[ok], a[ok]
        x_new = self.lo[cols] + resid[rows] / a
        ok = (x_new >= self.lo[cols]) & (x_new <= self.up[cols])
        # the first occurrence of a row is its lowest fitting column
        rows, first = np.unique(rows[ok], return_index=True)
        basis[rows] = cols[ok][first]
        value[rows] = x_new[ok][first]
        diag[rows] = a[ok][first]
        y = self.c[basis] / diag
        d = self.c - self.AT @ y

        if (d[:n] < -self.dtol[:n]).any():
            cols, row, a, other, starts = std.crash_columns
            k = np.flatnonzero((value[row] == 0) & (self.lo[cols] < self.up[cols])
                               & (d[cols] < -self.dtol[cols]))
            if k.size:
                big = np.maximum.reduceat(np.abs(value[other]), starts)[k]
                k = k[np.lexsort((cols[k], -big, d[cols[k]], row[k]))]
                # the first occurrence of a row is its best candidate
                rows, first = np.unique(row[k], return_index=True)
                k = k[first]
                basis[rows] = cols[k]
                y[rows] = d[cols[k]] / a[k]
                d = self.c - self.AT @ y

        self.basis[:] = basis
        return d

    def place(self, upper: np.ndarray) -> None:
        """Put each nonbasic column on its upper bound where ``upper``, else
        on its lower bound; a column with lo == up is fixed, with dirn 0.
        The basic values are left to the next factorization or
        basic_values."""
        self.dirn = np.where(self.lo == self.up, 0.0, np.where(upper, 1.0, -1.0))
        self.dirn[self.basis] = 0.0
        self.x[:] = np.where(upper, self.up, self.lo)

    # ----- pricing and pivoting --------------------------------------------

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - self.AT @ self.btran(c[self.basis])

    def pivot_row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row r of B^-1 A: alpha_r = rho^T A with rho = B^-T e_r.

        Returns (cols, vals): distinct ascending columns that hold every
        nonzero of alpha_r, and alpha_r on them. The row is formed either
        by the dense product A^T rho, keeping its nonzeros, or by gathering
        the CSR rows of A at the nonzeros of rho and summing them per
        column, which keeps a column whose entries cancel. The size rule of
        the module docstring picks the one it expects to be cheaper.
        """
        e_r = np.zeros(self.m)
        e_r[r] = 1.0
        rho = self.btran(e_r)
        if self.gather_nz > 0:
            nz = np.flatnonzero(rho)
            if nz.size < self.gather_nz:
                # every row of A holds its logical: the gather is never empty
                R = self.std.rows
                pos, lens = runs(R.indptr, nz)
                cols = R.indices[pos]
                order = np.argsort(cols, kind="stable")
                cols = cols[order]
                vals = (R.data[pos] * np.repeat(rho[nz], lens))[order]
                first = np.flatnonzero(np.concatenate(([True], cols[1:] != cols[:-1])))
                return cols[first], np.add.reduceat(vals, first)
        alpha = self.AT @ rho
        cols = np.flatnonzero(alpha)
        return cols, alpha[cols]

    def run_dual(self, c: np.ndarray) -> bool:
        """Dual simplex on the costs c, from a freshly factored basis that
        prices out on them.

        Each pivot takes the basic column with the largest bound violation
        out onto the bound it violates, and brings in the column of its
        pivot row (see pivot_row) that keeps every reduced cost on its
        side; a fixed column, dirn 0, never enters. The reduced
        costs are updated on the columns of that row only. The columns whose
        breakpoints the ratio test passed first flip to their other bound
        (see _dual_ratio and flip), and the leaving column's step starts
        from its value after the flips. A flip is no iteration. The basic
        values are checked before the reduced costs are priced, so a
        feasible start costs no btran and no pivot. Returns True once the
        basis is primal feasible on a fresh factorization, False when a
        violated row has no eligible entering column there (a dual ray: the
        program is infeasible, whatever c).
        """
        z = float(c @ self.x)
        since_improve = 0

        while True:
            if self.iterations >= self.max_iterations:
                raise NumericalBreakdownError(
                    f"iteration cap {self.max_iterations} exceeded in the dual simplex")
            fresh = not self.etas
            xB = self.x[self.basis]
            below = self.lo[self.basis] - xB
            viol = np.maximum(below, xB - self.up[self.basis])
            rows = np.flatnonzero(viol > FEAS_TOL * (1.0 + np.abs(xB)))
            if not rows.size:
                if fresh:
                    return True
                # re-certify feasibility against a clean factorization
                self.refactor()
                continue
            if self.d is None:
                self.d = self.reduced_costs(c)
                z = float(c @ self.x)
            d = self.d
            bland = since_improve > self.bland_threshold
            if bland:
                r = int(rows[np.argmin(self.basis[rows])])
            else:
                r = int(rows[np.argmax(viol[rows])])
            s = 1.0 if below[r] > 0 else -1.0  # +1 below lower, -1 above upper

            cols, alpha = self.pivot_row(r)
            q, flips = self._dual_ratio(d, cols, alpha, s, bland, float(viol[r]))
            if q >= 0:
                alpha_q = float(alpha[np.searchsorted(cols, q)])
                if flips.size:
                    # one solve for the entering column and the flips' sum
                    delta, moved = self.moves(flips)
                    w, dx = self.ftran(np.column_stack([self.column(q), moved])).T
                else:
                    w = self.ftran(self.column(q))
            if q < 0 or not (w[r] * alpha_q > 0 and abs(w[r]) > PIVOT_TOL):
                # no entering column, or a pivot column that disagrees with
                # the pivot row: trust neither before a refactorization
                if not fresh:
                    self.refactor()
                    continue
                if q < 0:
                    return False
                raise NumericalBreakdownError(
                    "dual pivot row and column disagree on a fresh factorization")

            # each passed breakpoint crosses its whole range
            dz = 0.0
            if flips.size:
                self.flip(flips, delta, dx)
                dz = float(d[flips] @ delta)
            sigma = -float(self.dirn[q])
            leave = int(self.basis[r])
            bound = self.lo[leave] if s > 0 else self.up[leave]
            step = max((self.x[leave] - bound) / (sigma * w[r]), 0.0)
            self.iterations += 1
            dz += step * sigma * d[q]  # >= 0: the dual objective never falls
            if dz > 1e-9 * (1.0 + abs(z)):
                since_improve = 0
            else:
                since_improve += 1
            z += dz
            d[cols] -= (d[q] / alpha_q) * alpha
            d[q] = 0.0
            self._apply(q, sigma, w, step, r, s < 0)
            if len(self.etas) >= REFACTOR_EVERY:
                self.refactor()

    def _dual_ratio(self, d: np.ndarray, cols: np.ndarray, alpha: np.ndarray,
                    s: float, bland: bool, slope: float) -> tuple[int, np.ndarray]:
        """Entering column of a dual pivot on a row whose basic column
        violates its lower (s = +1) or upper (s = -1) bound by ``slope``, and
        the columns that flip to their other bound: (q, flips), q = -1 when
        no column is eligible.

        The pivot row is alpha on the columns cols, distinct and ascending,
        and zero elsewhere. Eligible are the movable nonbasic columns whose
        move pushes the leaving column towards that bound, dirn * s * alpha
        > pivot tol. Their breakpoints are the ratios |d_j| / |alpha_j|. The
        smallest wins; among (near-)ties the largest |alpha_j|, under
        Bland's rule the lowest index, and then nothing flips.

        Otherwise the test takes the long step (bound flipping; Koberstein,
        PhD thesis, Paderborn 2005, section 3.3): passing breakpoint j flips
        column j to its other bound, which lowers the slope by
        |alpha_j| * (up_j - lo_j). The first column whose range would turn
        the slope non-positive enters (the last one when none does), and
        every column passed before it flips. Among near-tied ratios at the
        entering one the largest |alpha_j| enters.
        The columns are sorted only when the smallest ratio's column leaves
        the slope positive, so a pivot without flips pays for no sort.
        """
        da = s * self.dirn[cols] * alpha  # |alpha| on eligible columns
        k = np.flatnonzero(da > PIVOT_TOL)
        if not k.size:
            return -1, k
        cols, da = cols[k], da[k]
        ratios = np.maximum(-self.dirn[cols] * d[cols], 0.0) / da
        t = float(ratios.min())
        tied = np.flatnonzero(ratios <= t + 1e-9 * (1.0 + t))
        if bland:
            return int(cols[tied[0]]), cols[:0]
        k = int(tied[np.argmax(da[tied])])
        q = int(cols[k])
        if da[k] * (self.up[q] - self.lo[q]) >= slope:
            return q, cols[:0]
        drop = da * (self.up[cols] - self.lo[cols])
        # breakpoints by ratio, the larger |alpha| first among equal ones
        order = np.lexsort((-da, ratios))
        i = min(int(np.searchsorted(np.cumsum(drop[order]), slope)), order.size - 1)
        rest = order[i:]
        t = float(ratios[rest[0]])
        tied = rest[ratios[rest] <= t + 1e-9 * (1.0 + t)]
        return int(cols[tied[np.argmax(da[tied])]]), cols[order[:i]]

    def moves(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The moves delta that take the nonbasic columns cols, each movable,
        across their whole range to their other bound, and the sum of their
        moved columns, sum_j a_j delta_j, gathered from the CSC arrays."""
        delta = -self.dirn[cols] * (self.up[cols] - self.lo[cols])
        return delta, self.A.combination(cols, delta)

    def flip(self, cols: np.ndarray, delta: np.ndarray, dx: np.ndarray) -> None:
        """Move the columns cols by their moves delta (see moves); dx, the
        ftran of their moved sum, updates the basic values: x_B -= dx."""
        self.x[self.basis] -= dx
        self.x[cols] = np.where(delta > 0, self.up[cols], self.lo[cols])
        self.dirn[cols] = -self.dirn[cols]

    def _apply(self, q: int, sigma: float, w: np.ndarray,
               step: float, r: int, upper: bool) -> None:
        """Move q by step in direction sigma into basis position r, whose
        column leaves onto its upper bound when ``upper``, else its lower;
        as in place, a leaving column with lo == up is fixed, with dirn 0."""
        nz = np.flatnonzero(w)
        if step != 0.0:
            self.x[self.basis[nz]] -= step * sigma * w[nz]
        enter_val = self.x[q] + sigma * step
        leave = int(self.basis[r])
        self.x[leave] = self.up[leave] if upper else self.lo[leave]
        fixed = self.lo[leave] == self.up[leave]
        self.dirn[leave] = 0.0 if fixed else 1.0 if upper else -1.0
        self.basis[r] = q
        self.dirn[q] = 0.0
        self.x[q] = enter_val
        idx = nz[nz != r]
        self.etas.append((r, float(w[r]), idx, w[idx]))

    # ----- driver -----------------------------------------------------------

    def solve(self) -> LpSolution:
        """Crash, or place the given start on its factor, then the dual
        simplex, repeated from its feasible basis until that prices out on
        a fresh factorization, and the final check."""
        if np.any(self.lo > self.up):
            return LpSolution(LpStatus.INFEASIBLE, None, None)
        c, start = self.c, self.start
        if start is None:
            # the columns that price in at the crash start on their upper
            # bound, every other column on its lower bound
            d = self.crash_basis()
            upper = d < -self.dtol
        else:
            # each nonbasic column on the bound its dirn names
            self.basis[:] = start.basis
            upper = start.dirn > 0
        self.place(upper)
        self.refactor(None if start is None else start.factor)
        if start is not None:
            d = self.d = self.reduced_costs(c)
        while True:
            # the start must price out: each column that prices in flips to
            # its other bound
            cols = np.flatnonzero(self.dirn * d > self.dtol)
            if cols.size:
                delta, moved = self.moves(cols)
                self.flip(cols, delta, self.ftran(moved))
            if not self.run_dual(c):
                return LpSolution(LpStatus.INFEASIBLE, None, None, self.iterations)
            # the feasible basis is optimal once it prices out on the fresh
            # factorization that run_dual ends on
            if self.d is None:
                self.d = self.reduced_costs(c)
            d = self.d
            if not (self.dirn * d > self.dtol).any():
                break
        self._verify()
        n = self.std.n_struct
        x = self.x[:n].copy()
        # run_dual returned on a fresh factorization of the final basis
        return LpSolution(LpStatus.OPTIMAL, x, float(self.c[:n] @ x), self.iterations,
                          Start(self.basis, self.dirn, self.std, self.lu))

    def _verify(self) -> None:
        """Exact-form residual and bound check on every column, the
        logicals too: an artificial off [0, 0] hides a violated row."""
        lo, up = self.lo, self.up
        resid = self.activity(self.x) - self.std.b
        row_tol = FEAS_TOL * (1.0 + np.abs(self.std.b))
        if not (np.all(np.abs(resid) <= row_tol * 100)
                and np.all(self.x >= lo - 1e-7 * (1.0 + np.abs(lo)))
                and np.all(self.x <= up + 1e-7 * (1.0 + np.abs(up)))):
            raise NumericalBreakdownError(
                "optimal basis failed residual verification")


def core_solve(std: StandardForm,
               lo_struct: np.ndarray | None = None,
               hi_struct: np.ndarray | None = None,
               start: Start | None = None) -> LpSolution:
    """Solve the continuous program over std with optional bound overrides,
    which must lie within the program's bounds (the slacks' bounds are
    implied by those).

    The solution's x spans the program's own variables, the structural
    columns; the logicals are left out. At OPTIMAL it also carries the
    final basis as a Start, which ``start`` takes back: a solve over a
    standard form with the same A object, whatever its costs, bounds and
    right-hand side, starts from that basis on its factor in place of the
    crash. A start over any other matrix is ignored. A numerical failure
    raises NumericalBreakdownError.
    """
    return _Solver(std, lo_struct, hi_struct, start=start).solve()


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Bounded-variable dual simplex on the continuous relaxation, from the
    crash basis with the columns that price in flipped.

    Statuses: OPTIMAL with a primal-feasible x (rows within FEAS_TOL scaled by
    1 + |rhs|) or INFEASIBLE. Integrality flags are ignored here. The
    solution is core_solve's over the program's standard form; an infinite
    upper bound raises ValueError (see build_standard_form).
    """
    return core_solve(build_standard_form(lp))
