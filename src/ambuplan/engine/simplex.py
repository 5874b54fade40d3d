"""Bounded-variable dual simplex over a sparse revised formulation.

The program's constraint matrix is converted once into equality standard
form: a slack column per inequality row, then an artificial unit column per
row, fixed on [0, 0] at zero cost. Every solve and every branch-and-bound
node works on that one matrix. The basis inverse is represented by a sparse
LU factorization (scipy ``splu``) plus a product-form eta file that is
folded back into a fresh factorization every REFACTOR_EVERY pivots. The
crash basis gives every inequality row to its slack, whatever value that
leaves the slack, and each equality row to a structural column singleton
that can absorb the row's residual within its bounds, else to the row's
artificial at the signed residual. An inequality row whose slack sits at
zero then takes instead a column that prices in, has no other nonzero in an
inequality row, and stays at its lower bound. On the preset-5 transfer
program (seed 42) those are the serve columns, one per station and slot.

A solve may instead start from the final (basis, dirn) of another solve
over a standard form of the same shape, which ``core_solve`` returns and
takes back. Each nonbasic column then sits on the bound its dirn names; it
goes to its lower bound where that upper bound is now infinite, and a
column with lo == up is fixed. Model 1's slot programs share one matrix,
and on the preset-5 day (seed 42) each slot's optimal basis is optimal for
the next slot at most slots: 22 pivots in all where the crash in every
slot takes 530.

Every solve then runs the dual simplex from its start. That start must
price out (dirn * d <= the pricing tolerance 1e-7 + 1e-11 * |c_j| of every
nonbasic column). The crash basis is triangular, and the crash computes
its prices y, and from them d, without a factorization; a given start is
priced once on its first factorization. A column that prices in and has
a finite upper bound flips to its other bound, where it prices out: at
the crash it starts on its upper bound and the first factorization
computes the basic values, and at a given start one ftran of the flipped
columns updates them, as for the dual's own flips. Both models bound
every structural column that can price in, so only a slack, or a column
of a program outside them, can price in without an upper bound. Such a
column sends the start through dual phase 1: the dual simplex on the
auxiliary problem min c x, A x = 0, with each column without an upper
bound on [0, 1] and every other column fixed at 0 (Fourer, "Notes on the
dual simplex method", 1994; Koberstein, PhD thesis, Paderborn 2005,
ch. 4). Every movable column of it is boxed, so its start prices out
after flips. At its optimum either no column without an upper bound
prices in, and each column goes back to the program's bound it prices
out on, or one still does, and x is a ray of the program. The dual
simplex on zero costs, where every basis prices out, then decides between
UNBOUNDED and INFEASIBLE. On the generator corpus phase 1 runs only at
allocation slot starts, where a slack prices in.

The dual is feasible when no basic column violates its bounds by more
than FEAS_TOL scaled by 1 + its value; a feasible start costs no pivot.
Otherwise the dual pivots out the basic column with the largest bound
violation. Its ratio test takes the long step: the columns whose
breakpoints it passes flip to their other bound instead of each costing
a pivot. A dual ray proves the program infeasible whatever the costs. On
the preset-5 transfer program (seed 42) the dual takes 1,482 pivots. The
feasible basis is optimal once it prices out on the fresh factorization
the dual ends on; where a column prices in there, drift in the updated
reduced costs hid it, and the start repeats from that basis. The optimum
must then pass a residual check and a bound check on every column, the
artificials included, or the solve raises NumericalBreakdownError.

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
  It is set by the crash, the start or phase 1, and each pivot updates
  only the entering and leaving entries and those of the columns it flips.
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
  2005). The dense product A^T rho reads all of A instead, but in one
  scipy call. Micro-timings on a 2-CPU Xeon host (Python 3.11, numpy 2.4,
  scipy 1.17), over the pivot rows of real solves, put the product at
  about 4.5 us + 1.5 ns * (nnz(A) + N) and the gather at about 16 us +
  40 ns per entry gathered, estimated as nnz(rho) * nnz(A) / m:
  PRODUCT_NS, PRODUCT_ENTRY_NS, GATHER_NS and GATHER_ENTRY_NS. Each solve
  turns this model into the count of rho's nonzeros below which pivot_row
  gathers; on small programs that count is 0 and rho is not even scanned.
  The two tie near the preset-3 transfer program (nnz(A) + N about 6.5k,
  15-20 us each), so tiny programs, the allocation slot programs (at most
  2k) and the preset-1 and preset-2 transfer programs take the product,
  and the preset-4 and preset-5 transfer programs (20k and 58k) the
  gather, 23-31 us against 37-97 us.

REFACTOR_EVERY = 32 was chosen on preset 5 (seed 42), before the dual phase
existed. Going from 64 to 32 doubles the refactorizations (transfer 68 ->
133, allocation 140 -> 227) but cuts the time of the ftran and btran eta
loops by about 40%, a net gain that was largest on the allocation slot
programs. SuperLU orders each basis by COLAMD and builds no relaxed
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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .program import (
    LinearProgram,
    LpSolution,
    LpStatus,
    NumericalBreakdownError,
)

FEAS_TOL = 1e-9      # row/bound tolerance, scaled by 1 + |reference value|
DUAL_TOL = 1e-7      # reduced-cost tolerance, plus 1e-11 * |c_j| per column
PIVOT_TOL = 1e-7     # smallest acceptable pivot magnitude
INTEGRALITY_TOL = 1e-6
REFACTOR_EVERY = 32  # eta-file length before folding into a fresh LU
# pivot_row's cost model, in ns: the product A^T rho, and the gather of the
# rows of A at rho's nonzeros (see the module docstring)
PRODUCT_NS, PRODUCT_ENTRY_NS = 4500.0, 1.5
GATHER_NS, GATHER_ENTRY_NS = 16000.0, 40.0


@dataclass
class StandardForm:
    """Equality form min c x, A x = b, lo <= x <= up shared across solves.

    The columns are the structural ones, then one slack per inequality row,
    then one artificial +e_k per row k, fixed on [0, 0] at zero cost.
    """

    m: int
    n_struct: int
    n_real: int            # structural + slack columns; the artificials follow
    A: sparse.csc_array    # m x (n_real + m)
    slack_sign: np.ndarray  # per row: +1 for <=, -1 for >=, 0 without slack
    slack_col: np.ndarray  # per row: the column of its slack, where it has one
    b: np.ndarray
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    @cached_property
    def rows(self) -> sparse.csr_array:
        """A in row-major form, built on first use and shared by every solve
        over this form (pivot_row gathers its rows from it)."""
        return self.A.tocsr()

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
        sign = self.slack_sign[rows]
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


def build_standard_form(lp: LinearProgram) -> StandardForm:
    """Append one slack column per inequality row (equalities get none), then
    one artificial column per row."""
    m, n, A = lp.num_rows, lp.num_vars, lp.A
    slack_rows = np.flatnonzero(lp.sense)
    s = slack_rows.size
    # a unit column per slack, signed by its row's sense, then +e_k per row
    rows = np.concatenate([slack_rows, np.arange(m)]).astype(A.indices.dtype)
    ends = A.indptr[-1] + np.arange(1, s + m + 1, dtype=A.indptr.dtype)
    std_A = sparse.csc_array((np.concatenate([A.data, lp.sense[slack_rows], np.ones(m)]),
                              np.concatenate([A.indices, rows]),
                              np.concatenate([A.indptr, ends])), shape=(m, n + s + m))
    return StandardForm(m=m, n_struct=n, n_real=n + s, A=std_A,
                        slack_sign=lp.sense.copy(),
                        slack_col=n - 1 + np.cumsum(lp.sense != 0),
                        b=lp.rhs.copy(),
                        cost=np.concatenate([lp.objective, np.zeros(s + m)]),
                        lower=np.concatenate([lp.lower, np.zeros(s + m)]),
                        upper=np.concatenate([lp.upper, np.full(s, np.inf), np.zeros(m)]))


def _runs(indptr: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the entries of the runs idx (columns of a CSC matrix,
    rows of a CSR one), run after run, and each run's length."""
    starts = indptr[idx]
    lens = indptr[idx + 1] - starts
    pos = np.repeat(starts - np.cumsum(lens) + lens, lens)
    pos += np.arange(pos.size)
    return pos, lens


class _Solver:
    """One bounded-simplex run over a shared StandardForm."""

    def __init__(self, std: StandardForm,
                 lo_struct: np.ndarray | None, hi_struct: np.ndarray | None,
                 start: tuple[np.ndarray, np.ndarray] | None = None):
        self.std = std
        m, n_real = std.m, std.n_real
        self.m = m
        self.n_real = n_real
        self.N = n_real + m
        self.A, self.AT = std.A, std.A.T
        # pivot_row gathers a row when rho has fewer nonzeros than this,
        # where the cost model of the module docstring puts the gather below
        # the product; on small programs no rho is that sparse
        nnz = int(std.A.indptr[-1])
        product_ns = PRODUCT_NS + PRODUCT_ENTRY_NS * (nnz + self.N)
        self.gather_nz = (product_ns - GATHER_NS) * m / (GATHER_ENTRY_NS * max(nnz, 1))
        self.c = std.cost
        # pricing tolerance per column, relative to its own true cost
        self.dtol = DUAL_TOL + 1e-11 * np.abs(self.c)
        rest = slice(std.n_struct, None)
        self.lo = std.lower if lo_struct is None else np.concatenate([lo_struct, std.lower[rest]])
        self.up = std.upper if hi_struct is None else np.concatenate([hi_struct, std.upper[rest]])
        self.b = std.b  # dual_phase_1 solves on b = 0
        self.x = np.zeros(self.N)
        self.basis = np.zeros(m, dtype=np.int64)
        self.lu = None
        # one (r, w[r], idx, w[idx]) per pivot, idx the other nonzeros of w
        self.etas: list[tuple[int, float, np.ndarray, np.ndarray]] = []
        self.dirn = None  # from crash_basis or start_basis, then kept by _apply
        # reduced costs: computed after a factorization, then updated per
        # pivot; refactor drops them
        self.d = None
        self.iterations = 0
        self.bland_threshold = 5 * (std.n_struct + m)
        self.max_iterations = 20000 + 50 * (m + n_real)
        # a (basis, dirn) of another solve; one of another shape is ignored
        if start is not None and (start[0].shape != (m,) or start[1].shape != (self.N,)):
            start = None
        self.start = start

    # ----- basis linear algebra -------------------------------------------

    def column(self, q: int) -> np.ndarray:
        s, e = self.A.indptr[q], self.A.indptr[q + 1]
        col = np.zeros(self.m)
        col[self.A.indices[s:e]] = self.A.data[s:e]
        return col

    def refactor(self) -> None:
        try:
            # no relaxed supernodes: see the module docstring
            self.lu = splu(self.A[:, self.basis], permc_spec="COLAMD",
                           relax=1, panel_size=1)
        except RuntimeError as exc:
            raise NumericalBreakdownError(
                f"basis factorization failed: {exc}") from exc
        self.etas = []
        self.d = None
        self.basic_values()

    def basic_values(self) -> None:
        """x_B = B^-1 (b - N x_N) on a fresh factorization, which sheds the
        drift of the per-pivot updates."""
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.lu.solve(self.b - self.A @ xn)

    def ftran(self, col: np.ndarray) -> np.ndarray:
        v = self.lu.solve(col)
        for r, wr, idx, vals in self.etas:
            t = v[r] / wr
            if t != 0.0:
                v[idx] -= vals * t
            v[r] = t
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
        column singleton, else on its artificial. Returns the reduced costs
        d = c - A^T y at the basis's prices y (B^T y = c_B), which the crash
        builds without a factorization.

        A slack takes its row whatever value that leaves it; the dual phase
        repairs a negative one. An equality row whose residual is nonzero
        goes to a structural column with its only nonzero in that row,
        |a| >= PIVOT_TOL, when moving that column to x + resid / a keeps it
        within this solve's bounds; the lowest such column wins (Bixby, ORSA
        J. Computing 4(3), 1992). The other equality rows start on their
        artificials at the signed residual. Every other column starts at its
        (finite) lower bound. That basis is diagonal, so y = c_B / diag(B).

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
        std = self.std
        self.x[:] = self.lo
        resid = std.b - std.A @ self.x  # the artificials sit on 0
        sigma = std.slack_sign
        slack = sigma != 0
        basis = np.where(slack, std.slack_col, self.n_real + np.arange(self.m))
        value = np.where(slack, sigma * resid, resid)
        diag = np.where(slack, sigma, 1.0)

        # structural column singletons, in column order
        indptr = std.A.indptr
        cols = np.flatnonzero(np.diff(indptr[:std.n_struct + 1]) == 1)
        rows = std.A.indices[indptr[cols]]
        a = std.A.data[indptr[cols]]
        ok = ~slack[rows] & (resid[rows] != 0) & (np.abs(a) >= PIVOT_TOL)
        cols, rows, a = cols[ok], rows[ok], a[ok]
        x_new = self.x[cols] + resid[rows] / a
        ok = (x_new >= self.lo[cols]) & (x_new <= self.up[cols])
        # the first occurrence of a row is its lowest fitting column
        rows, first = np.unique(rows[ok], return_index=True)
        basis[rows] = cols[ok][first]
        value[rows] = x_new[ok][first]
        diag[rows] = a[ok][first]
        y = self.c[basis] / diag
        d = self.c - self.AT @ y

        n = std.n_struct
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
                value[rows] = self.x[cols[k]]
                y[rows] = d[cols[k]] / a[k]
                d = self.c - self.AT @ y

        self.basis[:] = basis
        self.x[basis] = value
        self.dirn = np.where(self.lo < self.up, -1.0, 0.0)
        self.dirn[basis] = 0.0
        return d

    def start_basis(self) -> None:
        """Place the start of another solve: its basis, and each nonbasic
        column on the bound its dirn names. A column at an upper bound that
        is now infinite goes to its lower bound, and a column with
        lo == up is fixed, with dirn 0, whatever its dirn was. The basic
        values follow at the first factorization."""
        basis, dirn = self.start
        self.basis[:] = basis
        self.place((dirn > 0) & np.isfinite(self.up))

    def place(self, upper: np.ndarray) -> None:
        """Put each nonbasic column on its upper bound where ``upper``, which
        must be finite there, else on its lower bound; a column with
        lo == up is fixed, with dirn 0. The basic values are left to the
        next factorization or basic_values."""
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
                # every row of A holds its artificial: the gather is never empty
                R = self.std.rows
                pos, lens = _runs(R.indptr, nz)
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
        side; the artificials sit on [0, 0] and never enter. The reduced
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
            dz = float(d[flips] @ self.flip(flips)) if flips.size else 0.0
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
        the slope non-positive, or that has no upper bound, enters (the last
        one when none does), and every column passed before it flips. Among
        near-tied ratios at the entering one the largest |alpha_j| enters.
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
        if not da[k] * (self.up[q] - self.lo[q]) < slope:
            return q, cols[:0]
        drop = da * (self.up[cols] - self.lo[cols])
        # breakpoints by ratio, the larger |alpha| first among equal ones
        order = np.lexsort((-da, ratios))
        i = min(int(np.searchsorted(np.cumsum(drop[order]), slope)), order.size - 1)
        rest = order[i:]
        t = float(ratios[rest[0]])
        tied = rest[ratios[rest] <= t + 1e-9 * (1.0 + t)]
        return int(cols[tied[np.argmax(da[tied])]]), cols[order[:i]]

    def flip(self, cols: np.ndarray) -> np.ndarray:
        """Move the nonbasic columns cols, each movable and boxed, across
        their whole range to their other bound. One ftran of the sum of
        their moved columns, gathered from the CSC arrays, updates the basic
        values: x_B -= B^-1 sum_j a_j delta_j. Returns the moves delta."""
        delta = -self.dirn[cols] * (self.up[cols] - self.lo[cols])
        pos, lens = _runs(self.A.indptr, cols)
        moved = np.bincount(self.A.indices[pos], self.A.data[pos] * np.repeat(delta, lens),
                            minlength=self.m)
        self.x[self.basis] -= self.ftran(moved)
        self.x[cols] = np.where(delta > 0, self.up[cols], self.lo[cols])
        self.dirn[cols] = -self.dirn[cols]
        return delta

    def _apply(self, q: int, sigma: float, w: np.ndarray,
               step: float, r: int, upper: bool) -> None:
        """Move q by step in direction sigma into basis position r, whose
        column leaves onto its upper bound when ``upper``, else its lower."""
        nz = np.flatnonzero(w)
        if step != 0.0:
            self.x[self.basis[nz]] -= step * sigma * w[nz]
        enter_val = self.x[q] + sigma * step
        leave = int(self.basis[r])
        self.dirn[leave] = 1.0 if upper else -1.0
        self.x[leave] = self.up[leave] if upper else self.lo[leave]
        if leave >= self.n_real:
            # an artificial that left the basis never returns
            self.dirn[leave] = 0.0
        self.basis[r] = q
        self.dirn[q] = 0.0
        self.x[q] = enter_val
        idx = nz[nz != r]
        self.etas.append((r, float(w[r]), idx, w[idx]))

    # ----- driver -----------------------------------------------------------

    def solve(self) -> LpSolution:
        """Crash, or place the given start, then the dual simplex, repeated
        from its feasible basis until that prices out on a fresh
        factorization, and the final check."""
        if np.any(self.lo > self.up):
            return LpSolution(LpStatus.INFEASIBLE, None, None)
        c = self.c
        if self.start is None:
            d = self.crash_basis()
            # every nonbasic column sits at its lower bound: the boxed ones
            # that price in start on their upper bound, and the
            # factorization computes the basic values
            flip = np.flatnonzero(self.dirn * d > self.dtol)
            flip = flip[np.isfinite(self.up[flip])]
            self.x[flip] = self.up[flip]
            self.dirn[flip] = 1.0
            self.refactor()
        else:
            self.start_basis()
            self.refactor()
            d = self.d = self.reduced_costs(c)
        while True:
            # the start must price out: each boxed column that prices in
            # flips to its other bound, and one without an upper bound
            # sends the start through dual phase 1
            cols = np.flatnonzero(self.dirn * d > self.dtol)
            if not np.isfinite(self.up[cols]).all():
                if not self.dual_phase_1(d):
                    return self.ray()
            elif cols.size:
                self.flip(cols)
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
        x_real = self.x[:self.n_real].copy()
        obj = float(self.c[:self.n_real] @ x_real)
        return LpSolution(LpStatus.OPTIMAL, x_real, obj, self.iterations,
                          (self.basis, self.dirn))

    def dual_phase_1(self, d: np.ndarray) -> bool:
        """Move the basis, whose reduced costs are d, to one at which no
        column without an upper bound prices in, by the dual simplex on
        the auxiliary problem min c x, A x = 0, each column without an
        upper bound on [0, 1] and every other column fixed at 0 (Fourer,
        "Notes on the dual simplex method", 1994; Koberstein, PhD thesis,
        Paderborn 2005, ch. 4).

        The auxiliary problem has the program's costs and basis, so the
        same reduced costs, and it boxes every movable column: its start
        prices out with the columns that price in on their upper bound 1,
        and x = 0 is feasible, so the dual reaches its optimum. There
        c x = sum of d_j over the columns at 1. A column without an upper
        bound that still prices in makes that sum negative, and then x is a
        ray, a direction that keeps every bound and row of the program and
        lowers its objective. Each nonbasic column then returns to the
        program's bound it prices out on, a column without an upper bound
        to its lower bound, and the basic values follow on the fresh
        factorization that the dual ends on. Returns False on a ray, with
        the basis placed all the same.
        """
        bounds = self.lo, self.up, self.b
        free = np.isinf(self.up)
        self.lo, self.up, self.b = np.zeros(self.N), free.astype(float), np.zeros(self.m)
        self.place(free & (d < -self.dtol))
        self.basic_values()
        self.d = d
        if not self.run_dual(self.c):
            raise NumericalBreakdownError("dual phase 1 found x = 0 infeasible")
        d = self.d if self.d is not None else self.reduced_costs(self.c)
        self.lo, self.up, self.b = bounds
        self.place(np.isfinite(self.up) & (d < -self.dtol))
        self.basic_values()
        self.d = d
        return not (self.dirn * d > self.dtol).any()

    def ray(self) -> LpSolution:
        """UNBOUNDED or INFEASIBLE after dual phase 1 found a ray: the dual
        simplex on zero costs, at which every basis prices out, decides
        whether the program has a feasible point for the ray to start from."""
        zero = np.zeros(self.N)
        self.d = zero.copy()
        status = LpStatus.UNBOUNDED if self.run_dual(zero) else LpStatus.INFEASIBLE
        return LpSolution(status, None, None, self.iterations)

    def _verify(self) -> None:
        """Exact-form residual and bound check on every column, the
        artificials too: one off [0, 0] hides a violated row."""
        lo, up = self.lo, self.up
        resid = self.A @ self.x - self.std.b
        row_tol = FEAS_TOL * (1.0 + np.abs(self.std.b))
        if not (np.all(np.abs(resid) <= row_tol * 100)
                and np.all(self.x >= lo - 1e-7 * (1.0 + np.abs(lo)))
                and np.all(self.x <= up + 1e-7 * (1.0 + np.abs(up)))):
            raise NumericalBreakdownError(
                "optimal basis failed residual verification")


def core_solve(std: StandardForm,
               lo_struct: np.ndarray | None = None,
               hi_struct: np.ndarray | None = None,
               start: tuple[np.ndarray, np.ndarray] | None = None) -> LpSolution:
    """Solve the continuous program over std with optional bound overrides.

    The solution's x spans the structural columns, then the slack columns;
    the artificials, zero at an optimum, are left out. At OPTIMAL it also
    carries the final (basis, dirn), which ``start`` takes back: a solve
    over a standard form of the same shape, whatever its costs, bounds and
    right-hand side, may start from it in place of the crash. A start of
    another shape is ignored. A numerical failure raises
    NumericalBreakdownError.
    """
    return _Solver(std, lo_struct, hi_struct, start=start).solve()


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Bounded-variable dual simplex on the continuous relaxation, from the
    crash basis with the boxed columns that price in flipped, through dual
    phase 1 where a column without an upper bound prices in.

    Statuses: OPTIMAL with a primal-feasible x (rows within FEAS_TOL scaled by
    1 + |rhs|), INFEASIBLE, or UNBOUNDED. Integrality flags are ignored here.
    """
    res = core_solve(build_standard_form(lp))
    if res.status is not LpStatus.OPTIMAL:
        return res
    x = res.x[:lp.num_vars].copy()
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.objective @ x), res.iterations)
