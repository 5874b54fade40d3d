"""Bounded-variable primal and dual simplex over a sparse revised formulation.

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
program (seed 42) those are the serve columns, one per station and slot,
and phase 2 takes 2,367 pivots where the slack start took 3,776.

Every solve then runs the dual simplex from the crash basis. Its start must
price out (dirn * d <= the pricing tolerance for every nonbasic column). The
crash basis is triangular, and the crash computes its prices y, and from
them d, without a factorization. Each column that prices in gets the cost
c_j - d_j, which zeroes its reduced cost (cost modification; Koberstein,
PhD thesis, Paderborn 2005, ch. 4). Every allocation slot program and each
of its branch-and-bound children has no such column. The dual factors its
start once, and the start is feasible when no basic column violates its
bounds by more than FEAS_TOL scaled by 1 + its value; a feasible start costs
no pivot. Otherwise the dual pivots out the basic column with the largest
bound violation. Its ratio test takes the long step: the columns whose
breakpoints it passes flip to their other bound instead of each costing a
pivot. A dual ray proves the program infeasible whatever the costs.

Phase 2 then runs the primal simplex on the true costs from the feasible
basis. It restores the costs the dual shifted, finds an unbounded ray if
there is one, and certifies the optimum on a fresh factorization. The
optimum must then pass a residual check and a bound check on every column,
the artificials included.

Per-pivot work follows the nonzeros of the pivot column w = B^-1 a_q (a
median 7% of the rows on the preset-5 transfer program) and of the pivot
row rather than the row count m or the column count:

- Each eta holds (r, w[r], idx, w[idx]) with idx the nonzeros of w other
  than the pivot row r, so ftran subtracts over idx and btran updates u[r]
  with one short dot product.
- The ratio test looks only at rows with |w| > pivot tol, each against the
  bound that the sign of sigma * w selects.
- A maintained direction per column, dirn (-1 movable at lower, +1
  movable at upper, 0 basic or fixed), turns pricing into one product
  dirn * d. Together with the basis it is the only record of a column's
  place: every lower bound is finite, so a nonbasic column sits on lo or up.
  It is set by the crash, and each pivot updates only the entering and
  leaving entries and those of the columns a dual pivot flips.
- Phase 2 computes the reduced costs d = c - A^T B^-T c_B in full only
  after a factorization. A pivot on row r updates them from the pivot row,
  d -= (d_q / w_r) * alpha_r, with alpha_r = rho^T A and rho = B^-T e_r
  (alpha_rq = w_r). rho is hyper-sparse, a median 8 nonzeros in 2,404 rows
  on the preset-5 transfer program, so the product reads only the rows of
  A at rho's nonzeros, from a row-major copy that the StandardForm keeps
  (Hall & McKinnon, "Hyper-sparsity in the revised simplex method", Comp.
  Optim. Appl. 32, 2005). A bound flip changes neither the basis nor d and
  costs no btran. The dual forms its pivot row as a dense A^T rho, since
  its ratio test reads every column of it.

REFACTOR_EVERY = 32 was chosen on preset 5 (seed 42), before the dual phase
existed. Going from 64 to 32 doubles the refactorizations (transfer 68 ->
133, allocation 140 -> 227) but cuts the time of the ftran and btran eta
loops by about 40%, a net gain that was largest on the allocation slot
programs. The conservative retry refactorizes every 16 pivots. SuperLU
orders each basis by COLAMD and builds no relaxed supernodes (relax=1,
panel_size=1). On 20 of the preset-5 transfer bases that cut the mean
factorization from 993 to 660 us and the ftran/btran solves from 103/70 to
72/57 us, for 1% more fill; the allocation slot bases (about 10 us per
solve) did not change.

Anti-cycling: Dantzig pricing by default, switching to Bland's rule whenever
the objective has not improved for 5 * (num_vars + num_rows) iterations. The
dual phase counts stalls of its own objective the same way and then takes
the lowest basic column among the violated rows and the lowest-index column
among the tied ratios, flipping none. Pivots smaller than PIVOT_TOL are
never accepted; if no acceptable pivot exists after a fresh refactorization
the solver raises NumericalBreakdownError rather than guessing.
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
PIVOT_TOL = 1e-7     # smallest acceptable pivot magnitude
INTEGRALITY_TOL = 1e-6
REFACTOR_EVERY = 32  # eta-file length before folding into a fresh LU


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
        over this form (phase 2 gathers its pivot rows from it)."""
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


class _Solver:
    """One bounded-simplex run over a shared StandardForm."""

    def __init__(self, std: StandardForm,
                 lo_struct: np.ndarray | None, hi_struct: np.ndarray | None,
                 conservative: bool = False):
        self.std = std
        self.pivot_tol = 1e-6 if conservative else PIVOT_TOL
        self.refactor_every = 16 if conservative else REFACTOR_EVERY
        m, n_real = std.m, std.n_real
        self.m = m
        self.n_real = n_real
        self.N = n_real + m
        self.A, self.AT = std.A, std.A.T
        self.c = std.cost
        self.dtol = _dual_tol(self.c)  # pricing tolerance on the true costs
        rest = slice(std.n_struct, None)
        self.lo = std.lower if lo_struct is None else np.concatenate([lo_struct, std.lower[rest]])
        self.up = std.upper if hi_struct is None else np.concatenate([hi_struct, std.upper[rest]])
        self.x = np.zeros(self.N)
        self.basis = np.zeros(m, dtype=np.int64)
        self.lu = None
        # one (r, w[r], idx, w[idx]) per pivot, idx the other nonzeros of w
        self.etas: list[tuple[int, float, np.ndarray, np.ndarray]] = []
        self.dirn = None  # from crash_basis, then kept by _apply
        # reduced costs on the costs the running phase prices: computed after
        # each factorization, then updated per pivot; refactor drops them
        self.d = None
        self.updates_since_refactor = 0
        self.iterations = 0
        self.bland_threshold = 5 * (std.n_struct + m)
        self.max_iterations = 20000 + 50 * (m + n_real)

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
        self.updates_since_refactor = 0
        self.d = None
        # recompute basic values from scratch to shed accumulated drift
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.lu.solve(self.std.b - self.A @ xn)

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
        |a| >= pivot_tol, when moving that column to x + resid / a keeps it
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
        ok = ~slack[rows] & (resid[rows] != 0) & (np.abs(a) >= self.pivot_tol)
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

        if (d[:std.n_struct] < -self.dtol).any():
            cols, row, a, other, starts = std.crash_columns
            k = np.flatnonzero((value[row] == 0) & (self.lo[cols] < self.up[cols])
                               & (d[cols] < -self.dtol))
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

    # ----- pricing and pivoting --------------------------------------------

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        return c - self.AT @ self.btran(c[self.basis])

    def pivot_row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Row r of B^-1 A.

        Returns (cols, vals), whose sums per column are alpha_r = rho^T A
        with rho = B^-T e_r; a column may repeat. Only the CSR rows of A at
        the nonzeros of rho are read.
        """
        e_r = np.zeros(self.m)
        e_r[r] = 1.0
        rho = self.btran(e_r)
        nz = np.flatnonzero(rho)
        R = self.std.rows
        starts = R.indptr[nz]
        lens = R.indptr[nz + 1] - starts
        # positions of those rows' entries, one run per row
        pos = np.repeat(starts - np.cumsum(lens) + lens, lens)
        pos += np.arange(pos.size)
        return R.indices[pos], R.data[pos] * np.repeat(rho[nz], lens)

    def choose_entering(self, d: np.ndarray, dtol: float, bland: bool) -> int:
        if not self.N:
            return -1  # an empty program
        viol = self.dirn * d
        q = int(np.argmax(viol > dtol if bland else viol))
        return q if viol[q] > dtol else -1

    def run_phase(self) -> str:
        """Primal simplex on the true costs from a feasible basis; returns
        'optimal' or 'unbounded'.

        The reduced costs d are computed in full after each factorization.
        A pivot on row r updates them from the pivot row alpha_r (see
        pivot_row) as d -= (d_q / alpha_rq) * alpha_r, with alpha_rq = w_r,
        on the columns that row touches; a bound flip leaves them as they
        are. The artificials, fixed on [0, 0], are never priced.
        """
        c, dtol = self.c, self.dtol
        self.d = None  # a dual phase priced other costs
        since_improve = 0

        while True:
            if self.iterations >= self.max_iterations:
                raise NumericalBreakdownError(
                    f"iteration cap {self.max_iterations} exceeded in phase 2")
            # pricing against a clean factorization is trusted as-is
            fresh = not self.etas and self.updates_since_refactor == 0
            if self.d is None:
                self.d = self.reduced_costs(c)
                z = float(c @ self.x)
            d = self.d
            bland = since_improve > self.bland_threshold
            q = self.choose_entering(d, dtol, bland)
            if q < 0:
                if fresh:
                    return "optimal"
                # re-certify optimality against a clean factorization
                self.refactor()
                continue

            sigma = -float(self.dirn[q])  # into the column's range
            w = self.ftran(self.column(q))
            step, r = self._ratio(q, sigma, w, bland)
            if step is None:
                # no finite blocking step and no own bound to flip to
                if not fresh:
                    self.refactor()
                    continue
                return "unbounded"

            self.iterations += 1
            z_new = z + step * sigma * d[q]
            if z_new < z - 1e-9 * (1.0 + abs(z)):
                since_improve = 0
            else:
                since_improve += 1
            z = z_new
            if r >= 0:
                cols, vals = self.pivot_row(r)
                np.subtract.at(d, cols, (d[q] / w[r]) * vals)
                d[q] = 0.0
            self._apply(q, sigma, w, step, r, r >= 0 and sigma * w[r] < 0)
            if (len(self.etas) >= self.refactor_every
                    or self.updates_since_refactor >= 4 * self.refactor_every):
                self.refactor()

    def run_dual(self, c: np.ndarray) -> bool:
        """Dual simplex on the costs c, from a crash basis that prices out on
        them.

        Its start is the solve's first factorization. Each pivot takes the
        basic column with the largest bound violation out onto the bound it
        violates, and brings in the column that keeps every reduced cost on
        its side; the artificials sit on [0, 0] and never enter. The columns
        whose breakpoints the ratio test passed first flip to their other
        bound (see _dual_ratio); one ftran of their summed moves updates the
        basic values, and the leaving column's step starts from its value
        after the flips. A flip is no iteration. The basic values are checked
        before the reduced costs are priced, so a feasible start costs no
        btran and no pivot. Returns True once the basis is primal feasible
        on a fresh factorization, False when a violated row has no eligible
        entering column there (a dual ray: the program is infeasible,
        whatever c).
        """
        self.refactor()
        since_improve = 0

        while True:
            if self.iterations >= self.max_iterations:
                raise NumericalBreakdownError(
                    f"iteration cap {self.max_iterations} exceeded in the dual phase")
            fresh = not self.etas and self.updates_since_refactor == 0
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

            # pivot row alpha = rho^T A with rho = B^-T e_r
            e_r = np.zeros(self.m)
            e_r[r] = 1.0
            alpha = self.AT @ self.btran(e_r)
            q, flips = self._dual_ratio(d, alpha, s, bland, float(viol[r]))
            w = None if q < 0 else self.ftran(self.column(q))
            if q < 0 or not (w[r] * alpha[q] > 0 and abs(w[r]) > self.pivot_tol):
                # no entering column, or a pivot column that disagrees with
                # the pivot row: trust neither before a refactorization
                if not fresh:
                    self.refactor()
                    continue
                if q < 0:
                    return False
                raise NumericalBreakdownError(
                    "dual pivot row and column disagree on a fresh factorization")

            dz = 0.0
            if flips.size:
                # each passed breakpoint crosses its whole range; one ftran
                # of the sum of their columns moves the basic values
                delta = -self.dirn[flips] * (self.up[flips] - self.lo[flips])
                dz = float(d[flips] @ delta)
                self.x[self.basis] -= self.ftran(self.A[:, flips] @ delta)
                self.x[flips] = np.where(delta > 0, self.up[flips], self.lo[flips])
                self.dirn[flips] = -self.dirn[flips]
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
            d -= (d[q] / alpha[q]) * alpha
            d[q] = 0.0
            self._apply(q, sigma, w, step, r, s < 0)
            if (len(self.etas) >= self.refactor_every
                    or self.updates_since_refactor >= 4 * self.refactor_every):
                self.refactor()

    def _dual_ratio(self, d: np.ndarray, alpha: np.ndarray, s: float,
                    bland: bool, slope: float) -> tuple[int, np.ndarray]:
        """Entering column of a dual pivot on a row whose basic column
        violates its lower (s = +1) or upper (s = -1) bound by ``slope``, and
        the columns that flip to their other bound: (q, flips), q = -1 when
        no column is eligible.

        Eligible are the movable nonbasic columns whose move pushes the
        leaving column towards that bound, dirn * s * alpha > pivot tol.
        Their breakpoints are the ratios |d_j| / |alpha_j|. The smallest
        wins; among (near-)ties the largest |alpha_j|, under Bland's rule the
        lowest index, and then nothing flips.

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
        da = s * self.dirn * alpha  # |alpha| on eligible columns
        cols = np.flatnonzero(da > self.pivot_tol)
        if not cols.size:
            return -1, cols
        da = da[cols]
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

    def _ratio(self, q: int, sigma: float, w: np.ndarray,
               bland: bool) -> tuple[float | None, int]:
        """Largest step before a basic variable or q's own range blocks.

        Returns (step, r) with r the blocking basis position, or r = -1 for a
        bound flip of q itself, or (None, -1) when nothing blocks.
        """
        # only rows with an acceptable pivot can block; each one moves
        # towards the bound that the sign of sigma * w selects
        rows = np.flatnonzero(np.abs(w) > self.pivot_tol)
        r, step_basic = -1, np.inf
        if rows.size:
            sw = sigma * w[rows]
            j = self.basis[rows]
            steps = (self.x[j] - np.where(sw > 0, self.lo[j], self.up[j])) / sw
            np.maximum(steps, 0.0, out=steps)
            k = int(np.argmin(steps))
            step_basic = float(steps[k])
            if np.isfinite(step_basic):
                # among (near-)minimal steps prefer the largest pivot for
                # stability; under Bland's rule the lowest variable index
                cand = np.flatnonzero(steps <= step_basic + 1e-9 * (1.0 + step_basic))
                if bland:
                    k = int(cand[np.argmin(j[cand])])
                else:
                    k = int(cand[np.argmax(np.abs(sw[cand]))])
                r, step_basic = int(rows[k]), float(steps[k])

        step_self = self.up[q] - self.lo[q]  # inf without an upper bound
        if step_self <= step_basic:
            if not np.isfinite(step_self):
                return (None, -1)
            return (step_self, -1)
        if not np.isfinite(step_basic):
            return (None, -1)
        return (step_basic, r)

    def _apply(self, q: int, sigma: float, w: np.ndarray,
               step: float, r: int, upper: bool) -> None:
        """Move q by step in direction sigma; with r >= 0 the column in basis
        position r leaves onto its upper bound when ``upper``, else its lower."""
        nz = np.flatnonzero(w)
        if step != 0.0:
            self.x[self.basis[nz]] -= step * sigma * w[nz]
        if r < 0:
            # bound flip: q crosses its full range, basis unchanged
            self.x[q] = self.up[q] if sigma > 0 else self.lo[q]
            self.dirn[q] = sigma
            self.updates_since_refactor += 1
            return
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
        self.updates_since_refactor += 1

    # ----- driver -----------------------------------------------------------

    def solve(self) -> LpSolution:
        """Crash, then the dual on costs shifted until the crash basis prices
        out, then phase 2 on the true costs and the final check."""
        if np.any(self.lo > self.up):
            return LpSolution(LpStatus.INFEASIBLE, None, None)
        # the dual needs a start that prices out: shift each cost that prices
        # in by its reduced cost. The crash basis is triangular, and the
        # crash prices it without a factorization.
        d = self.crash_basis()
        c = self.c
        if not self.run_dual(np.where(self.dirn * d > self.dtol, c - d, c)):
            return LpSolution(LpStatus.INFEASIBLE, None, None, self.iterations)

        # phase 2 restores any shifted costs and certifies optimality
        outcome = self.run_phase()
        if outcome == "unbounded":
            return LpSolution(LpStatus.UNBOUNDED, None, None, self.iterations)
        self._verify()
        x_real = self.x[:self.n_real].copy()
        obj = float(self.c[:self.n_real] @ x_real)
        return LpSolution(LpStatus.OPTIMAL, x_real, obj, self.iterations)

    def _verify(self) -> None:
        """Exact-form residual and bound check; breakdown when irreparable."""
        lo, up = self.lo, self.up
        for attempt in range(3):
            resid = self.A @ self.x - self.std.b
            row_tol = FEAS_TOL * (1.0 + np.abs(self.std.b))
            rows_ok = bool(np.all(np.abs(resid) <= row_tol * 100))
            # the artificials too: one off [0, 0] hides a violated row
            lo_ok = bool(np.all(self.x >= lo - 1e-7 * (1.0 + np.abs(lo))))
            up_ok = bool(np.all(self.x <= up + 1e-7 * (1.0 + np.abs(up))))
            if rows_ok and lo_ok and up_ok:
                return
            self.refactor()
        raise NumericalBreakdownError(
            "optimal basis failed residual verification after refactorization")


def _dual_tol(c: np.ndarray) -> float:
    """Reduced-cost tolerance for the cost vector c."""
    return 1e-7 + 1e-11 * float(np.abs(c).max(initial=0.0))


def core_solve(std: StandardForm,
               lo_struct: np.ndarray | None = None,
               hi_struct: np.ndarray | None = None) -> LpSolution:
    """Solve the continuous program over std with optional bound overrides.

    The solution's x spans the structural columns, then the slack columns;
    the artificials, zero at an optimum, are left out.

    A numerical failure triggers one full retry under conservative settings
    (tighter pivot threshold, more frequent refactorization) before the
    breakdown is reported to the caller.
    """
    try:
        return _Solver(std, lo_struct, hi_struct).solve()
    except NumericalBreakdownError:
        return _Solver(std, lo_struct, hi_struct, conservative=True).solve()


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Bounded-variable simplex on the continuous relaxation: the dual
    simplex from the crash basis (on shifted costs where that basis does not
    price out), then primal phase 2.

    Statuses: OPTIMAL with a primal-feasible x (rows within FEAS_TOL scaled by
    1 + |rhs|), INFEASIBLE, or UNBOUNDED. Integrality flags are ignored here.
    """
    res = core_solve(build_standard_form(lp))
    if res.status is not LpStatus.OPTIMAL:
        return res
    x = res.x[:lp.num_vars].copy()
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.objective @ x), res.iterations)
