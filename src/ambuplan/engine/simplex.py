"""Bounded-variable primal simplex over a sparse revised formulation.

The program's constraint matrix is converted once into equality standard
form (slack columns for inequalities). Each solve works on one matrix
[A | diag(g)]: the artificial column of row k is the unit column scaled by
the sign g[k] of that row's residual at the crash basis. The basis inverse
is represented by a sparse LU factorization (scipy ``splu``) plus a
product-form eta file that is folded back into a fresh factorization every
REFACTOR_EVERY pivots. The crash basis gives each row to its slack when the
slack can carry it, else to a structural column singleton that can absorb
the row's residual within its bounds, and only otherwise to the row's
artificial. Phase 1 minimizes the total artificial value and runs only when
that total starts above zero; phase 2 continues on the true costs from the
feasible basis phase 1 leaves behind.

Per-pivot work follows the nonzeros of the pivot column w = B^-1 a_q (a
median 7% of the rows on the preset-5 transfer program) rather than the row
count m:

- Each eta holds (r, w[r], idx, w[idx]) with idx the nonzeros of w other
  than the pivot row r, so ftran subtracts over idx and btran updates u[r]
  with one short dot product.
- The ratio test looks only at rows with |w| > pivot tol, each against the
  bound that the sign of sigma * w selects.
- A maintained direction per column, dirn (-1 movable at lower, +1
  movable at upper, 0 basic or fixed), turns pricing into one product
  dirn * d. Together with the basis it is the only record of a column's
  place: every lower bound is finite, so a nonbasic column sits on lo or up.
  It is set by the crash and the phase-2 pin, and each pivot updates only
  the entering and leaving entries.

REFACTOR_EVERY = 32 was chosen on preset 5 (seed 42). Going from 64 to 32
doubles the refactorizations (transfer 68 -> 133, allocation 140 -> 227)
but cuts the time of the ftran and btran eta loops by about 40%, a net gain
that is largest on the allocation slot programs. The conservative retry
refactorizes every 16 pivots.

Anti-cycling: Dantzig pricing by default, switching to Bland's rule whenever
the objective has not improved for 5 * (num_vars + num_rows) iterations.
Pivots smaller than PIVOT_TOL are never accepted; if no acceptable pivot
exists after a fresh refactorization the solver raises
NumericalBreakdownError rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Equality form min c x, A x = b, lo <= x <= up shared across solves."""

    m: int
    n_struct: int
    n_real: int            # structural + slack columns
    A: sparse.csc_array    # m x n_real
    slack_sign: np.ndarray  # per row: +1 for <=, -1 for >=, 0 without slack
    b: np.ndarray
    cost_real: np.ndarray
    lower_real: np.ndarray
    upper_real: np.ndarray


def _with_unit_columns(A: sparse.csc_array, rows: np.ndarray,
                       signs: np.ndarray) -> sparse.csc_array:
    """A with one column appended per entry of ``rows``: signs[k] at rows[k]."""
    ends = A.indptr[-1] + np.arange(1, rows.size + 1, dtype=A.indptr.dtype)
    return sparse.csc_array(
        (np.concatenate([A.data, signs]),
         np.concatenate([A.indices, rows.astype(A.indices.dtype)]),
         np.concatenate([A.indptr, ends])),
        shape=(A.shape[0], A.shape[1] + rows.size))


def build_standard_form(lp: LinearProgram) -> StandardForm:
    """Append one slack column per inequality row; equalities get none."""
    slack_rows = np.flatnonzero(lp.sense)
    s = slack_rows.size
    return StandardForm(m=lp.num_rows, n_struct=lp.num_vars, n_real=lp.num_vars + s,
                        A=_with_unit_columns(lp.A, slack_rows, lp.sense[slack_rows]),
                        slack_sign=lp.sense.copy(), b=lp.rhs.copy(),
                        cost_real=np.concatenate([lp.objective, np.zeros(s)]),
                        lower_real=np.concatenate([lp.lower, np.zeros(s)]),
                        upper_real=np.concatenate([lp.upper, np.full(s, np.inf)]))


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
        self.lo = np.concatenate([std.lower_real, np.zeros(m)])
        self.up = np.concatenate([std.upper_real, np.zeros(m)])
        if lo_struct is not None:
            self.lo[:std.n_struct] = lo_struct
        if hi_struct is not None:
            self.up[:std.n_struct] = hi_struct
        self.x = np.zeros(self.N)
        self.basis = np.zeros(m, dtype=np.int64)
        self.A = self.AT = None  # [A | diag(g)] and its transpose, from crash_basis
        self.lu = None
        # one (r, w[r], idx, w[idx]) per pivot, idx the other nonzeros of w
        self.etas: list[tuple[int, float, np.ndarray, np.ndarray]] = []
        self.dirn = None  # from crash_basis, then kept by _apply
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
            self.lu = splu(self.A[:, self.basis], permc_spec="COLAMD")
        except RuntimeError as exc:
            raise NumericalBreakdownError(
                f"basis factorization failed: {exc}") from exc
        self.etas = []
        self.updates_since_refactor = 0
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

    def crash_basis(self) -> None:
        """Crash basis: slacks carry their rows when feasible, then column
        singletons, then artificials.

        A row the slack cannot carry (or without a slack) whose residual is
        nonzero goes to a structural column with its only nonzero in that
        row, |a| >= pivot_tol, when moving that column to x + resid / a keeps
        it within this solve's bounds; the lowest such column wins (Bixby,
        ORSA J. Computing 4(3), 1992). Only the remaining rows start on an
        artificial. Every other column starts at its (finite) lower bound.

        Also builds the solve's matrix [A | diag(g)], where g[k] is the sign
        of row k's residual at the crash point.
        """
        std = self.std
        n_real, m = self.n_real, self.m
        self.x[:] = self.lo

        resid = std.b - std.A @ self.x[:n_real]
        # a row's slack carries it when that leaves the slack nonnegative
        sigma = std.slack_sign
        use_slack = (sigma != 0) & (sigma * resid >= -1e-12)
        slack_col = std.n_struct - 1 + np.cumsum(sigma != 0)
        art_col = n_real + np.arange(m)
        basis = np.where(use_slack, slack_col, art_col)
        value = np.where(use_slack, np.maximum(sigma * resid, 0.0), np.abs(resid))

        # structural column singletons, in column order
        indptr = std.A.indptr
        cols = np.flatnonzero(np.diff(indptr[:std.n_struct + 1]) == 1)
        rows = std.A.indices[indptr[cols]]
        a = std.A.data[indptr[cols]]
        need = ~use_slack & (resid != 0)
        ok = need[rows] & (np.abs(a) >= self.pivot_tol)
        cols, rows, a = cols[ok], rows[ok], a[ok]
        x_new = self.x[cols] + resid[rows] / a
        ok = (x_new >= self.lo[cols]) & (x_new <= self.up[cols])
        # the first occurrence of a row is its lowest fitting column
        rows, first = np.unique(rows[ok], return_index=True)
        basis[rows] = cols[ok][first]
        value[rows] = x_new[ok][first]
        use_art = ~use_slack
        use_art[rows] = False

        self.basis[:] = basis
        self.x[basis] = value
        self.up[art_col[use_art]] = np.inf
        self.dirn = np.where(self.lo < self.up, -1.0, 0.0)
        self.dirn[basis] = 0.0

        g = np.where(resid >= 0, 1.0, -1.0)
        self.A = _with_unit_columns(std.A, np.arange(m), g)
        self.AT = self.A.T

    # ----- pricing and pivoting --------------------------------------------

    def phase_cost(self, phase: int) -> np.ndarray:
        c = np.zeros(self.N)
        if phase == 1:
            c[self.n_real:] = 1.0
        else:
            c[:self.n_real] = self.std.cost_real
        return c

    def choose_entering(self, d: np.ndarray, dtol: float, bland: bool) -> int:
        if not self.N:
            return -1  # an empty program
        viol = self.dirn * d
        q = int(np.argmax(viol > dtol if bland else viol))
        return q if viol[q] > dtol else -1

    def run_phase(self, phase: int) -> str:
        """Returns 'optimal' or 'unbounded' (phase 2 only)."""
        c = self.phase_cost(phase)
        dtol = 1e-7 + 1e-11 * float(np.abs(c).max(initial=0.0))
        z = float(c @ self.x)
        since_improve = 0

        while True:
            if self.iterations >= self.max_iterations:
                raise NumericalBreakdownError(
                    f"iteration cap {self.max_iterations} exceeded in phase {phase}")
            # pricing against a clean factorization is trusted as-is
            fresh = not self.etas and self.updates_since_refactor == 0
            y = self.btran(c[self.basis])
            d = c - self.AT @ y
            bland = since_improve > self.bland_threshold
            q = self.choose_entering(d, dtol, bland)
            if q < 0:
                if fresh:
                    return "optimal"
                # re-certify optimality against a clean factorization
                self.refactor()
                z = float(c @ self.x)
                continue

            sigma = -float(self.dirn[q])  # into the column's range
            w = self.ftran(self.column(q))
            step, r = self._ratio(q, sigma, w, bland)
            if step is None:
                # no finite blocking step and no own bound to flip to
                if not fresh:
                    self.refactor()
                    z = float(c @ self.x)
                    continue
                if phase == 1:
                    raise NumericalBreakdownError(
                        "phase 1 claims an unbounded improving ray")
                return "unbounded"

            self.iterations += 1
            z_new = z + step * sigma * d[q]
            if z_new < z - 1e-9 * (1.0 + abs(z)):
                since_improve = 0
            else:
                since_improve += 1
            z = z_new
            self._apply(q, sigma, w, step, r)
            if (len(self.etas) >= self.refactor_every
                    or self.updates_since_refactor >= 4 * self.refactor_every):
                self.refactor()
                z = float(c @ self.x)

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
               step: float, r: int) -> None:
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
        # the leaving column stops on the bound it moved towards
        self.dirn[leave] = -1.0 if sigma * w[r] > 0 else 1.0
        self.x[leave] = self.lo[leave] if sigma * w[r] > 0 else self.up[leave]
        if leave >= self.n_real:
            # an artificial that left the basis never returns
            self.up[leave] = self.x[leave] = self.dirn[leave] = 0.0
        self.basis[r] = q
        self.dirn[q] = 0.0
        self.x[q] = enter_val
        idx = nz[nz != r]
        self.etas.append((r, float(w[r]), idx, w[idx]))
        self.updates_since_refactor += 1

    # ----- driver -----------------------------------------------------------

    def solve(self) -> LpSolution:
        if np.any(self.lo > self.up):
            return LpSolution(LpStatus.INFEASIBLE, None, None)
        self.crash_basis()
        self.refactor()

        art_total = float(np.abs(self.x[self.n_real:]).sum())
        p1_tol = FEAS_TOL * (1.0 + float(np.abs(self.std.b).sum()))
        if art_total > p1_tol:
            self.run_phase(1)
            art_total = float(np.abs(self.x[self.n_real:]).sum())
            if art_total > p1_tol:
                return LpSolution(LpStatus.INFEASIBLE, None, None, self.iterations)
        # pin every artificial for phase 2
        self.up[self.n_real:] = 0.0
        self.dirn[self.n_real:] = 0.0

        outcome = self.run_phase(2)
        if outcome == "unbounded":
            return LpSolution(LpStatus.UNBOUNDED, None, None, self.iterations)
        self._verify()
        x_real = self.x[:self.n_real].copy()
        obj = float(self.std.cost_real @ x_real)
        return LpSolution(LpStatus.OPTIMAL, x_real, obj, self.iterations)

    def _verify(self) -> None:
        """Exact-form residual and bound check; breakdown when irreparable."""
        for attempt in range(3):
            resid = self.A @ self.x - self.std.b
            x_real = self.x[:self.n_real]
            row_tol = FEAS_TOL * (1.0 + np.abs(self.std.b))
            rows_ok = bool(np.all(np.abs(resid) <= row_tol * 100))
            lo, up = self.lo[:self.n_real], self.up[:self.n_real]
            lo_ok = bool(np.all(x_real >= lo - 1e-7 * (1.0 + np.abs(lo))))
            up_ok = bool(np.all(x_real <= up + 1e-7 * (1.0 + np.abs(up))))
            if rows_ok and lo_ok and up_ok:
                return
            self.refactor()
        raise NumericalBreakdownError(
            "optimal basis failed residual verification after refactorization")


def core_solve(std: StandardForm,
               lo_struct: np.ndarray | None = None,
               hi_struct: np.ndarray | None = None) -> LpSolution:
    """Solve the continuous program over std with optional bound overrides.

    The solution's x spans all standard-form columns, structural then slack.

    A numerical failure triggers one full retry under conservative settings
    (tighter pivot threshold, more frequent refactorization) before the
    breakdown is reported to the caller.
    """
    try:
        return _Solver(std, lo_struct, hi_struct).solve()
    except NumericalBreakdownError:
        return _Solver(std, lo_struct, hi_struct, conservative=True).solve()


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase bounded-variable primal simplex on the continuous relaxation.

    Statuses: OPTIMAL with a primal-feasible x (rows within FEAS_TOL scaled by
    1 + |rhs|), INFEASIBLE, or UNBOUNDED. Integrality flags are ignored here.
    """
    res = core_solve(build_standard_form(lp))
    if res.status is not LpStatus.OPTIMAL:
        return res
    x = res.x[:lp.num_vars].copy()
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.objective @ x), res.iterations)
