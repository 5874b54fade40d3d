"""Simplex core: directed linear programs plus a randomized cross-check.

The randomized block compares against scipy's HiGHS-backed linprog, which
shares no code with this engine, so agreement over hundreds of seeded
programs is strong evidence for both statuses and objectives.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from ambuplan import (
    build_allocation_program,
    build_transfer_program,
    generate,
    preset,
    tiny_params,
)
from ambuplan.engine import (
    PIVOT_TOL,
    LinearProgram,
    LinearRow,
    LpStatus,
    NumericalBreakdownError,
    simplex,
    solve_lp,
)

inf = np.inf


def lp_of(n, cost, lower, upper, rows, integrality=None):
    if integrality is None:
        integrality = np.zeros(n)
    return LinearProgram.from_rows(n, cost, lower, upper, integrality, rows)


def residuals_ok(lp: LinearProgram, x: np.ndarray, tol=1e-7) -> bool:
    scale_ok = True
    for row in lp.rows:
        lhs = sum(coef * x[j] for j, coef in row.coeffs)
        slack = 1e-7 * (1.0 + abs(row.rhs))
        if row.relation == "<=" and lhs > row.rhs + slack:
            scale_ok = False
        if row.relation == ">=" and lhs < row.rhs - slack:
            scale_ok = False
        if row.relation == "=" and abs(lhs - row.rhs) > slack:
            scale_ok = False
    bounds_ok = bool(np.all(x >= lp.lower - tol) and np.all(x <= lp.upper + tol))
    return scale_ok and bounds_ok


class TestDirected:
    def test_single_covering_row(self):
        # both columns are singletons, so the crash may start at the optimum
        lp = lp_of(2, [1, 1], [0, 0], [10, 10],
                   [LinearRow(((0, 1.0), (1, 1.0)), ">=", 1.0)])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert residuals_ok(lp, sol.x)

    def test_covering_row_without_singletons_pivots(self):
        # a second row leaves no column singleton to carry the covering row
        lp = lp_of(2, [1, 1], [0, 0], [10, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), ">=", 1.0),
            LinearRow(((0, 1.0), (1, 1.0)), "<=", 10.0),
        ])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert residuals_ok(lp, sol.x)
        assert sol.iterations >= 1

    def test_textbook_two_variable_maximum(self):
        # max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 has its peak at (2, 6)
        lp = lp_of(2, [-3, -5], [0, 0], [inf, inf], [
            LinearRow(((0, 1.0),), "<=", 4.0),
            LinearRow(((1, 2.0),), "<=", 12.0),
            LinearRow(((0, 3.0), (1, 2.0)), "<=", 18.0),
        ])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-36.0, abs=1e-8)
        assert np.allclose(sol.x, [2.0, 6.0], atol=1e-8)

    def test_conflicting_rows_infeasible(self):
        lp = lp_of(1, [0], [0], [10], [
            LinearRow(((0, 1.0),), ">=", 5.0),
            LinearRow(((0, 1.0),), "<=", 2.0),
        ])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_unbounded_ray_detected(self):
        lp = lp_of(2, [-1, 0], [0, 0], [inf, 5],
                   [LinearRow(((1, 1.0),), "<=", 4.0)])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_equalities_with_negative_lower_bounds(self):
        lp = lp_of(2, [1, -1], [-5, -5], [5, 5], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 2.0),
            LinearRow(((0, 1.0), (1, -1.0)), "=", 0.0),
        ])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-8)

    def test_degenerate_cycling_prone_program(self):
        # the classic cycling trap for naive pivoting; optimum is -1/20
        lp = lp_of(4, [-0.75, 150, -0.02, 6], [0] * 4, [inf] * 4, [
            LinearRow(((0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)), "<=", 0.0),
            LinearRow(((0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)), "<=", 0.0),
            LinearRow(((2, 1.0),), "<=", 1.0),
        ])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(-0.05, abs=1e-9)

    def test_transportation_equalities(self):
        # supplies [3,4] to demands [2,5] with costs [[1,3],[4,2]]: ship
        # 2 on the cheap lane, split the rest -> 2+3+8 = 13
        lp = lp_of(4, [1, 3, 4, 2], [0] * 4, [inf] * 4, [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 3.0),
            LinearRow(((2, 1.0), (3, 1.0)), "=", 4.0),
            LinearRow(((0, 1.0), (2, 1.0)), "=", 2.0),
            LinearRow(((1, 1.0), (3, 1.0)), "=", 5.0),
        ])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(13.0, abs=1e-8)

    def test_no_rows_picks_cost_preferred_bounds(self):
        lp = lp_of(3, [1, -1, 0], [-2, -3, 1], [4, 5, 1], [])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert np.allclose(sol.x, [-2.0, 5.0, 1.0])
        assert sol.objective == pytest.approx(-7.0)

    def test_empty_program_is_optimal(self):
        sol = solve_lp(lp_of(0, [], [], [], []))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x.size == 0 and sol.objective == 0.0

    def test_no_rows_unbounded(self):
        lp = lp_of(1, [-1], [0], [inf], [])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_crossed_bounds_rejected_at_construction(self):
        with pytest.raises(ValueError):
            lp_of(2, [1, 1], [0, 3], [10, 2], [])

    def test_fixed_variables_propagate(self):
        lp = lp_of(2, [1, 1], [2, 0], [2, 9],
                   [LinearRow(((0, 1.0), (1, 1.0)), ">=", 5.0)])
        sol = solve_lp(lp)
        assert sol.x[0] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective == pytest.approx(5.0, abs=1e-8)

    def test_box_constrained_bound_flips(self):
        # optimum sits on a mix of variable bounds, not a row vertex
        lp = lp_of(3, [-1, -1, 2], [0, 0, -1], [2, 2, 3],
                   [LinearRow(((0, 1.0), (1, 1.0), (2, 1.0)), "<=", 10.0)])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(-6.0, abs=1e-8)
        assert np.allclose(sol.x, [2.0, 2.0, -1.0], atol=1e-8)

    def test_redundant_rows_tolerated(self):
        row = LinearRow(((0, 1.0), (1, 1.0)), "<=", 4.0)
        lp = lp_of(2, [-1, -1], [0, 0], [inf, inf], [row, row, row])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(-4.0, abs=1e-8)

    def test_relaxation_ignores_integrality_flags(self):
        lp = lp_of(1, [-1], [0], [1.5], [], integrality=[1])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(-1.5, abs=1e-9)

    def test_zero_objective_reports_feasible_point(self):
        lp = lp_of(2, [0, 0], [0, 0], [3, 3],
                   [LinearRow(((0, 1.0), (1, 2.0)), "=", 4.0)])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert residuals_ok(lp, sol.x)


class TestCrash:
    """The crash gives a row to a column singleton that fits its bounds."""

    @staticmethod
    def crashed(lp, lo_struct=None, hi_struct=None):
        solver = simplex._Solver(simplex.build_standard_form(lp), lo_struct, hi_struct)
        solver.crash_basis()
        return solver

    @staticmethod
    def phases_run(monkeypatch):
        phases = []
        run_phase = simplex._Solver.run_phase

        def recorded(solver, phase):
            phases.append(phase)
            return run_phase(solver, phase)

        monkeypatch.setattr(simplex._Solver, "run_phase", recorded)
        return phases

    def test_singleton_within_bounds_takes_its_row(self, monkeypatch):
        # x0 and x3 are singletons of the equality row; the lower index wins
        lp = lp_of(4, [3, 1, 2, 4], [0] * 4, [10, inf, inf, 10], [
            LinearRow(((0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)), "=", 4.0),
            LinearRow(((1, 1.0), (2, -1.0)), "<=", 1.0),
        ])
        solver = self.crashed(lp)
        assert solver.basis[0] == 0
        assert solver.x[0] == 4.0
        assert not solver.x[solver.n_real:].any()
        phases = self.phases_run(monkeypatch)
        sol = solve_lp(lp)
        assert phases == [2]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.5, abs=1e-9)
        assert np.allclose(sol.x, [0.0, 2.5, 1.5, 0.0], atol=1e-9)

    def test_singleton_beyond_its_bound_leaves_the_artificial(self):
        # x0 alone would need 5 > 2, and x1 <= 1 caps the rest: infeasible
        lp = lp_of(2, [1, 1], [0, 0], [2, inf], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 5.0),
            LinearRow(((1, 1.0),), "<=", 1.0),
        ])
        solver = self.crashed(lp)
        assert solver.basis[0] == solver.n_real
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_node_bounds_decide_the_crash(self, monkeypatch):
        lp = lp_of(2, [1, 2], [0, 0], [10, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 3.0),
            LinearRow(((1, 1.0),), "<=", 5.0),
        ])
        std = simplex.build_standard_form(lp)
        assert self.crashed(lp).basis[0] == 0
        hi = np.array([1.0, 10.0])
        assert self.crashed(lp, hi_struct=hi).basis[0] == std.n_real
        phases = self.phases_run(monkeypatch)
        res = simplex.core_solve(std, None, hi)
        assert phases == [1, 2]
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(res.x[:2], [1.0, 2.0], atol=1e-9)

    def test_transfer_demand_rows_start_on_shortage(self):
        inst = generate(preset(1), 0)
        lp, ix = build_transfer_program(inst)
        solver = self.crashed(lp)
        zones, slots = inst.demand.shape
        i, t = np.divmod(np.arange(zones * slots), slots)
        demand_rows = lp.num_rows - zones * slots + np.arange(zones * slots)
        short, calls = ix.shortage(i, t), inst.demand.ravel()
        assert np.array_equal(solver.basis[demand_rows[calls > 0]], short[calls > 0])
        # a row without calls has nothing to carry and keeps its artificial
        zero = demand_rows[calls == 0]
        assert zero.size and np.array_equal(solver.basis[zero], solver.n_real + zero)
        assert np.array_equal(solver.x[short], calls)


class TestProgramValidation:
    def test_bad_relation_rejected(self):
        with pytest.raises(ValueError):
            LinearRow(((0, 1.0),), "<", 1.0)

    def test_row_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lp_of(1, [1], [0], [1], [LinearRow(((3, 1.0),), "<=", 1.0)])

    def test_nan_cost_rejected(self):
        with pytest.raises(ValueError):
            lp_of(1, [np.nan], [0], [1], [])

    def test_matrix_form_accepted(self):
        lp = LinearProgram(2, [1, 1], [0, 0], [1, 1], [0, 0],
                           sparse.csc_array(np.ones((1, 2))), [1], [1.0])
        assert lp.num_rows == 1
        assert lp.rows == [LinearRow(((0, 1.0), (1, 1.0)), "<=", 1.0)]

    @pytest.mark.parametrize("bad", [
        {"A": sparse.csc_array(np.ones((1, 3)))},  # wrong column count
        {"sense": [2]},
        {"rhs": [np.nan]},
    ])
    def test_matrix_form_rejected(self, bad):
        parts = dict(A=sparse.csc_array(np.ones((1, 2))), sense=[1], rhs=[1.0])
        parts.update(bad)
        with pytest.raises(ValueError):
            LinearProgram(2, [1, 1], [0, 0], [1, 1], [0, 0], **parts)

    @pytest.mark.parametrize("lower, upper", [
        (-inf, 1.0), (inf, inf), (np.nan, 1.0), (0.0, np.nan), (0.0, -inf),
    ], ids=["lower-minus-inf", "lower-plus-inf", "lower-nan", "upper-nan",
            "upper-minus-inf"])
    def test_lower_bounds_finite_upper_bounds_finite_or_inf(self, lower, upper):
        # the engine starts every column at its lower bound
        with pytest.raises(ValueError):
            lp_of(1, [1], [lower], [upper], [LinearRow(((0, 1.0),), ">=", 1.0)])


def random_program(rng):
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 9))
    c = rng.integers(-5, 6, size=n).astype(float)
    lo = rng.integers(-4, 3, size=n).astype(float)
    hi = lo + rng.integers(0, 8, size=n).astype(float)
    for j in range(n):
        if rng.random() < 0.15:
            hi[j] = inf
    rows, a_ub, b_ub, a_eq, b_eq = [], [], [], [], []
    for _ in range(m):
        a = rng.integers(-3, 4, size=n).astype(float)
        a[rng.random(n) >= 0.6] = 0.0
        rel = ["<=", ">=", "="][int(rng.integers(0, 3))]
        rhs = float(rng.integers(-10, 11))
        rows.append(LinearRow(tuple((j, a[j]) for j in range(n) if a[j]), rel, rhs))
        if rel == "<=":
            a_ub.append(a), b_ub.append(rhs)
        elif rel == ">=":
            a_ub.append(-a), b_ub.append(-rhs)
        else:
            a_eq.append(a), b_eq.append(rhs)
    lp = lp_of(n, c, lo, hi, rows)
    ref = linprog(c,
                  A_ub=np.array(a_ub) if a_ub else None,
                  b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None,
                  b_eq=np.array(b_eq) if b_eq else None,
                  bounds=list(zip(lo, hi)), method="highs")
    return lp, ref


class TestAgainstIndependentSolver:
    def test_random_programs_match_linprog(self):
        rng = np.random.default_rng(12345)
        compared = 0
        for trial in range(150):
            lp, ref = random_program(rng)
            sol = solve_lp(lp)
            label = f"trial {trial}"
            if ref.status == 0:
                compared += 1
                assert sol.status is LpStatus.OPTIMAL, label
                assert sol.objective == pytest.approx(
                    ref.fun, abs=1e-6 * (1 + abs(ref.fun))), label
                assert residuals_ok(lp, sol.x), label
            elif ref.status == 2:
                compared += 1
                assert sol.status is LpStatus.INFEASIBLE, label
            elif ref.status == 3:
                compared += 1
                assert sol.status is LpStatus.UNBOUNDED, label
        assert compared >= 100  # the families above must dominate the draw

    def test_repeat_solves_are_bit_identical(self):
        rng = np.random.default_rng(777)
        for _ in range(20):
            lp, _ = random_program(rng)
            first = solve_lp(lp)
            second = solve_lp(lp)
            assert first.status is second.status
            if first.status is LpStatus.OPTIMAL:
                assert first.x.tobytes() == second.x.tobytes()
                assert first.objective == second.objective
                assert first.iterations == second.iterations


class TestConservativeRetry:
    """core_solve reruns a broken-down solve once under conservative settings."""

    @staticmethod
    def textbook_form():
        return simplex.build_standard_form(lp_of(2, [-3, -5], [0, 0], [inf, inf], [
            LinearRow(((0, 1.0),), "<=", 4.0),
            LinearRow(((1, 2.0),), "<=", 12.0),
            LinearRow(((0, 3.0), (1, 2.0)), "<=", 18.0),
        ]))

    def test_breakdown_retried_and_solved(self, monkeypatch):
        std = self.textbook_form()
        solve = simplex._Solver.solve
        runs = []

        def breaks_by_default(solver):
            runs.append((solver.pivot_tol, solver.refactor_every))
            if solver.pivot_tol == PIVOT_TOL:
                raise NumericalBreakdownError("forced breakdown")
            return solve(solver)

        monkeypatch.setattr(simplex._Solver, "solve", breaks_by_default)
        res = simplex.core_solve(std)
        assert runs == [(PIVOT_TOL, simplex.REFACTOR_EVERY), (1e-6, 16)]
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(-36.0, abs=1e-8)
        assert np.allclose(res.x[:2], [2.0, 6.0], atol=1e-8)

    def test_breakdown_in_both_runs_propagates(self, monkeypatch):
        std = self.textbook_form()
        runs = []

        def always_breaks(solver):
            runs.append(solver.pivot_tol)
            raise NumericalBreakdownError("forced breakdown")

        monkeypatch.setattr(simplex._Solver, "solve", always_breaks)
        with pytest.raises(NumericalBreakdownError, match="forced breakdown"):
            simplex.core_solve(std)
        assert runs == [PIVOT_TOL, 1e-6]


def dense_ratio(s, q, sigma, w, bland):
    """The ratio test over every basis position, with no sparsity shortcut."""
    xB, loB, upB = s.x[s.basis], s.lo[s.basis], s.up[s.basis]
    sw = sigma * w
    tol = s.pivot_tol
    with np.errstate(divide="ignore", invalid="ignore"):
        t_lo = np.where(sw > tol, (xB - loB) / sw, np.inf)
        t_up = np.where(sw < -tol, (xB - upB) / sw, np.inf)
    steps = np.minimum(t_lo, t_up)
    np.nan_to_num(steps, copy=False, nan=np.inf, posinf=np.inf)
    np.maximum(steps, 0.0, out=steps)
    m = w.size
    r = int(np.argmin(steps)) if m else -1
    step_basic = float(steps[r]) if m else np.inf
    if m and np.isfinite(step_basic):
        cand = np.flatnonzero(steps <= step_basic + 1e-9 * (1.0 + step_basic))
        if bland:
            r = int(cand[np.argmin(s.basis[cand])])
        else:
            r = int(cand[np.argmax(np.abs(sw[cand]))])
        step_basic = float(steps[r])
    step_self = s.up[q] - s.lo[q]
    if step_self <= step_basic:
        return (None, -1) if not np.isfinite(step_self) else (step_self, -1)
    return (None, -1) if not np.isfinite(step_basic) else (step_basic, r)


class TestKernel:
    """Pivot-by-pivot invariants of the sparse eta file, the ratio test over
    the pivot column's nonzeros and the maintained pricing direction."""

    @staticmethod
    def kernel_programs():
        transfer, _ = build_transfer_program(generate(preset(1), 0))
        tiny, _ = build_allocation_program(generate(tiny_params(3), 3))
        # x0 and x1 cross their whole range without any basis change
        flips = lp_of(3, [-1, -1, 2], [0, 0, -1], [2, 2, 3],
                      [LinearRow(((0, 1.0), (1, 1.0), (2, 1.0)), "<=", 10.0)])
        return [transfer, tiny, flips]

    @staticmethod
    def solve_watched(lp, monkeypatch, check):
        """Solve lp, calling check(solver, q, r, leaving) after every pivot."""
        apply = simplex._Solver._apply

        def watched(solver, q, sigma, w, step, r):
            leaving = int(solver.basis[r]) if r >= 0 else -1
            apply(solver, q, sigma, w, step, r)
            check(solver, q, r, leaving)

        monkeypatch.setattr(simplex._Solver, "_apply", watched)
        solver = simplex._Solver(simplex.build_standard_form(lp), None, None)
        assert solver.solve().status is LpStatus.OPTIMAL

    def test_eta_solves_match_a_fresh_factorization(self, monkeypatch):
        rng = np.random.default_rng(5)
        pivots = []

        def check(solver, q, r, leaving):
            fresh = splu(solver.A[:, solver.basis])
            others = rng.integers(0, solver.N, size=3)
            for j in (q, *others):
                col = solver.column(int(j))
                want = fresh.solve(col)
                err = np.abs(solver.ftran(col) - want).max()
                assert err <= 1e-9 * max(1.0, np.abs(want).max()), (q, j)
            for phase in (1, 2):
                cB = solver.phase_cost(phase)[solver.basis]
                want = fresh.solve(cB, trans="T")
                err = np.abs(solver.btran(cB) - want).max()
                assert err <= 1e-9 * max(1.0, np.abs(want).max()), (q, phase)
            pivots.append(len(solver.etas))

        for lp in self.kernel_programs()[:2]:
            self.solve_watched(lp, monkeypatch, check)
        # the check ran on long eta files, not only after refactorizations
        assert len(pivots) > 200 and max(pivots) == simplex.REFACTOR_EVERY

    def test_ratio_matches_the_dense_formula(self):
        rng = np.random.default_rng(11)
        tol = PIVOT_TOL
        for trial in range(400):
            m = int(rng.integers(0, 10))
            N = m + 6
            lo = rng.integers(-4, 3, size=N).astype(float)
            up = lo + rng.integers(0, 5, size=N)
            lo[rng.random(N) < 0.2] = -inf
            up[rng.random(N) < 0.2] = inf
            basis = rng.permutation(N)[:m]
            x = rng.integers(-6, 7, size=N).astype(float)  # often out of bounds
            # integral entries give exact ties; the rest sit at or near the
            # pivot tolerance or are exact zeros
            w = rng.integers(-3, 4, size=m).astype(float)
            kind = rng.random(m)
            w[kind < 0.15] = 0.9 * tol
            w[(kind >= 0.15) & (kind < 0.25)] = -0.9 * tol
            w[(kind >= 0.25) & (kind < 0.3)] = 2 * tol
            s = SimpleNamespace(x=x, lo=lo, up=up, basis=basis, pivot_tol=tol)
            q = int(rng.permutation(np.setdiff1d(np.arange(N), basis))[0])
            for sigma in (1.0, -1.0):
                for bland in (False, True):
                    got = simplex._Solver._ratio(s, q, sigma, w, bland)
                    assert got == dense_ratio(s, q, sigma, w, bland), (trial, sigma, bland)

    def test_maintained_direction_matches_status(self, monkeypatch):
        seen = {"flip": 0, "artificial": 0, "phase": 0}

        def assert_current(solver):
            x, lo, up = solver.x, solver.lo, solver.up
            nonbasic = np.ones(solver.N, dtype=bool)
            nonbasic[solver.basis] = False
            # a nonbasic column sits exactly on one of its bounds
            assert np.all(~nonbasic | (x == lo) | (x == up))
            movable = nonbasic & (lo < up)
            dirn = np.where(movable & (x == lo), -1.0,
                            np.where(movable & (x == up), 1.0, 0.0))
            np.testing.assert_array_equal(solver.dirn, dirn)

        def check(solver, q, r, leaving):
            assert_current(solver)
            seen["flip"] += r < 0
            seen["artificial"] += leaving >= solver.n_real

        run_phase = simplex._Solver.run_phase

        def phase_start(solver, phase):
            # after the crash (phase 1) or the pin of the artificials (phase 2)
            assert_current(solver)
            seen["phase"] += 1
            return run_phase(solver, phase)

        monkeypatch.setattr(simplex._Solver, "run_phase", phase_start)
        for lp in self.kernel_programs():
            self.solve_watched(lp, monkeypatch, check)
        assert min(seen.values()) > 0, seen
