"""Simplex core: directed linear programs plus a randomized cross-check.

The randomized block compares against scipy's HiGHS-backed linprog, which
shares no code with this engine, so agreement over hundreds of seeded
programs is strong evidence for both statuses and objectives.
"""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from ambuplan import (
    SolveStatus,
    build_allocation_program,
    build_transfer_program,
    generate,
    preset,
    solve_allocation,
    solve_transfer,
    tiny_params,
)
from ambuplan.engine import (
    CscMatrix,
    LinearProgram,
    LinearRow,
    LpStatus,
    MilpStatus,
    NumericalBreakdownError,
    branch_bound,
    simplex,
    solve_lp,
    solve_milp,
)

inf = np.inf
# the range of the random programs' wide columns
WIDE = 100.0


def superlu(solver):
    """scipy's SuperLU factor of the solver's current basis."""
    return splu(solver.A.columns(solver.basis).to_scipy())


def artificials(std):
    """The logical columns of the equality rows of the standard form std,
    fixed on [0, 0]."""
    return std.n_struct + np.flatnonzero(std.sense == 0)


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
        # max 3x+5y s.t. x<=4, 2y<=12, 3x+2y<=18 has its peak at (2, 6); the
        # box [0, 10]^2 does not bind
        lp = lp_of(2, [-3, -5], [0, 0], [10, 10], [
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

    def test_equalities_with_negative_lower_bounds(self):
        lp = lp_of(2, [1, -1], [-5, -5], [5, 5], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 2.0),
            LinearRow(((0, 1.0), (1, -1.0)), "=", 0.0),
        ])
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.x, [1.0, 1.0], atol=1e-8)

    def test_degenerate_cycling_prone_program(self):
        # the classic cycling trap for naive pivoting; optimum is -1/20 at
        # (1/25, 0, 1, 0), inside the box [0, 10]^4
        lp = lp_of(4, [-0.75, 150, -0.02, 6], [0] * 4, [10] * 4, [
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
        lp = lp_of(4, [1, 3, 4, 2], [0] * 4, [10] * 4, [
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
        lp = lp_of(2, [-1, -1], [0, 0], [10, 10], [row, row, row])
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

    def test_each_column_prices_against_its_own_cost(self):
        # a tolerance relative to the largest cost (about 2 here) would hide
        # x1's reduced cost of -1 at the start on x0, and stop at 2
        lp = lp_of(3, [2, 1, 2e11], [0, 0, 0], [10, 10, 10],
                   [LinearRow(((0, 1.0), (1, 1.0), (2, 1.0)), "=", 1.0)],
                   integrality=[1, 1, 1])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(sol.x, [0.0, 1.0, 0.0], atol=1e-9)
        milp = solve_milp(lp)
        assert milp.status is MilpStatus.OPTIMAL and milp.objective == 1


class TestStandardForm:
    def test_one_logical_column_per_row(self):
        # rows <=, = and >=: row k's logical is column n + k, a slack signed
        # by the row's sense on [0, its room over the box], or the equality
        # row's artificial fixed on [0, 0]. x0 + x1 <= 4 has room 4 - 0,
        # x1 >= 1 room 5 - 1
        lp = lp_of(2, [1, 2], [0, 0], [3, 5], [
            LinearRow(((0, 1.0), (1, 1.0)), "<=", 4.0),
            LinearRow(((0, 2.0),), "=", 2.0),
            LinearRow(((1, 1.0),), ">=", 1.0),
        ])
        std = simplex.build_standard_form(lp)
        assert (std.m, std.n_struct, std.A.shape) == (3, 2, (3, 5))
        dense = std.A.to_scipy().toarray()
        np.testing.assert_array_equal(dense[:, :2], lp.A.to_scipy().toarray())
        np.testing.assert_array_equal(dense[:, 2:], np.diag([1.0, 1.0, -1.0]))
        np.testing.assert_array_equal(std.sense, [1, 0, -1])
        np.testing.assert_array_equal(std.cost, [1, 2, 0, 0, 0])
        np.testing.assert_array_equal(std.lower, [0, 0, 0, 0, 0])
        np.testing.assert_array_equal(std.upper, [3, 5, 4, 0, 4])
        assert artificials(std).tolist() == [3]
        # both solves return the program's own variables
        for sol in (simplex.core_solve(std), solve_lp(lp)):
            assert sol.status is LpStatus.OPTIMAL
            assert sol.objective == pytest.approx(3.0, abs=1e-9)
            assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)

    def test_slack_bounds_are_the_rows_room_over_the_box(self):
        # x0 in [-1, 3], x1 in [0, 5], x2 in [2, 4]. Each entry takes the
        # bound that leaves the slack the most room: on the <= row the
        # smallest activity, -1 - 2 * 5 + 2 = -9, so room 6 + 9; on the >=
        # row the largest, 2 * 3 - 2 = 4, so room 4 + 3; the = row's
        # artificial stays on [0, 0]
        lp = lp_of(3, [1, 1, 1], [-1, 0, 2], [3, 5, 4], [
            LinearRow(((0, 1.0), (1, -2.0), (2, 1.0)), "<=", 6.0),
            LinearRow(((0, 2.0), (2, -1.0)), ">=", -3.0),
            LinearRow(((0, 1.0), (1, 1.0)), "=", 2.0),
        ])
        std = simplex.build_standard_form(lp)
        np.testing.assert_array_equal(std.lower, [-1, 0, 2, 0, 0, 0])
        np.testing.assert_array_equal(std.upper, [3, 5, 4, 15, 7, 0])
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(4.0, abs=1e-9)

    def test_a_row_without_room_gets_a_fixed_slack_and_a_dual_ray(self, dual_runs):
        # x0 + x1 <= 1 with x1 >= 2 has room 1 - 2 < 0 over the box: its
        # slack is clipped to [0, 0] rather than rejected, and the dual's ray
        # proves the program infeasible
        lp = lp_of(2, [1, 1], [0, 2], [3, 4], [
            LinearRow(((0, 1.0), (1, 1.0)), "<=", 1.0),
            LinearRow(((0, 1.0), (1, -1.0)), ">=", -4.0),
        ])
        std = simplex.build_standard_form(lp)
        np.testing.assert_array_equal(std.upper[2:], [0, 5])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE
        assert [feasible for _, feasible in dual_runs] == [False]

    def test_an_infinite_upper_bound_is_rejected(self):
        # a LinearProgram may hold +inf, but the engine solves boxed
        # programs only
        lp = lp_of(2, [1, -1], [0, 0], [3, inf], [
            LinearRow(((0, 1.0), (1, 1.0)), ">=", 1.0)])
        with pytest.raises(ValueError, match="variable 1: upper bound inf is not finite"):
            solve_lp(lp)


class TestCrash:
    """The crash gives an equality row to a column singleton that fits its
    bounds, and an inequality row whose slack sits at zero to a column that
    prices in and meets no other inequality row."""

    @staticmethod
    def crashed(lp, lo_struct=None, hi_struct=None):
        """The solver on the crash's basis with every nonbasic column on its
        lower bound, before any column that prices in flips, and the basic
        values of a first factorization. Returns (solver, the crash's
        reduced costs)."""
        solver = simplex._Solver(simplex.build_standard_form(lp), lo_struct, hi_struct)
        d = solver.crash_basis()
        solver.place(np.zeros(solver.N, dtype=bool))
        solver.refactor()
        return solver, d

    def test_singleton_within_bounds_takes_its_row(self, dual_runs):
        # x0 and x3 are singletons of the equality row; the lower index wins
        lp = lp_of(4, [3, 1, 2, 4], [0] * 4, [10, 10, 10, 10], [
            LinearRow(((0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)), "=", 4.0),
            LinearRow(((1, 1.0), (2, -1.0)), "<=", 1.0),
        ])
        solver, _ = self.crashed(lp)
        assert solver.basis[0] == 0
        assert solver.x[0] == 4.0
        assert not solver.x[artificials(solver.std)].any()
        sol = solve_lp(lp)
        # the crash is feasible, but x1 and x2 price in at x0's price 3:
        # both start on their upper bound 10, and two dual pivots bring them
        # down
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([1, 2], True)]
        assert sol.iterations == 2
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.5, abs=1e-9)
        assert np.allclose(sol.x, [0.0, 2.5, 1.5, 0.0], atol=1e-9)

    def test_inequality_row_starts_on_its_slack(self, dual_runs):
        # x0 is a singleton of the >= row and would fit at 3, but the row
        # goes to its slack at -3, and the dual makes it feasible
        lp = lp_of(2, [1, 2], [0, 0], [10, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), ">=", 3.0),
            LinearRow(((1, 1.0),), "<=", 5.0),
        ])
        solver, _ = self.crashed(lp)
        slack = solver.std.n_struct  # the logical of row 0
        assert solver.basis[0] == slack
        assert solver.x[slack] == -3.0
        assert not solver.x[artificials(solver.std)].any()
        sol = solve_lp(lp)
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([], True)]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(sol.x, [3.0, 0.0], atol=1e-9)

    def test_singleton_beyond_its_bound_leaves_the_artificial(self):
        # x0 alone would need 5 > 2, and x1 <= 1 caps the rest: infeasible
        lp = lp_of(2, [1, 1], [0, 0], [2, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 5.0),
            LinearRow(((1, 1.0),), "<=", 1.0),
        ])
        solver, _ = self.crashed(lp)
        assert solver.basis[0] == solver.std.n_struct
        assert solve_lp(lp).status is LpStatus.INFEASIBLE

    def test_node_bounds_decide_the_crash(self, dual_runs):
        lp = lp_of(2, [1, 2], [0, 0], [10, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 3.0),
            LinearRow(((1, 1.0),), "<=", 5.0),
        ])
        std = simplex.build_standard_form(lp)
        assert self.crashed(lp)[0].basis[0] == 0
        hi = np.array([1.0, 10.0])
        assert self.crashed(lp, hi_struct=hi)[0].basis[0] == std.n_struct
        res = simplex.core_solve(std, None, hi)
        # nonnegative costs price out at the crash: nothing flips
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([], True)]
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(res.x, [1.0, 2.0], atol=1e-9)

    @staticmethod
    def serve_miniature(x3_upper):
        """A serve/stock miniature: x0, x1, x2 serve under the limit row
        x0 + x1 + x2 - x3 <= 0, whose slack sits at zero; the demand rows
        start on the shortage singletons x4 (value 1) and x5 (value 3), at
        price 10. x0 and x1 price in at -9, x2 at -5, and the stock x3 at
        -7. The optimum serves every call from x3 = 4, at cost 12. Each serve
        and shortage column is bounded by its row's calls."""
        return lp_of(6, [1, 1, 5, 2, 10, 10], [0] * 6, [1, 3, 3, x3_upper, 1, 3], [
            LinearRow(((0, 1.0), (1, 1.0), (2, 1.0), (3, -1.0)), "<=", 0.0),
            LinearRow(((0, 1.0), (4, 1.0)), "=", 1.0),
            LinearRow(((1, 1.0), (2, 1.0), (5, 1.0)), "=", 3.0),
        ])

    def test_zero_slack_row_takes_the_column_that_prices_in_most(self, dual_runs):
        # x1's other row holds the larger value, so x1 takes the limit row
        # at price -9
        lp = self.serve_miniature(10)
        solver, d = self.crashed(lp)
        slack = solver.std.n_struct  # the logical of row 0
        assert solver.basis.tolist() == [1, 4, 5]
        assert solver.dirn[slack] == -1.0 and solver.x[slack] == 0.0
        assert np.array_equal(solver.x[:6], [0, 0, 0, 0, 1, 3])
        # the reduced costs are those of the prices y = B^-T c_B = (-9, 10,
        # 10), built without a factorization
        y = superlu(solver).solve(solver.c[solver.basis], trans="T")
        assert np.allclose(y, [-9.0, 10.0, 10.0], rtol=0, atol=1e-12)
        assert np.array_equal(d, solver.c - solver.AT @ np.array([-9.0, 10.0, 10.0]))
        # x3 starts on its upper bound 10 (dual_runs checks each run's start
        # against a fresh factorization), and the dual takes it down to 4
        sol = solve_lp(lp)
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([3], True)]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(12.0, abs=1e-9)
        assert np.allclose(sol.x, [1, 3, 0, 4, 0, 0], atol=1e-9)

    def test_zero_slack_row_flips_the_boxed_column_that_prices_in(self, dual_runs):
        # the crash of the test above, with x3 <= 4: x3 starts on its upper
        # bound, which is its optimum
        lp = self.serve_miniature(4)
        solver = simplex._Solver(simplex.build_standard_form(lp), None, None)
        solver.crash_basis()
        assert solver.basis.tolist() == [1, 4, 5]
        sol = solve_lp(lp)
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([3], True)]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(12.0, abs=1e-9)
        assert np.allclose(sol.x, [1, 3, 0, 4, 0, 0], atol=1e-9)

    def test_zero_slack_row_keeps_its_slack_without_a_fitting_column(self):
        # x0 meets two inequality rows, x1's sign would move the row away
        # from its limit, x2 prices out, and x3 is fixed by its bounds; the
        # demand row starts on the shortage singleton x4 at price 10
        lp = lp_of(5, [1, 1, 20, 1, 10], [0, 0, 0, 0, 0], [10, 10, 10, 0, 10], [
            LinearRow(((0, 1.0), (1, -1.0), (2, 1.0), (3, 1.0)), "<=", 0.0),
            LinearRow(((0, 1.0),), "<=", 7.0),
            LinearRow(((0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)), "=", 2.0),
        ])
        std = simplex.build_standard_form(lp)
        assert std.crash_columns[0].tolist() == [2, 3]
        solver = simplex._Solver(std, None, None)
        d = solver.crash_basis()
        assert solver.basis.tolist() == [std.n_struct, std.n_struct + 1, 4]
        assert np.array_equal(d, solver.c - solver.AT @ np.array([0.0, 0.0, 10.0]))

    def test_allocation_offers_the_crash_no_column(self):
        # every allocation column meets several inequality rows, and none
        # prices in at the diagonal basis; in the transfer program the serve
        # columns are the candidates, one limit row each
        inst = generate(preset(5), 42)
        alloc, _ = build_allocation_program(inst)
        std = simplex.build_standard_form(alloc)
        d = simplex._Solver(std, None, None).crash_basis()
        # the crash never built the structure: nothing priced in
        assert d[:std.n_struct].min() >= 0 and "crash_columns" not in vars(std)
        assert not std.crash_columns[0].size
        transfer, ix = build_transfer_program(inst)
        cols = simplex.build_standard_form(transfer).crash_columns[0]
        assert cols.tolist() == list(range(ix.serve_pair(0, 0), ix.transfer_in(0, 1)))

    @staticmethod
    def negative_cost(x1_upper):
        """x1 at its lower bound prices in at cost -2, so the crash basis,
        under x0 <= 1, is not dual feasible; the optimum is x1 = 3."""
        lp = lp_of(2, [1, -2], [0, 0], [10, x1_upper], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 3.0),
            LinearRow(((1, 1.0),), "<=", 5.0),
        ])
        return lp, np.array([1.0, x1_upper])

    def test_negative_cost_shifts_into_the_dual(self, dual_runs):
        # x1 <= 3 starts on its upper bound, where it prices out and meets
        # the equality row with the artificial at 0: the start is feasible,
        # and the dual has no pivot to make
        lp, hi = self.negative_cost(3.0)
        std = simplex.build_standard_form(lp)
        assert self.crashed(lp, hi_struct=hi)[0].basis[0] == std.n_struct
        res = simplex.core_solve(std, None, hi)
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([1], True)]
        assert res.iterations == 0
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(-6.0, abs=1e-9)
        assert np.allclose(res.x, [0.0, 3.0], atol=1e-9)

    def test_negative_cost_flips_into_the_dual(self, dual_runs):
        # x1 <= 10 starts on its upper bound, where it prices out, and the
        # dual takes it back down to 3 on the true costs
        lp, hi = self.negative_cost(10.0)
        res = simplex.core_solve(simplex.build_standard_form(lp), None, hi)
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([1], True)]
        assert res.iterations >= 1
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(-6.0, abs=1e-9)
        assert np.allclose(res.x, [0.0, 3.0], atol=1e-9)

    @staticmethod
    def short_of_five(x1_upper):
        """x1 prices in at cost -1; x0 <= 2 and the row x1 <= 1 cannot make
        x0 + x1 = 5."""
        return lp_of(2, [1, -1], [0, 0], [2, x1_upper], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 5.0),
            LinearRow(((1, 1.0),), "<=", 1.0),
        ])

    def test_shifted_dual_proves_infeasibility_by_a_dual_ray(self, dual_runs):
        # x1 <= 10 is looser than the row x1 <= 1: x1 starts on 10, the
        # dual's pivots hold it to the row, and the equality row is left
        # short, which no column can make up
        sol = solve_lp(self.short_of_five(10.0))
        assert sol.status is LpStatus.INFEASIBLE
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([1], False)]
        assert sol.iterations == 2

    def test_flipped_dual_proves_infeasibility_by_a_dual_ray(self, dual_runs):
        # x1 <= 1 as a bound: x1 starts on it instead
        sol = solve_lp(self.short_of_five(1.0))
        assert sol.status is LpStatus.INFEASIBLE
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([1], False)]
        assert sol.iterations == 1

    def test_phase_1_ray_of_an_infeasible_program(self, dual_runs):
        # x2 prices in at cost -1 and starts on its upper bound; the
        # equality row x0 + x1 = -1 is met by no point within the bounds,
        # and the dual's ray proves it
        lp = lp_of(3, [0, 0, -1], [0, 0, 0], [1, 10, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", -1.0),
            LinearRow(((1, 1.0), (2, -1.0)), "<=", 4.0),
        ])
        assert solve_lp(lp).status is LpStatus.INFEASIBLE
        assert [(flipped.tolist(), feasible) for flipped, feasible in dual_runs] \
            == [([2], False)]

    def test_transfer_demand_rows_start_on_shortage(self):
        inst = generate(preset(1), 0)
        lp, ix = build_transfer_program(inst)
        solver, _ = self.crashed(lp)
        zones, slots = inst.demand.shape
        i, t = np.divmod(np.arange(zones * slots), slots)
        demand_rows = lp.num_rows - zones * slots + np.arange(zones * slots)
        short, calls = ix.shortage(i, t), inst.demand.ravel()
        assert np.array_equal(solver.basis[demand_rows[calls > 0]], short[calls > 0])
        # a row without calls has nothing to carry and keeps its artificial
        zero = demand_rows[calls == 0]
        assert zero.size and np.array_equal(solver.basis[zero], solver.std.n_struct + zero)
        assert np.array_equal(solver.x[short], calls)


def equality_under_a_loose_row(R):
    """min x0 + x1 with x0 + x1 = 1 and x0 + x1 <= R, both integer.

    Neither column is a singleton, so the equality row starts on its
    artificial at 1 and the loose row on its slack at R.
    """
    return lp_of(2, [1, 1], [0, 0], [2, 2], [
        LinearRow(((0, 1.0), (1, 1.0)), "=", 1.0),
        LinearRow(((0, 1.0), (1, 1.0)), "<=", R),
    ], integrality=[1, 1])


class TestFeasibilityPerRow:
    """Each row's own violation decides whether the start is feasible,
    however large the other right-hand sides are."""

    @pytest.mark.parametrize("R", [1e6, 1e10, 1e12])
    def test_a_loose_row_does_not_hide_the_equality(self, R):
        lp = equality_under_a_loose_row(R)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert residuals_ok(lp, sol.x)
        milp = solve_milp(lp)
        assert milp.status is MilpStatus.OPTIMAL and milp.objective == 1

    def test_verify_rejects_an_artificial_off_zero(self, monkeypatch):
        # a dual phase that stops after its factorization leaves the
        # equality row's artificial basic at 1, and every row's residual 0
        def stopped(solver, c):
            solver.refactor()
            return True

        monkeypatch.setattr(simplex._Solver, "run_dual", stopped)
        with pytest.raises(NumericalBreakdownError):
            solve_lp(equality_under_a_loose_row(1e10))


def with_data(lp, rng):
    """lp's matrix and row senses under new costs, bounds and right-hand
    sides: some columns fixed, some with a range of WIDE."""
    n, m = lp.num_vars, lp.num_rows
    lo = rng.integers(-4, 3, size=n).astype(float)
    hi = lo + rng.integers(0, 8, size=n).astype(float)
    wide = rng.random(n) < 0.15
    hi[wide] = lo[wide] + WIDE
    return LinearProgram(n, rng.integers(-5, 6, size=n).astype(float), lo, hi,
                         lp.integrality, lp.A, lp.sense,
                         rng.integers(-10, 11, size=m).astype(float))


class TestStart:
    """core_solve from the final basis of another solve over a standard form
    of the same shape."""

    @staticmethod
    def counted(monkeypatch, name):
        """Count the calls of _Solver.<name> from now on."""
        calls = []
        method = getattr(simplex._Solver, name)

        def counting(solver, *args):
            calls.append(True)
            return method(solver, *args)

        monkeypatch.setattr(simplex._Solver, name, counting)
        return calls

    @staticmethod
    def counted_lu(monkeypatch):
        """Count the calls of simplex.splu from now on."""
        factored, lu = [], simplex.splu

        def counting(*args, **kwargs):
            factored.append(True)
            return lu(*args, **kwargs)

        monkeypatch.setattr(simplex, "splu", counting)
        return factored

    def test_started_solve_factors_once(self, monkeypatch):
        # an optimal start given as (basis, dirn) alone: one factorization,
        # priced once, and no pivot
        std = simplex.build_standard_form(
            build_transfer_program(generate(preset(1), 0))[0])
        first = simplex.core_solve(std)
        assert first.status is LpStatus.OPTIMAL and first.iterations > 100
        factored = self.counted_lu(monkeypatch)
        priced = self.counted(monkeypatch, "reduced_costs")
        crashed = self.counted(monkeypatch, "crash_basis")
        again = simplex.core_solve(std, start=first.basis[:2])
        assert (len(factored), len(priced), crashed) == (1, 1, [])
        assert again.status is LpStatus.OPTIMAL and again.iterations == 0
        assert again.objective == pytest.approx(first.objective, rel=1e-12)
        assert np.allclose(again.x, first.x, rtol=1e-12, atol=1e-9)
        assert np.array_equal(again.basis[0], first.basis[0])
        # the whole start brings its factor, and the same answer bit for bit
        carried = simplex.core_solve(std, start=first.basis)
        assert (len(factored), len(priced), crashed) == (1, 2, [])
        assert carried.x.tobytes() == again.x.tobytes()
        assert carried.basis.factor is first.basis.factor

    def test_carried_factor_solves_as_a_fresh_one(self):
        # each slot after the first starts on the factor the previous slot
        # ended on; it solves as a fresh SuperLU factor of the same basis
        from scipy.sparse.linalg import splu

        rng = np.random.default_rng(7)
        starts = []
        solve = branch_bound.core_solve

        def recorded(std, lo=None, hi=None, start=None):
            if start is not None:
                starts.append((std, start))
            return solve(std, lo, hi, start)

        days = [generate(preset(1), 0), generate(preset(3), 0)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(branch_bound, "core_solve", recorded)
            for inst in days:
                assert solve_allocation(inst).status is SolveStatus.OPTIMAL
        assert len(starts) == sum(inst.num_slots - 1 for inst in days)
        for std, start in starts:
            assert start.form.A is std.A and start.factor is not None
            ref = splu(std.A.columns(start.basis).to_scipy())
            for rhs in (rng.standard_normal(std.m), rng.standard_normal((std.m, 2))):
                for trans in "NT":
                    want = ref.solve(rhs, trans=trans)
                    err = np.abs(start.factor.solve(rhs, trans) - want).max()
                    assert err <= 1e-12 * max(1.0, np.abs(want).max()), trans

    def test_start_over_another_matrix_is_factored_again(self, monkeypatch):
        # the programs of two one-slot tiny days with one shape and other
        # coverage: a start from one is factored again over the other,
        # exactly as a start without its factor is, and reaches the crash's
        # answer
        days = [generate(tiny_params(s), s) for s in range(80)]
        programs = [build_allocation_program(inst)[0] for inst in days
                    if inst.num_slots == 1]
        checked = 0
        for lp_a, lp_b in itertools.combinations(programs, 2):
            if lp_a.A.shape != lp_b.A.shape or (
                    np.array_equal(lp_a.A.indptr, lp_b.A.indptr)
                    and np.array_equal(lp_a.A.indices, lp_b.A.indices)):
                continue
            first = simplex.core_solve(simplex.build_standard_form(lp_a))
            if first.status is not LpStatus.OPTIMAL:
                continue
            std = simplex.build_standard_form(lp_b, like=first.basis.form)
            assert std.A is not first.basis.form.A
            B = std.A.columns(first.basis.basis).to_scipy().toarray()
            if np.linalg.matrix_rank(B) < std.m:
                continue  # a basis of the one matrix may be singular in the other
            cold = simplex.core_solve(std)
            runs = []
            for start in (first.basis, first.basis[:2]):
                factored = self.counted_lu(monkeypatch)
                runs.append((simplex.core_solve(std, start=start), len(factored)))
                monkeypatch.undo()
            (res, n_res), (alone, n_alone) = runs
            assert n_res == n_alone >= 1
            assert res.status is alone.status is cold.status
            assert res.iterations == alone.iterations
            if cold.status is LpStatus.OPTIMAL:
                assert res.objective == pytest.approx(cold.objective, abs=1e-9)
                assert res.x.tobytes() == alone.x.tobytes()
            checked += 1
        assert checked >= 5

    def test_started_solve_flips_the_boxed_columns_that_price_in(self, dual_runs):
        # the slack basis is optimal at costs (1, 1, 1). At costs (-1, 1, 0)
        # only x0 <= 4 prices in there, and it flips to 4, which the row
        # allows; at costs (-1, -2, 0) x1 <= 20 prices in too, and both
        # flips overrun the row. Both reach the crash's optimum
        def program(cost):
            return simplex.build_standard_form(lp_of(3, cost, [0] * 3, [4, 20, 20], [
                LinearRow(((0, 1.0), (1, 1.0), (2, 1.0)), "<=", 10.0)]))

        first = simplex.core_solve(program([1, 1, 1]))
        assert first.status is LpStatus.OPTIMAL and first.basis[0].tolist() == [3]
        for cost, runs, x in (([-1, 1, 0], [([0], True)], [4.0, 0.0, 0.0]),
                              ([-1, -2, 0], [([0, 1], True)], [0.0, 10.0, 0.0])):
            std = program(cost)
            dual_runs.clear()
            res = simplex.core_solve(std, start=first.basis)
            assert [(flipped.tolist(), feasible)
                    for flipped, feasible in dual_runs] == runs, cost
            ref = simplex.core_solve(std)
            assert res.status is ref.status is LpStatus.OPTIMAL
            assert res.objective == ref.objective == float(np.dot(cost, x))
            assert np.allclose(res.x, x, atol=1e-9)

    def test_start_of_another_shape_is_ignored(self, monkeypatch):
        std = simplex.build_standard_form(
            build_transfer_program(generate(preset(1), 0))[0])
        small = simplex.build_standard_form(
            build_allocation_program(generate(tiny_params(3), 3))[0])
        basis, dirn = simplex.core_solve(small).basis[:2]
        plain = simplex.core_solve(std)
        crashed = self.counted(monkeypatch, "crash_basis")
        # a basis or a dirn of the wrong length, each with the other fitting
        for start in ((basis, plain.basis[1]), (plain.basis[0], dirn)):
            res = simplex.core_solve(std, start=start)
            assert res.iterations == plain.iterations
            assert res.x.tobytes() == plain.x.tobytes()
        assert len(crashed) == 2

    def test_start_from_other_data_reoptimizes_to_the_crash_optimum(self, monkeypatch):
        # the start is the optimal basis of the same matrix under other costs,
        # bounds and right-hand sides; from it the solve reaches the status
        # and optimum that the crash path reaches
        rng = np.random.default_rng(2024)
        crashed = self.counted(monkeypatch, "crash_basis")
        started = compared = 0
        statuses = set()
        for trial in range(600):
            lp, _ = random_program(rng)
            first = simplex.core_solve(simplex.build_standard_form(lp))
            if first.status is not LpStatus.OPTIMAL:
                continue
            std = simplex.build_standard_form(with_data(lp, rng))
            before = len(crashed)
            res = simplex.core_solve(std, start=first.basis)
            started += len(crashed) == before
            ref = simplex.core_solve(std)
            label = f"trial {trial}"
            assert res.status is ref.status, label
            compared += 1
            statuses.add(ref.status)
            if ref.status is LpStatus.OPTIMAL:
                assert res.objective == pytest.approx(
                    ref.objective, abs=1e-6 * (1 + abs(ref.objective))), label
        assert started == compared >= 150, (started, compared)
        assert statuses == set(LpStatus)


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
        # a scipy sparse matrix or a dense 2-d array
        for A in (sparse.csc_array(np.ones((1, 2))), np.ones((1, 2))):
            lp = LinearProgram(2, [1, 1], [0, 0], [1, 1], [0, 0], A, [1], [1.0])
            assert lp.num_rows == 1
            assert lp.rows == [LinearRow(((0, 1.0), (1, 1.0)), "<=", 1.0)]

    @pytest.mark.parametrize("bad", [
        {"A": sparse.csc_array(np.ones((1, 3)))},  # wrong column count
        {"sense": [2]},
        {"rhs": [np.nan]},
        {"A": np.ones(2)},  # a 1-d array
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
    """A random program and linprog's answer on it. Most columns have a
    range of at most 7, and about one in seven a range of WIDE, where the
    optimum of a program that would be unbounded without it lies."""
    n = int(rng.integers(1, 9))
    m = int(rng.integers(0, 9))
    c = rng.integers(-5, 6, size=n).astype(float)
    lo = rng.integers(-4, 3, size=n).astype(float)
    hi = lo + rng.integers(0, 8, size=n).astype(float)
    for j in range(n):
        if rng.random() < 0.15:
            hi[j] = lo[j] + WIDE
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
    def test_random_programs_match_linprog(self, dual_runs):
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
        assert compared >= 100  # the families above must dominate the draw
        # crash bases that do not price out reach feasibility with the
        # columns that price in flipped
        flipped = sum(cols.size > 0 for cols, _ in dual_runs)
        assert flipped >= 100, flipped

    def test_repeat_solves_are_bit_identical(self, dual_runs):
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
        flipped = sum(cols.size > 0 for cols, _ in dual_runs)
        assert flipped >= 20, flipped


def random_dual_program(rng):
    """A program whose crash basis prices out but is infeasible.

    Costs are nonnegative and every column has at least two nonzeros, so no
    column singleton joins the crash basis and every reduced cost starts at
    its cost. Row 0 lies above its left-hand side at the lower bounds, so
    it starts on its artificial or its slack below zero.
    """
    n = int(rng.integers(1, 9))
    m = int(rng.integers(2, 9))
    c = rng.integers(0, 6, size=n).astype(float)
    lo = rng.integers(0, 3, size=n).astype(float)
    hi = lo + rng.integers(0, 8, size=n).astype(float)
    wide = rng.random(n) < 0.3
    hi[wide] = lo[wide] + WIDE
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    A[rng.random((m, n)) >= 0.6] = 0.0
    for j in range(n):
        while np.count_nonzero(A[:, j]) < 2:
            A[int(rng.integers(0, m)), j] = float(rng.choice([-2, -1, 1, 2, 3]))
    rel = rng.choice([">=", "="], size=m)
    # rows hold at a point within the bounds, unless a shift breaks one
    point = np.minimum(lo + rng.integers(0, 4, size=n), hi)
    rhs = A @ point - np.where(rel == ">=", rng.integers(0, 3, size=m), 0)
    shifted = rng.random(m) < 0.2
    rhs[shifted] += rng.integers(-5, 6, size=shifted.sum())
    if rhs[0] <= A[0] @ lo:
        rhs[0] = A[0] @ lo + float(rng.integers(1, 6))
    rows = [LinearRow(tuple((j, A[i, j]) for j in range(n) if A[i, j]), rel[i], rhs[i])
            for i in range(m)]
    ge, eq = rel == ">=", rel == "="
    ref = linprog(c, A_ub=-A[ge] if ge.any() else None, b_ub=-rhs[ge] if ge.any() else None,
                  A_eq=A[eq] if eq.any() else None, b_eq=rhs[eq] if eq.any() else None,
                  bounds=list(zip(lo, hi)), method="highs")
    return lp_of(n, c, lo, hi, rows), ref


class TestDualAgainstIndependentSolver:
    """Programs that take the dual phase agree with scipy's HiGHS."""

    @staticmethod
    def solve_recorded(lp, monkeypatch):
        """solve_lp(lp), asserting that it ran the dual phase."""
        runs = []
        run_dual = simplex._Solver.run_dual

        def recorded(solver, c):
            runs.append(solver)
            return run_dual(solver, c)

        with monkeypatch.context() as patch:
            patch.setattr(simplex._Solver, "run_dual", recorded)
            sol = solve_lp(lp)
        assert len(runs) == 1
        return sol

    def test_random_dual_programs_match_linprog(self, monkeypatch):
        rng = np.random.default_rng(2024)
        statuses = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0}
        ratio = simplex._Solver._dual_ratio
        flipped = set()  # the trials whose ratio tests flipped a column

        def counted(solver, *args):
            q, flips = ratio(solver, *args)
            if flips.size:
                flipped.add(trial)
            return q, flips

        monkeypatch.setattr(simplex._Solver, "_dual_ratio", counted)
        for trial in range(150):
            lp, ref = random_dual_program(rng)
            sol = self.solve_recorded(lp, monkeypatch)
            label = f"trial {trial}"
            assert ref.status in (0, 2), label
            if ref.status == 0:
                assert sol.status is LpStatus.OPTIMAL, label
                assert sol.objective == pytest.approx(
                    ref.fun, abs=1e-6 * (1 + abs(ref.fun))), label
                assert residuals_ok(lp, sol.x), label
            else:
                assert sol.status is LpStatus.INFEASIBLE, label
            statuses[sol.status] += 1
        assert min(statuses.values()) >= 20, statuses
        # the finite upper bounds make the long step pass breakpoints
        assert len(flipped) >= 20, len(flipped)

    def test_blands_rule_from_the_first_stall_gives_the_same_answers(self, monkeypatch):
        rng = np.random.default_rng(2024)
        programs = [random_dual_program(rng)[0] for _ in range(40)]
        default = [self.solve_recorded(lp, monkeypatch) for lp in programs]
        init = simplex._Solver.__init__
        ratio = simplex._Solver._dual_ratio
        bland_pivots = []
        bland_flips = 0

        def eager_bland(solver, *args, **kwargs):
            init(solver, *args, **kwargs)
            solver.bland_threshold = 0

        def counted(solver, d, cols, alpha, s, bland, slope):
            nonlocal bland_flips
            q, flips = ratio(solver, d, cols, alpha, s, bland, slope)
            bland_pivots.append(bland)
            bland_flips += bland * flips.size
            return q, flips

        monkeypatch.setattr(simplex._Solver, "__init__", eager_bland)
        monkeypatch.setattr(simplex._Solver, "_dual_ratio", counted)
        for trial, (lp, first) in enumerate(zip(programs, default)):
            sol = self.solve_recorded(lp, monkeypatch)
            assert sol.status is first.status, trial
            if sol.status is LpStatus.OPTIMAL:
                assert sol.objective == pytest.approx(
                    first.objective, abs=1e-9 * (1 + abs(first.objective))), trial
        assert any(bland_pivots)
        # Bland's rule keeps the plain ratio test: no pivot under it flips
        assert bland_flips == 0


class TestBreakdown:
    """core_solve makes one run: a numerical breakdown reaches the caller."""

    def test_forced_breakdown_propagates(self, monkeypatch):
        std = simplex.build_standard_form(lp_of(2, [-3, -5], [0, 0], [10, 10], [
            LinearRow(((0, 1.0),), "<=", 4.0),
            LinearRow(((1, 2.0),), "<=", 12.0),
            LinearRow(((0, 3.0), (1, 2.0)), "<=", 18.0),
        ]))
        runs = []

        def always_breaks(solver):
            runs.append(solver)
            raise NumericalBreakdownError("forced breakdown")

        monkeypatch.setattr(simplex._Solver, "solve", always_breaks)
        with pytest.raises(NumericalBreakdownError, match="forced breakdown"):
            simplex.core_solve(std)
        assert len(runs) == 1


def assert_direction_matches_bounds(solver):
    """Every nonbasic column sits exactly on a bound, and dirn says which."""
    x, lo, up = solver.x, solver.lo, solver.up
    nonbasic = np.ones(solver.N, dtype=bool)
    nonbasic[solver.basis] = False
    assert np.all(~nonbasic | (x == lo) | (x == up))
    movable = nonbasic & (lo < up)
    dirn = np.where(movable & (x == lo), -1.0,
                    np.where(movable & (x == up), 1.0, 0.0))
    np.testing.assert_array_equal(solver.dirn, dirn)


def assert_eta_solves_match(solver, fresh, q, rng):
    """ftran of q and three random columns, and btran of the basic entries
    of the true costs and of a random vector, agree with a fresh
    factorization of the current basis."""
    for j in (q, *rng.integers(0, solver.N, size=3)):
        col = solver.column(int(j))
        want = fresh.solve(col)
        err = np.abs(solver.ftran(col) - want).max()
        assert err <= 1e-9 * max(1.0, np.abs(want).max()), (q, j)
    for k, c in enumerate((solver.c, rng.standard_normal(solver.N))):
        cB = c[solver.basis]
        want = fresh.solve(cB, trans="T")
        err = np.abs(solver.btran(cB) - want).max()
        assert err <= 1e-9 * max(1.0, np.abs(want).max()), (q, k)


class TestKernel:
    """Pivot-by-pivot invariants of the sparse eta file, the ratio test over
    the pivot column's nonzeros and the maintained pricing direction."""

    @staticmethod
    def kernel_programs():
        transfer, _ = build_transfer_program(generate(preset(1), 0))
        tiny, _ = build_allocation_program(generate(tiny_params(3), 3))
        # x2 prices in at the crash and starts on its upper bound 10, past
        # the row's room of 4, so the dual's ratio test passes x0 and x1
        flips = lp_of(3, [0.5, 0.5, -1], [0, 0, 0], [2, 2, 10],
                      [LinearRow(((0, -1.0), (1, -1.0), (2, 1.0)), "<=", 0.0)])
        return [transfer, tiny, flips]

    @staticmethod
    def loose_transfer():
        """The preset-1 transfer program with every upper bound but the
        fleet's lifted to 1,000: the columns that price in at the crash
        start far above their bounds in the model."""
        lp, ix = build_transfer_program(generate(preset(1), 0))
        upper = np.full(lp.num_vars, 1000.0)
        upper[ix.fleet] = lp.upper[ix.fleet]
        return LinearProgram(lp.num_vars, lp.objective, lp.lower, upper,
                             lp.integrality, lp.A, lp.sense, lp.rhs)

    @staticmethod
    def solve_watched(lp, monkeypatch, check):
        """Solve lp, calling check(solver, q, r, leaving) once after every
        pivot; the watch ends with the solve."""
        apply = simplex._Solver._apply

        def watched(solver, q, sigma, w, step, r, upper):
            leaving = int(solver.basis[r]) if r >= 0 else -1
            apply(solver, q, sigma, w, step, r, upper)
            check(solver, q, r, leaving)

        with monkeypatch.context() as patch:
            patch.setattr(simplex._Solver, "_apply", watched)
            solver = simplex._Solver(simplex.build_standard_form(lp), None, None)
            assert solver.solve().status is LpStatus.OPTIMAL

    def test_eta_solves_match_a_fresh_factorization(self, monkeypatch):
        rng = np.random.default_rng(5)
        pivots = []

        def check(solver, q, r, leaving):
            assert_eta_solves_match(solver, superlu(solver), q, rng)
            pivots.append(len(solver.etas))

        # a preset-1 transfer program takes about 100 dual pivots from the
        # crash, so a second one and the loose form keep the pivots checked
        # above 200
        second, _ = build_transfer_program(generate(preset(1), 1))
        for lp in self.kernel_programs()[:2] + [second, self.loose_transfer()]:
            self.solve_watched(lp, monkeypatch, check)
        # the check ran on long eta files, not only after refactorizations
        assert len(pivots) > 200 and max(pivots) == simplex.REFACTOR_EVERY

        # the factor itself: every basis that these solves factor solves
        # one column and two side by side as scipy's SuperLU does
        kinds = {}
        factor = simplex.splu

        def compared(B):
            lu = factor(B)
            kinds[type(lu).__name__] = kinds.get(type(lu).__name__, 0) + 1
            m = B.shape[0]
            if not m:
                return lu
            ref = splu(B.to_scipy())
            for rhs in (rng.standard_normal(m), rng.standard_normal((m, 2))):
                for trans in "NT":
                    want = ref.solve(rhs, trans=trans)
                    err = np.abs(lu.solve(rhs, trans) - want).max()
                    assert err <= 1e-12 * max(1.0, np.abs(want).max()), (m, trans)
            return lu

        monkeypatch.setattr(simplex, "splu", compared)
        for s in range(240):
            inst = generate(tiny_params(s), s)
            solve_allocation(inst)
            solve_transfer(inst)
        solve_allocation(generate(preset(1), 0))
        solve_transfer(generate(preset(1), 0))
        # every basis of these programs is triangular within the caps
        assert list(kinds) == ["_LevelFactor"] and kinds["_LevelFactor"] > 800, kinds
        # the transfer bases of presets 2 and 3 (229 and 304 rows, up to 16
        # rounds) are above the caps; lifted, the level factor takes them
        with monkeypatch.context() as patch:
            patch.setattr(simplex, "TRIANGULAR_ROWS", 10**6)
            patch.setattr(simplex, "TRIANGULAR_LEVELS", 10**6)
            for p in (2, 3):
                solve_allocation(generate(preset(p), 0))
                solve_transfer(generate(preset(p), 0))
        assert list(kinds) == ["_LevelFactor"], kinds
        draws = np.random.default_rng(11)
        for _ in range(100):
            solve_lp(random_program(draws)[0])
        # random rows leave some bumps, which SuperLU takes
        assert kinds["SuperLU"] > 0, kinds

    @staticmethod
    def no_peel(monkeypatch):
        """Make a call of the peel fail the test."""
        def peel(B):
            raise AssertionError(f"peeled a basis of {B.shape[0]} rows")

        monkeypatch.setattr(simplex, "_peel", peel)

    def test_bumped_and_large_bases_go_to_superlu(self, monkeypatch):
        # a 3-cycle: every row has two entries, so the peel finds no
        # singleton and SuperLU takes the basis
        cycle = sparse.csc_array(np.array([[2.0, 1, 0], [0, 3, 1], [1, 0, 4]]))
        lu = simplex.splu(CscMatrix.of(cycle))
        assert type(lu).__name__ == "SuperLU"
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(cycle.toarray() @ lu.solve(b), b, rtol=0, atol=1e-12)
        # the identity one row above the cap never pays for a peel
        self.no_peel(monkeypatch)
        rows = simplex.TRIANGULAR_ROWS + 1
        big = CscMatrix(np.arange(rows + 1), np.arange(rows), np.ones(rows), (rows, rows))
        assert type(simplex.splu(big)).__name__ == "SuperLU"

    def test_deep_triangular_basis_goes_to_superlu(self):
        # a bidiagonal basis peels one row per round
        n = simplex.TRIANGULAR_LEVELS
        for m, kind in ((n, "_LevelFactor"), (n + 1, "SuperLU")):
            B = sparse.csc_array(np.eye(m) - np.eye(m, k=-1))
            lu = simplex.splu(CscMatrix.of(B))
            assert type(lu).__name__ == kind, m
            b = np.arange(1.0, m + 1)
            assert np.allclose(B.toarray() @ lu.solve(b), b, rtol=0, atol=1e-12)
            assert np.allclose(B.toarray().T @ lu.solve(b, "T"), b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("level, seed, iterations, factorizations", [
        (2, 0, None, None),
        # day24: the pins of tests/test_transfer.py
        (5, 42, 1498, 48),
    ])
    def test_transfer_bases_above_the_cap_never_peel(self, monkeypatch, level, seed,
                                                     iterations, factorizations):
        # 229 and 2,404 rows: SuperLU factors every basis
        factors = []
        factor = simplex.splu

        def counted(B):
            assert B.shape[0] > simplex.TRIANGULAR_ROWS
            factors.append(type(lu := factor(B)).__name__)
            return lu

        self.no_peel(monkeypatch)
        monkeypatch.setattr(simplex, "splu", counted)
        outcome = solve_transfer(generate(preset(level), seed))
        assert outcome.status is SolveStatus.OPTIMAL
        assert factors and set(factors) == {"SuperLU"}
        if iterations is not None:
            assert outcome.iterations == iterations
            assert len(factors) == factorizations

    @pytest.mark.parametrize("B", [
        # two rows peel on one column, and the other column is empty
        CscMatrix(np.array([0, 2, 2]), np.array([0, 1]), np.array([1.0, 1.0]), (2, 2)),
        # triangular with a stored zero on the diagonal
        CscMatrix(np.array([0, 2, 3]), np.array([0, 1, 1]), np.array([1.0, 1.0, 0.0]), (2, 2)),
        # all ones: no row singleton, so SuperLU takes it and fails
        CscMatrix(np.array([0, 2, 4]), np.array([0, 1, 0, 1]), np.ones(4), (2, 2)),
    ])
    def test_singular_triangular_basis_raises(self, B):
        with pytest.raises(NumericalBreakdownError):
            simplex.splu(B)

    def test_maintained_direction_matches_status(self, monkeypatch):
        seen = {"artificial": 0, "dual": 0}
        assert_current = assert_direction_matches_bounds

        def check(solver, q, r, leaving):
            assert_current(solver)
            seen["artificial"] += leaving in artificials(solver.std)

        run_dual = simplex._Solver.run_dual

        def dual_start(solver, c):
            # after the crash and its flips
            assert_current(solver)
            seen["dual"] += 1
            return run_dual(solver, c)

        monkeypatch.setattr(simplex._Solver, "run_dual", dual_start)
        for lp in self.kernel_programs():
            self.solve_watched(lp, monkeypatch, check)
        assert min(seen.values()) > 0, seen

    def test_dual_pivots_keep_the_invariants(self, monkeypatch):
        # every dual pivot goes through _apply, so the watcher sees it
        rng = np.random.default_rng(7)
        run_dual, ratio = simplex._Solver.run_dual, simplex._Solver._dual_ratio
        in_dual = []  # the costs of the dual phase running now
        # the columns the last ratio test flips, and their directions before
        flipping = [np.zeros(0, dtype=np.int64), np.zeros(0)]
        seen = {"pivots": 0, "artificial": 0, "etas": 0, "solves": 0,
                "flip pivots": 0, "flips": 0}
        btran, reduced_costs = simplex._Solver.btran, simplex._Solver.reduced_costs
        calls = {"btran": 0, "priced": 0}

        def counted_btran(solver, c):
            calls["btran"] += 1
            return btran(solver, c)

        def counted_pricing(solver, c):
            calls["priced"] += 1
            return reduced_costs(solver, c)

        def watched_dual(solver, c):
            in_dual.append(c)
            try:
                return run_dual(solver, c)
            finally:
                in_dual.pop()
                seen["solves"] += 1

        def watched_ratio(solver, *args):
            q, flips = ratio(solver, *args)
            flipping[:] = [flips, solver.dirn[flips].copy()]
            return q, flips

        def check(solver, q, r, leaving):
            # a pivot costs one btran, for its pivot row, apart from the
            # btran of c_B that prices each fresh factorization
            pivot_rows = calls["btran"] - calls["priced"]
            if not in_dual:
                return
            assert pivot_rows == 1, (q, pivot_rows)
            assert_direction_matches_bounds(solver)
            # every flipped column sits on its other bound, dirn negated
            flips, before = flipping
            other = np.where(before < 0, solver.up[flips], solver.lo[flips])
            np.testing.assert_array_equal(solver.x[flips], other)
            np.testing.assert_array_equal(solver.dirn[flips], -before)
            fresh = superlu(solver)
            c = in_dual[-1]
            d = c - solver.AT @ fresh.solve(c[solver.basis], trans="T")
            # dual feasibility holds after every pivot, and the reduced costs
            # updated from the pivot row match a fresh pricing
            assert np.all(solver.dirn * d <= solver.dtol), q
            movable = solver.dirn != 0
            err = np.abs(solver.d[movable] - d[movable]).max(initial=0.0)
            assert err <= 1e-9 * max(1.0, np.abs(d[movable]).max(initial=0.0)), q
            # the basic values solve B x_B = b - N x_N
            xn = solver.x.copy()
            xn[solver.basis] = 0.0
            want = fresh.solve(solver.std.b - solver.A @ xn)
            err = np.abs(solver.x[solver.basis] - want).max()
            assert err <= 1e-9 * max(1.0, np.abs(want).max()), q
            assert_eta_solves_match(solver, fresh, q, rng)
            seen["pivots"] += 1
            seen["artificial"] += leaving in artificials(solver.std)
            seen["etas"] = max(seen["etas"], len(solver.etas))
            seen["flip pivots"] += flips.size > 0
            seen["flips"] += flips.size
            calls.update(btran=0, priced=0)  # the checks above call btran too

        monkeypatch.setattr(simplex._Solver, "btran", counted_btran)
        monkeypatch.setattr(simplex._Solver, "reduced_costs", counted_pricing)
        monkeypatch.setattr(simplex._Solver, "run_dual", watched_dual)
        monkeypatch.setattr(simplex._Solver, "_dual_ratio", watched_ratio)
        transfer, tiny, _ = self.kernel_programs()
        day, _ = build_allocation_program(generate(preset(1), 0))
        for lp in (tiny, day, transfer):
            before = seen["solves"]
            self.solve_watched(lp, monkeypatch, check)
            assert seen["solves"] == before + 1  # the program took the dual
        # the checks ran on long eta files, artificials were driven out and
        # the long step flipped columns
        assert seen["etas"] == simplex.REFACTOR_EVERY, seen
        assert seen["pivots"] > 50 and seen["artificial"] > 0, seen
        assert seen["flip pivots"] > 0 and seen["flips"] > seen["flip pivots"], seen

    def test_dual_start_factors_once(self, monkeypatch, dual_runs):
        # the crash returns the prices of its triangular basis, so the
        # dual-feasibility check needs no factorization; the dual starts on
        # the one factorization of that start
        factored, before_pivot = [], []
        lu = simplex.splu

        def counted(*args, **kwargs):
            factored.append(True)
            return lu(*args, **kwargs)

        def check(solver, q, r, leaving):
            if not before_pivot:
                before_pivot.append(len(factored))

        monkeypatch.setattr(simplex, "splu", counted)
        self.solve_watched(self.kernel_programs()[1], monkeypatch, check)
        assert len(dual_runs) == 1
        assert before_pivot == [1]

    def test_pivot_row_formations_agree(self, monkeypatch):
        # on every pivot row the solves below form, the gather of A's rows at rho's nonzeros and the dense product A^T rho
        # give the same columns and values to 1e-12. The gather also keeps
        # the columns whose entries cancel, which the product drops where
        # they cancel exactly; the two round differently
        pivot_row = simplex._Solver.pivot_row
        compared = []

        def both(solver, r):
            rule, rows = solver.gather_nz, []
            for below in (np.inf, 0):  # the gather, then the product
                solver.gather_nz = below
                cols, vals = pivot_row(solver, r)
                assert np.all(np.diff(cols) > 0), r  # distinct, ascending
                row = np.zeros(solver.N)
                row[cols] = vals
                rows.append((cols, row))
            solver.gather_nz = rule
            (gc, gather), (pc, product) = rows
            assert np.isin(pc, gc).all(), r
            err = np.abs(gather - product).max()
            assert err <= 1e-12 * max(1.0, np.abs(product).max()), r
            compared.append(solver.m)
            return pivot_row(solver, r)

        monkeypatch.setattr(simplex._Solver, "pivot_row", both)
        rng = np.random.default_rng(3)
        for _ in range(100):
            solve_lp(random_program(rng)[0])
        small = len(compared)
        transfer, _ = build_transfer_program(generate(preset(3), 0))
        assert solve_lp(transfer).status is LpStatus.OPTIMAL
        assert small >= 100 and len(compared) - small >= 200, (small, len(compared))
