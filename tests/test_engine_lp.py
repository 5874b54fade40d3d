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
    MilpStatus,
    NumericalBreakdownError,
    simplex,
    solve_lp,
    solve_milp,
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
    """The crash gives an equality row to a column singleton that fits its
    bounds, and an inequality row whose slack sits at zero to a column that
    prices in and meets no other inequality row."""

    @staticmethod
    def crashed(lp, lo_struct=None, hi_struct=None):
        solver = simplex._Solver(simplex.build_standard_form(lp), lo_struct, hi_struct)
        solver.crash_basis()
        return solver

    @staticmethod
    def phases_run(monkeypatch):
        """The phases solves run from now on: "dual" or 2."""
        phases = []
        run_phase, run_dual = simplex._Solver.run_phase, simplex._Solver.run_dual

        def recorded(solver):
            phases.append(2)
            return run_phase(solver)

        def recorded_dual(solver, c):
            phases.append("dual")
            return run_dual(solver, c)

        monkeypatch.setattr(simplex._Solver, "run_phase", recorded)
        monkeypatch.setattr(simplex._Solver, "run_dual", recorded_dual)
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
        run_dual, dual_pivots = simplex._Solver.run_dual, []

        def counted(solver, c):
            feasible = run_dual(solver, c)
            dual_pivots.append(solver.iterations)
            return feasible

        monkeypatch.setattr(simplex._Solver, "run_dual", counted)
        sol = solve_lp(lp)
        # the crash is feasible, so the dual only factors it
        assert phases == ["dual", 2]
        assert dual_pivots == [0]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.5, abs=1e-9)
        assert np.allclose(sol.x, [0.0, 2.5, 1.5, 0.0], atol=1e-9)

    def test_inequality_row_starts_on_its_slack(self, monkeypatch):
        # x0 is a singleton of the >= row and would fit at 3, but the row
        # goes to its slack at -3, and the dual makes it feasible
        lp = lp_of(2, [1, 2], [0, 0], [10, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), ">=", 3.0),
            LinearRow(((1, 1.0),), "<=", 5.0),
        ])
        solver = self.crashed(lp)
        slack = solver.std.slack_col[0]
        assert solver.basis[0] == slack
        assert solver.x[slack] == -3.0
        assert not solver.x[solver.n_real:].any()
        phases = self.phases_run(monkeypatch)
        sol = solve_lp(lp)
        assert phases == ["dual", 2]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(sol.x, [3.0, 0.0], atol=1e-9)

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
        # nonnegative costs price out at the crash, so the dual needs no shift
        assert phases == ["dual", 2]
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0, abs=1e-9)
        assert np.allclose(res.x[:2], [1.0, 2.0], atol=1e-9)

    def test_zero_slack_row_takes_the_column_that_prices_in_most(self, dual_runs):
        # a serve/stock miniature: x0, x1, x2 serve under the limit row
        # x0 + x1 + x2 - x3 <= 0, whose slack sits at zero; the demand rows
        # start on the shortage singletons x4 (value 1) and x5 (value 3),
        # at price 10. x0 and x1 price in at -9, x2 at -5; x1's other row
        # holds the larger value, so x1 takes the limit row at price -9
        lp = lp_of(6, [1, 1, 5, 2, 10, 10], [0] * 6, [inf, inf, inf, 4, inf, inf], [
            LinearRow(((0, 1.0), (1, 1.0), (2, 1.0), (3, -1.0)), "<=", 0.0),
            LinearRow(((0, 1.0), (4, 1.0)), "=", 1.0),
            LinearRow(((1, 1.0), (2, 1.0), (5, 1.0)), "=", 3.0),
        ])
        solver = simplex._Solver(simplex.build_standard_form(lp), None, None)
        d = solver.crash_basis()
        slack = solver.std.slack_col[0]
        assert solver.basis.tolist() == [1, 4, 5]
        assert solver.dirn[slack] == -1.0 and solver.x[slack] == 0.0
        assert np.array_equal(solver.x[:6], [0, 0, 0, 0, 1, 3])
        # the reduced costs are those of the prices y = B^-T c_B = (-9, 10,
        # 10), built without a factorization
        y = splu(solver.A[:, solver.basis]).solve(solver.c[solver.basis], trans="T")
        assert np.allclose(y, [-9.0, 10.0, 10.0], rtol=0, atol=1e-12)
        assert np.array_equal(d, solver.c - solver.AT @ np.array([-9.0, 10.0, 10.0]))
        # the start prices out once x3's cost is shifted (dual_runs checks
        # it against a fresh factorization), and the optimum serves it all
        sol = solve_lp(lp)
        assert [shifted.tolist() for shifted, _ in dual_runs] == [[3]]
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(12.0, abs=1e-9)
        assert np.allclose(sol.x, [1, 3, 0, 4, 0, 0], atol=1e-9)

    def test_zero_slack_row_keeps_its_slack_without_a_fitting_column(self):
        # x0 meets two inequality rows, x1's sign would move the row away
        # from its limit, x2 prices out, and x3 is fixed by its bounds; the
        # demand row starts on the shortage singleton x4 at price 10
        lp = lp_of(5, [1, 1, 20, 1, 10], [0, 0, 0, 0, 0], [inf, inf, inf, 0, inf], [
            LinearRow(((0, 1.0), (1, -1.0), (2, 1.0), (3, 1.0)), "<=", 0.0),
            LinearRow(((0, 1.0),), "<=", 7.0),
            LinearRow(((0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0), (4, 1.0)), "=", 2.0),
        ])
        std = simplex.build_standard_form(lp)
        assert std.crash_columns[0].tolist() == [2, 3]
        solver = simplex._Solver(std, None, None)
        d = solver.crash_basis()
        assert solver.basis.tolist() == [std.slack_col[0], std.slack_col[1], 4]
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

    def test_negative_cost_shifts_into_the_dual(self, monkeypatch, dual_runs):
        # x1 at its lower bound prices in at cost -2, so the crash basis is
        # not dual feasible: the dual runs with x1's cost shifted until it
        # prices out, and phase 2 restores the true cost
        lp = lp_of(2, [1, -2], [0, 0], [10, 10], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 3.0),
            LinearRow(((1, 1.0),), "<=", 5.0),
        ])
        std = simplex.build_standard_form(lp)
        hi = np.array([1.0, 10.0])
        assert self.crashed(lp, hi_struct=hi).basis[0] == std.n_real
        phases = self.phases_run(monkeypatch)
        res = simplex.core_solve(std, None, hi)
        assert phases == ["dual", 2]
        assert [shifted.tolist() for shifted, _ in dual_runs] == [[1]]
        assert res.status is LpStatus.OPTIMAL
        assert res.objective == pytest.approx(-6.0, abs=1e-9)
        assert np.allclose(res.x[:2], [0.0, 3.0], atol=1e-9)

    def test_shifted_dual_proves_infeasibility_by_a_dual_ray(self, monkeypatch, dual_runs):
        # x1 prices in at cost -1; x0 <= 2 and x1 <= 1 cannot make 5
        lp = lp_of(2, [1, -1], [0, 0], [2, 1], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 5.0),
            LinearRow(((1, 1.0),), "<=", 1.0),
        ])
        phases = self.phases_run(monkeypatch)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.INFEASIBLE
        assert phases == ["dual"]
        assert [(shifted.tolist(), feasible) for shifted, feasible in dual_runs] \
            == [([1], False)]
        assert sol.iterations == 1

    def test_shifted_dual_leaves_the_unbounded_ray_to_phase_2(self, monkeypatch, dual_runs):
        # x2 prices in at cost -1 and nothing bounds it: the shifted dual
        # makes the basis feasible and phase 2 finds the ray
        lp = lp_of(3, [0, 0, -1], [0, 0, 0], [1, inf, inf], [
            LinearRow(((0, 1.0), (1, 1.0)), "=", 3.0),
            LinearRow(((1, 1.0), (2, -1.0)), "<=", 4.0),
        ])
        phases = self.phases_run(monkeypatch)
        sol = solve_lp(lp)
        assert sol.status is LpStatus.UNBOUNDED
        assert phases == ["dual", 2]
        assert [(shifted.tolist(), feasible) for shifted, feasible in dual_runs] \
            == [([2], True)]
        assert sol.iterations == 1

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


def equality_under_a_loose_row(R):
    """min x0 + x1 with x0 + x1 = 1 and x0 + x1 <= R, both integer.

    Neither column is a singleton, so the equality row starts on its
    artificial at 1 and the loose row on its slack at R.
    """
    return lp_of(2, [1, 1], [0, 0], [inf, inf], [
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
            elif ref.status == 3:
                compared += 1
                assert sol.status is LpStatus.UNBOUNDED, label
        assert compared >= 100  # the families above must dominate the draw
        # crash bases that do not price out reach feasibility on shifted costs
        shifted = sum(cols.size > 0 for cols, _ in dual_runs)
        assert shifted >= 100, shifted

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
        shifted = sum(cols.size > 0 for cols, _ in dual_runs)
        assert shifted >= 20, shifted


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
    hi[rng.random(n) < 0.3] = inf
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

        def counted(solver, d, alpha, s, bland, slope):
            nonlocal bland_flips
            q, flips = ratio(solver, d, alpha, s, bland, slope)
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
        # x0 and x1 cross their whole range without any basis change
        flips = lp_of(3, [-1, -1, 2], [0, 0, -1], [2, 2, 3],
                      [LinearRow(((0, 1.0), (1, 1.0), (2, 1.0)), "<=", 10.0)])
        return [transfer, tiny, flips]

    @staticmethod
    def solve_watched(lp, monkeypatch, check):
        """Solve lp, calling check(solver, q, r, leaving) after every pivot."""
        apply = simplex._Solver._apply

        def watched(solver, q, sigma, w, step, r, upper):
            leaving = int(solver.basis[r]) if r >= 0 else -1
            apply(solver, q, sigma, w, step, r, upper)
            check(solver, q, r, leaving)

        monkeypatch.setattr(simplex._Solver, "_apply", watched)
        solver = simplex._Solver(simplex.build_standard_form(lp), None, None)
        assert solver.solve().status is LpStatus.OPTIMAL

    def test_eta_solves_match_a_fresh_factorization(self, monkeypatch):
        rng = np.random.default_rng(5)
        pivots = []

        def check(solver, q, r, leaving):
            assert_eta_solves_match(solver, splu(solver.A[:, solver.basis]), q, rng)
            pivots.append(len(solver.etas))

        # a preset-1 transfer program takes about 150 pivots from the
        # triangular crash, so a second one keeps the pivots checked above 200
        second, _ = build_transfer_program(generate(preset(1), 1))
        for lp in self.kernel_programs()[:2] + [second]:
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
        seen = {"flip": 0, "artificial": 0, "dual": 0, "phase": 0}
        assert_current = assert_direction_matches_bounds

        def check(solver, q, r, leaving):
            assert_current(solver)
            seen["flip"] += r < 0
            seen["artificial"] += leaving >= solver.n_real

        run_phase, run_dual = simplex._Solver.run_phase, simplex._Solver.run_dual

        def dual_start(solver, c):
            # after the crash
            assert_current(solver)
            seen["dual"] += 1
            return run_dual(solver, c)

        def phase_start(solver):
            # after the crash or the dual phase
            assert_current(solver)
            seen["phase"] += 1
            return run_phase(solver)

        monkeypatch.setattr(simplex._Solver, "run_dual", dual_start)
        monkeypatch.setattr(simplex._Solver, "run_phase", phase_start)
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
            if not in_dual:
                return
            assert_direction_matches_bounds(solver)
            # every flipped column sits on its other bound, dirn negated
            flips, before = flipping
            other = np.where(before < 0, solver.up[flips], solver.lo[flips])
            np.testing.assert_array_equal(solver.x[flips], other)
            np.testing.assert_array_equal(solver.dirn[flips], -before)
            fresh = splu(solver.A[:, solver.basis])
            c = in_dual[-1]
            d = c - solver.AT @ fresh.solve(c[solver.basis], trans="T")
            # dual feasibility holds after every pivot
            assert np.all(solver.dirn * d <= simplex._dual_tol(c)), q
            # the basic values solve B x_B = b - N x_N
            xn = solver.x.copy()
            xn[solver.basis] = 0.0
            want = fresh.solve(solver.std.b - solver.A @ xn)
            err = np.abs(solver.x[solver.basis] - want).max()
            assert err <= 1e-9 * max(1.0, np.abs(want).max()), q
            assert_eta_solves_match(solver, fresh, q, rng)
            seen["pivots"] += 1
            seen["artificial"] += leaving >= solver.n_real
            seen["etas"] = max(seen["etas"], len(solver.etas))
            seen["flip pivots"] += flips.size > 0
            seen["flips"] += flips.size

        monkeypatch.setattr(simplex._Solver, "run_dual", watched_dual)
        monkeypatch.setattr(simplex._Solver, "_dual_ratio", watched_ratio)
        tiny = self.kernel_programs()[1]
        day, _ = build_allocation_program(generate(preset(1), 0))
        for lp in (tiny, day):
            before = seen["solves"]
            self.solve_watched(lp, monkeypatch, check)
            assert seen["solves"] == before + 1  # the program took the dual
        # the checks ran on long eta files, artificials were driven out and
        # the long step flipped columns
        assert seen["etas"] == simplex.REFACTOR_EVERY, seen
        assert seen["pivots"] > 50 and seen["artificial"] > 0, seen
        assert seen["flip pivots"] > 0 and seen["flips"] > seen["flip pivots"], seen

    def test_phase_2_keeps_the_reduced_costs(self, monkeypatch):
        # after every phase-2 pivot the maintained reduced costs match a
        # fresh pricing on every movable nonbasic column. A basis change
        # costs one btran (the pivot row) and a bound flip none, apart from
        # the btran of c_B that prices each fresh factorization
        run_phase = simplex._Solver.run_phase
        btran, reduced_costs = simplex._Solver.btran, simplex._Solver.reduced_costs
        in_phase = []
        calls = {"btran": 0, "priced": 0}
        seen = {"pivots": 0, "flips": 0, "etas": 0}

        def watched_phase(solver):
            in_phase.append(True)
            try:
                return run_phase(solver)
            finally:
                in_phase.pop()

        def counted_btran(solver, c):
            calls["btran"] += 1
            return btran(solver, c)

        def counted_pricing(solver, c):
            calls["priced"] += 1
            return reduced_costs(solver, c)

        def check(solver, q, r, leaving):
            pivot_rows = calls["btran"] - calls["priced"]
            calls.update(btran=0, priced=0)
            if not in_phase:
                return
            assert pivot_rows == (r >= 0), (q, r, pivot_rows)
            fresh = splu(solver.A[:, solver.basis])
            c = solver.c
            d = c - solver.AT @ fresh.solve(c[solver.basis], trans="T")
            movable = solver.dirn != 0
            err = np.abs(solver.d[movable] - d[movable]).max()
            assert err <= 1e-9 * max(1.0, np.abs(d[movable]).max()), q
            seen["pivots"] += 1
            seen["flips"] += r < 0
            seen["etas"] = max(seen["etas"], len(solver.etas))

        monkeypatch.setattr(simplex._Solver, "run_phase", watched_phase)
        monkeypatch.setattr(simplex._Solver, "btran", counted_btran)
        monkeypatch.setattr(simplex._Solver, "reduced_costs", counted_pricing)
        transfer, _, flips = self.kernel_programs()
        for lp in (transfer, flips):
            self.solve_watched(lp, monkeypatch, check)
        # the checks ran on long eta files, and bound flips were among them
        assert seen["etas"] == simplex.REFACTOR_EVERY, seen
        assert seen["pivots"] > 100 and seen["flips"] >= 2, seen

    def test_dual_start_factors_once(self, monkeypatch):
        # the crash returns the prices of its triangular basis, so the
        # dual-feasibility check needs no factorization; run_dual factors
        # that start
        factored, before_pivot = [], []
        lu = simplex.splu

        def counted(*args, **kwargs):
            factored.append(True)
            return lu(*args, **kwargs)

        def check(solver, q, r, leaving):
            if not before_pivot:
                before_pivot.append(len(factored))

        phases = TestCrash.phases_run(monkeypatch)
        monkeypatch.setattr(simplex, "splu", counted)
        self.solve_watched(self.kernel_programs()[1], monkeypatch, check)
        assert phases == ["dual", 2]
        assert before_pivot == [1]
