"""Branch-and-bound layer: exactness, bounds, limits, and determinism."""

import itertools

import numpy as np
import pytest

from ambuplan.engine import (
    LinearProgram,
    LinearRow,
    MilpStatus,
    UnboundedProgramError,
    solve_milp,
)

inf = np.inf


def knapsack():
    # max 8a+11b+6c+4d with weights 5,7,4,3 under 14: take b, c, d for 21
    return LinearProgram.from_rows(4, [-8, -11, -6, -4], [0] * 4, [1] * 4, [1] * 4, [
        LinearRow(((0, 5.0), (1, 7.0), (2, 4.0), (3, 3.0)), "<=", 14.0),
    ])


def brute_force(lp: LinearProgram):
    """Grid-enumerate an all-integer bounded program; None when infeasible."""
    ranges = [range(int(lp.lower[j]), int(lp.upper[j]) + 1)
              for j in range(lp.num_vars)]
    best = None
    for point in itertools.product(*ranges):
        x = np.asarray(point, dtype=float)
        feasible = True
        for row in lp.rows:
            value = sum(coef * x[j] for j, coef in row.coeffs)
            if row.relation == "<=" and value > row.rhs + 1e-9:
                feasible = False
            elif row.relation == ">=" and value < row.rhs - 1e-9:
                feasible = False
            elif row.relation == "=" and abs(value - row.rhs) > 1e-9:
                feasible = False
            if not feasible:
                break
        if feasible:
            objective = int(lp.objective @ x)
            if best is None or objective < best:
                best = objective
    return best


class TestDirected:
    def test_knapsack_exact_integer_objective(self):
        sol = solve_milp(knapsack())
        assert sol.status is MilpStatus.OPTIMAL
        assert sol.objective == -21
        assert isinstance(sol.objective, int)
        assert np.allclose(sol.x, [0, 1, 1, 1])
        assert sol.best_bound == -21
        assert sol.nodes >= 1

    def test_integer_infeasibility_from_parity(self):
        lp = LinearProgram.from_rows(1, [1], [0], [3], [1],
                           [LinearRow(((0, 2.0),), "=", 1.0)])
        assert solve_milp(lp).status is MilpStatus.INFEASIBLE

    def test_mixed_integer_continuous(self):
        lp = LinearProgram.from_rows(2, [-1, -2], [0, 0], [2.5, 1.8], [1, 0], [
            LinearRow(((0, 1.0), (1, 1.0)), "<=", 3.2),
        ])
        sol = solve_milp(lp)
        assert sol.status is MilpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(round(sol.x[0]), abs=1e-9)
        assert sol.objective == pytest.approx(-4.6, abs=1e-7)  # x=1, y=1.8

    def test_all_continuous_delegates_to_relaxation(self):
        lp = LinearProgram.from_rows(2, [1, 1], [0, 0], [10, 10], [0, 0],
                           [LinearRow(((0, 1.0), (1, 1.0)), ">=", 1.0)])
        sol = solve_milp(lp)
        assert sol.status is MilpStatus.OPTIMAL
        assert sol.objective == pytest.approx(1.0, abs=1e-9)
        assert sol.nodes == 1

    def test_unbounded_integer_program_raises(self):
        lp = LinearProgram.from_rows(1, [-1], [0], [inf], [1], [])
        with pytest.raises(UnboundedProgramError):
            solve_milp(lp)

    def test_node_limit_stops_with_valid_bound(self):
        sol = solve_milp(knapsack(), node_limit=1)
        assert sol.status is MilpStatus.NODE_LIMIT
        assert sol.nodes <= 1
        assert sol.best_bound is not None
        assert sol.best_bound <= -21  # never above the true optimum

    def test_node_limit_zero_explores_nothing(self):
        sol = solve_milp(knapsack(), node_limit=0)
        assert sol.status is MilpStatus.NODE_LIMIT
        assert sol.nodes == 0
        assert sol.objective is None and sol.x is None

    def test_generous_node_limit_still_optimal(self):
        sol = solve_milp(knapsack(), node_limit=10_000)
        assert sol.status is MilpStatus.OPTIMAL
        assert sol.objective == -21

    def test_integral_costs_give_exact_int_objective(self):
        # relaxation sits at -23.5; the integer optimum packs two of the
        # better item for exactly -22, reported as a Python int
        lp = LinearProgram.from_rows(2, [-10, -11], [0, 0], [2, 2], [1, 1], [
            LinearRow(((0, 2.0), (1, 2.0)), "<=", 4.3),
        ])
        sol = solve_milp(lp)
        assert sol.objective == -22
        assert isinstance(sol.objective, int)
        assert sol.best_bound == -22

    def test_fractional_costs_stay_float(self):
        lp = LinearProgram.from_rows(1, [-0.5], [0], [3.0], [1], [])
        sol = solve_milp(lp)
        assert sol.objective == pytest.approx(-1.5, abs=1e-9)


class TestIncumbentObjective:
    @staticmethod
    def scalar_loop(c, x):
        """The incumbent's cost as one Python-int product per nonzero cost."""
        total = 0
        for j in np.flatnonzero(c):
            total += int(round(float(c[j]))) * int(round(float(x[j])))
        return total

    def test_matches_the_scalar_loop_at_costs_near_2_pow_62(self):
        from ambuplan.engine import branch_bound

        rng = np.random.default_rng(62)
        n = 300
        # integral floats near 2**62 (spacing 1024), either sign, some zero
        cost = (2.0**62 - 1024.0 * rng.integers(0, 2**20, size=n)) * rng.choice([-1, 1], size=n)
        cost[rng.random(n) < 0.2] = 0.0
        lp = LinearProgram.from_rows(n, cost, [-50] * n, [50] * n, [1] * n)
        assert branch_bound._integral_objective(lp)
        for trial in range(20):
            x = rng.integers(-50, 51, size=n).astype(float)
            # exact halves round to even; the rest sit off the integers
            kind = rng.random(n)
            x[kind < 0.2] += 0.5
            near = (kind >= 0.2) & (kind < 0.4)
            x[near] += rng.uniform(-1e-7, 1e-7, size=int(near.sum()))
            got = branch_bound._exact_objective(lp, x)
            assert type(got) is int
            assert got == self.scalar_loop(cost, x), trial
            # far beyond int64 and float64's exact integers
            assert abs(got) > 2**63
        assert branch_bound._exact_objective(lp, np.zeros(n)) == 0


class TestAgainstBruteForce:
    def test_random_all_integer_programs(self, dual_runs):
        rng = np.random.default_rng(777)
        infeasible_seen = 0
        for trial in range(150):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 5))
            cost = rng.integers(-5, 6, size=n).astype(float)
            lo = rng.integers(-2, 2, size=n).astype(float)
            hi = lo + rng.integers(0, 4, size=n).astype(float)
            rows = []
            for _ in range(m):
                a = rng.integers(-3, 4, size=n).astype(float)
                rel = ["<=", ">=", "="][int(rng.integers(0, 3))]
                rhs = float(rng.integers(-8, 9))
                rows.append(LinearRow(
                    tuple((j, a[j]) for j in range(n) if a[j]), rel, rhs))
            lp = LinearProgram.from_rows(n, cost, lo, hi, np.ones(n), rows)
            sol = solve_milp(lp)
            expected = brute_force(lp)
            label = f"trial {trial}"
            if expected is None:
                infeasible_seen += 1
                assert sol.status is MilpStatus.INFEASIBLE, label
            else:
                assert sol.status is MilpStatus.OPTIMAL, label
                assert sol.objective == expected, label
                assert sol.best_bound == expected, label
                got = np.rint(sol.x).astype(int)
                assert np.all(np.abs(sol.x - got) < 1e-6), label
        assert infeasible_seen >= 10  # the draw must exercise both branches
        # nodes whose crash basis does not price out take the dual on shifted costs
        shifted = sum(cols.size > 0 for cols, _ in dual_runs)
        assert shifted >= 55, shifted


class TestDeterminism:
    def problem(self):
        return LinearProgram.from_rows(4, [-8, -11, -6, -4], [0] * 4, [3] * 4, [1] * 4, [
            LinearRow(((0, 5.0), (1, 7.0), (2, 4.0), (3, 3.0)), "<=", 14.0),
            LinearRow(((0, 1.0), (1, -1.0)), ">=", -1.0),
        ])

    def test_repeat_solves_bit_identical(self):
        first = solve_milp(self.problem())
        second = solve_milp(self.problem())
        assert first.objective == second.objective
        assert first.x.tobytes() == second.x.tobytes()
        assert (first.nodes, first.iterations) == (second.nodes,
                                                   second.iterations)
