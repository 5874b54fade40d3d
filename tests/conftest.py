"""Shared fixtures: the hand-checkable two-station instance, tiny corpora
and the subprocess runner for the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ambuplan
from ambuplan import Instance, generate, tiny_params


@pytest.fixture
def tiny1() -> Instance:
    """Two stations, two zones, one slot; optimum 5 under both models.

    Station 0 covers zone 0 only, station 1 covers both. Dispatching from
    station 1 costs 2, so the cheapest complete plan splits the work:
    one vehicle at each station, each answering its own zone (1+1 holding
    plus 1+2 dispatch).
    """
    return Instance(
        num_stations=2,
        num_zones=2,
        num_slots=1,
        fleet_size=3,
        coverage=np.array([[1, 0], [1, 1]]),
        capacity=np.array([[2], [2]]),
        hold_cost=np.array([[1], [1]]),
        dispatch_cost=np.array([[1], [2]]),
        demand=np.array([[1], [1]]),
        big_m=1000,
    )


def tiny_corpus(start: int, count: int) -> list[tuple[int, Instance]]:
    """Seeded brute-forceable instances, shared by unit and acceptance tests."""
    return [(seed, generate(tiny_params(seed), seed))
            for seed in range(start, start + count)]


@pytest.fixture(scope="session")
def cli_env():
    """Environment for a child interpreter that imports this package.

    The absolute directory that holds the package goes first on
    ``PYTHONPATH``, ahead of any inherited entries. A relative entry such as
    ``src`` would not resolve from the temporary working directories the
    tests use, and the package need not be installed.
    """
    env = dict(os.environ)
    src = str(Path(ambuplan.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


@pytest.fixture(scope="session")
def run_cli(cli_env):
    """Run ``python -m ambuplan ARGS`` in a child interpreter (see
    ``cli_env``), output captured."""
    def run(*args, cwd):
        return subprocess.run([sys.executable, "-m", "ambuplan", *args],
                              capture_output=True, text=True, cwd=cwd,
                              env=cli_env)

    return run


@pytest.fixture(scope="session")
def unmet_rows():
    """``unmet_rows(lp, x)``: the rows of ``lp.rows`` that ``x`` breaks.

    Left-hand sides are summed in exact integer arithmetic, so the check
    suits integer plans only.
    """
    def unmet(lp, x):
        xs = [int(v) for v in x]
        out = []
        for k, row in enumerate(lp.rows):
            lhs = sum(int(coef) * xs[i] for i, coef in row.coeffs)
            rhs = int(row.rhs)
            held = {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}
            if not held[row.relation]:
                out.append(k)
        return out

    return unmet


@pytest.fixture
def dual_runs(monkeypatch):
    """One (columns the start flipped to their other bound, whether it
    reached a feasible basis) per call of the simplex's ``run_dual`` in the
    test.

    A flipped column is nonbasic both where the crash or the given start
    placed it and at the run's start, on the other bound; the crash places
    every nonbasic column on its lower bound, and a given start where its
    first ``place`` puts it. A solver may call ``run_dual`` more than once. Each call must start
    from a basis that prices out on the costs it is given, within each
    column's pricing tolerance, checked against a fresh factorization.
    """
    from scipy.sparse.linalg import splu

    from ambuplan.engine import simplex

    runs = []
    placed = {}  # each solver's directions as its crash or start placed them
    run_dual = simplex._Solver.run_dual
    crash_basis, place = simplex._Solver.crash_basis, simplex._Solver.place

    def crashed(solver):
        d = crash_basis(solver)
        was = np.where(solver.lo < solver.up, -1.0, 0.0)
        was[solver.basis] = 0.0
        placed[solver] = was
        return d

    def first_placed(solver, upper):
        place(solver, upper)
        placed.setdefault(solver, solver.dirn.copy())

    def recorded(solver, c):
        y = splu(solver.A.columns(solver.basis).to_scipy()).solve(
            c[solver.basis], trans="T")
        d = c - solver.AT @ y
        assert np.all(solver.dirn * d <= solver.dtol)
        was = placed[solver]
        flipped = np.flatnonzero((solver.dirn != was) & (solver.dirn != 0) & (was != 0))
        feasible = run_dual(solver, c)
        runs.append((flipped, feasible))
        return feasible

    monkeypatch.setattr(simplex._Solver, "crash_basis", crashed)
    monkeypatch.setattr(simplex._Solver, "place", first_placed)
    monkeypatch.setattr(simplex._Solver, "run_dual", recorded)
    return runs
