"""Tests of the benchmark's own helpers.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import itertools

import pytest

import reference
import spans
from ambuplan import generate, preset, solve_allocation
from workloads import TinyCheck


@pytest.mark.parametrize("model", ["alloc", "transfer"])
def test_highs_conversion_matches_solver_on_preset_1(model):
    inst = generate(preset(1), 0)
    lp, _ = reference.BUILDERS[model](inst)
    ref = reference.highs_reference(lp)
    mine = reference.SOLVERS[model](inst)
    assert ref.status is mine.status
    assert ref.objective == mine.objective
    assert reference.check_outcome(model, inst, mine, ref) is None


def test_check_outcome_names_a_wrong_objective():
    inst = generate(preset(1), 0)
    mine = solve_allocation(inst)
    wrong = reference.Reference(mine.status, mine.objective + 1)
    assert "objective" in reference.check_outcome("alloc", inst, mine, wrong)


def _ticking_clock(times):
    return iter(times).__next__


def test_self_time_subtracts_nested_children():
    # root [0, 100] holds a [10, 30] (which holds a1 [15, 20]) and b [50, 60]
    tracer = spans.Tracer(clock=_ticking_clock([0, 10, 15, 20, 30, 50, 60, 100]))
    root = tracer.start("root")
    a = tracer.start("a")
    a1 = tracer.start("a1")
    tracer.end(a1)
    tracer.end(a)
    b = tracer.start("b")
    tracer.end(b)
    tracer.end(root)
    tree = spans.SpanTree(tracer.spans)
    assert tree.self_seconds(root) == pytest.approx(70e-9)
    assert tree.self_seconds(a) == pytest.approx(15e-9)
    assert tree.self_seconds(a1) == pytest.approx(5e-9)
    assert {s.name for s in tree.descendants(root)} == {"a", "a1", "b"}


def test_covered_ns_merges_overlaps_and_clips():
    assert spans.covered_ns([(0, 10), (5, 15), (20, 25)], 0, 30) == 20
    assert spans.covered_ns([(-5, 5), (25, 40)], 0, 30) == 10
    assert spans.covered_ns([], 0, 30) == 0


def test_model_inherits_from_parent_span():
    tracer = spans.Tracer(clock=itertools.count().__next__)
    with tracer.span("model.solve", "transfer"):
        with tracer.span("simplex.core_solve") as inner:
            pass
    assert inner.model == "transfer"


def test_failing_solve_counts_as_failure(monkeypatch):
    def boom(inst):
        raise RuntimeError("injected")

    monkeypatch.setitem(reference.SOLVERS, "alloc", boom)
    workload = TinyCheck()
    tracer = spans.NullTracer()
    cases = [c for c in workload.inputs(0, tracer) if c.big_m is None][:3]
    passed = workload.run(cases, 0.0, tracer)
    attempted, failed, problems = workload.check(cases, [passed], tracer).counts
    assert (attempted, failed) == (6, 3)
    assert all("RuntimeError: injected" in p for p in problems)


def test_verdict_judges_each_input_once_and_keeps_the_sweep_apart(monkeypatch):
    def boom(inst):
        raise RuntimeError("injected")

    monkeypatch.setitem(reference.SOLVERS, "alloc", boom)
    workload = TinyCheck()
    tracer = spans.NullTracer()
    cases = workload.inputs(0, tracer)[:3]    # seed 0 at each big_m
    passed = workload.run(cases, 0.0, tracer)
    # a second round of the same inputs changes no count
    verdict = workload.check(cases, [passed, passed], tracer)
    assert verdict.counts[:2] == (2, 1)
    assert verdict.sweep_counts[:2] == (4, 2)


def test_traced_solve_records_every_layer():
    workload = TinyCheck()
    tracer = spans.Tracer()
    cases = [c for c in workload.inputs(0, tracer) if c.big_m is None][:4]
    with spans.patched(tracer):
        passed = workload.run(cases, 0.0, tracer)
    assert tracer.absent == []
    values, counts, absent = spans.layer_metrics(tracer)
    assert absent == []
    assert counts["simplex.iterations.alloc"] == 4
    assert values["simplex.refactorizations.alloc"] >= 1
    assert values["kernel.lu_solve_calls.transfer"] >= 1
    assert values["bb.nodes.alloc"] == 1
    iterations = sorted(r.solve.outcome.iterations for r in passed.records
                        if r.solve.model == "alloc")
    traced = sorted(s.attrs["iterations"] for s in tracer.spans
                    if s.name == "simplex.core_solve" and s.model == "alloc")
    assert traced == iterations
    assert workload.check(cases, [passed], tracer).counts[1] == 0


def test_missing_boundary_is_reported_absent(monkeypatch):
    import ambuplan.engine.simplex as simplex

    monkeypatch.delattr(simplex, "splu")
    tracer = spans.Tracer()
    with spans.patched(tracer):
        pass
    assert tracer.absent == ["ambuplan.engine.simplex.splu"]
    values, _, absent = spans.layer_metrics(tracer)
    assert "kernel.lu_solve_calls.alloc" in absent
    assert "simplex.refactorizations.transfer" in absent
    assert "kernel.lu_solve_calls.alloc" not in values
    assert "simplex.iterations.alloc" in values
