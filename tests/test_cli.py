"""Command-line front end: files, exit codes, reports, and round-trips."""

import contextlib
import dataclasses
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambuplan import (
    AllocationPlan,
    Instance,
    SolveOutcome,
    SolveStatus,
    TransferPlan,
    generate,
    solve_allocation,
    solve_transfer,
    tiny_params,
)
from ambuplan.cli import (
    dump_json,
    entry,
    instance_from_mapping,
    instance_to_mapping,
    plan_from_mapping,
    plan_to_mapping,
    save_instance,
)
from ambuplan.engine import NumericalBreakdownError

TINY1_FILE = {
    "schema_version": 1,
    "stations": 2,
    "zones": 2,
    "slots": 1,
    "fleet": 3,
    "coverage": [[1, 0], [1, 1]],
    "capacity": [[2], [2]],
    "hold_cost": [[1], [1]],
    "dispatch_cost": [[1], [2]],
    "demand": [[1], [1]],
    "big_m": 1000,
}


@pytest.fixture
def tiny1_path(tmp_path, tiny1):
    path = tmp_path / "tiny1.json"
    save_instance(tiny1, str(path))
    return str(path)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestInstanceFiles:
    def test_round_trip_preserves_value(self, tiny1):
        assert instance_from_mapping(instance_to_mapping(tiny1)) == tiny1

    def test_reads_spec_shaped_document(self, tiny1):
        assert instance_from_mapping(dict(TINY1_FILE)) == tiny1

    def test_transfer_cost_optional_on_read(self, tiny1):
        data = instance_to_mapping(tiny1)
        del data["transfer_cost"]
        assert instance_from_mapping(data).transfer_cost == 0

    def test_unknown_keys_rejected(self):
        data = dict(TINY1_FILE, rumor=1)
        with pytest.raises(Exception, match="unknown"):
            instance_from_mapping(data)

    def test_missing_keys_rejected(self):
        data = dict(TINY1_FILE)
        del data["fleet"]
        with pytest.raises(Exception, match="missing"):
            instance_from_mapping(data)

    def test_future_schema_rejected(self):
        # JSON's true and 1.0 equal 1 in Python, but neither is version 1
        for version in (2, True, 1.0):
            data = dict(TINY1_FILE, schema_version=version)
            with pytest.raises(Exception, match="schema_version"):
                instance_from_mapping(data)

    def test_serialized_bytes_are_canonical(self, tiny1):
        text = dump_json(instance_to_mapping(tiny1))
        assert text.endswith("\n")
        keys = list(json.loads(text))
        assert keys == sorted(keys)


class TestPlanFiles:
    def test_plan_round_trip(self, tiny1):
        outcome = solve_transfer(tiny1)
        data = json.loads(dump_json(plan_to_mapping(2, outcome)))
        model, status, plan = plan_from_mapping(data)
        assert (model, status) == (2, "optimal")
        assert plan == outcome.plan
        # both models on tiny seeds: the file's derived keys are checked on
        # read, and writing the plan read back gives the same bytes
        for seed in range(5):
            inst = generate(tiny_params(seed), seed)
            for model, solve in ((1, solve_allocation), (2, solve_transfer)):
                outcome = solve(inst)
                text = dump_json(plan_to_mapping(model, outcome))
                _, _, plan = plan_from_mapping(json.loads(text))
                assert plan == outcome.plan, f"seed {seed} model {model}"
                again = dataclasses.replace(outcome, plan=plan)
                assert dump_json(plan_to_mapping(model, again)) == text

    def test_best_bound_written_as_exact_int(self, tiny1):
        outcome = solve_transfer(tiny1)
        data = plan_to_mapping(2, outcome)
        assert data["objective"] == 5
        assert data["best_bound"] == 5
        assert isinstance(data["best_bound"], int)

    def test_best_bound_past_float64_is_written_exactly(self, tmp_path, capsys):
        # no fleet: the one call goes short at big_m = 2**53 + 1, which a
        # float64 cannot hold
        payload = dict(TINY1_FILE, stations=1, zones=1, fleet=0, coverage=[[1]],
                       capacity=[[1]], hold_cost=[[1]], dispatch_cost=[[1]],
                       demand=[[1]], big_m=2**53 + 1)
        path = write_json(tmp_path, "huge_m.json", payload)
        plan_path = str(tmp_path / "plan.json")
        assert entry(["solve", "--instance", path, "--model", "2",
                      "--out", plan_path]) == 0
        data = json.loads(open(plan_path).read())
        assert data["status"] == "optimal"
        assert data["objective"] == data["best_bound"] == 2**53 + 1
        capsys.readouterr()


class TestGenerate:
    def test_tiny_instance_file(self, tmp_path, capsys):
        out = str(tmp_path / "inst.json")
        assert entry(["generate", "--tiny", "--seed", "4", "--out", out]) == 0
        data = json.loads(open(out).read())
        assert data["schema_version"] == 1
        assert "wrote" in capsys.readouterr().out
        instance_from_mapping(data)  # parses back cleanly

    def test_preset_dimensions(self, tmp_path, capsys):
        out = str(tmp_path / "p1.json")
        assert entry(["generate", "--preset", "1", "--seed", "42",
                      "--out", out]) == 0
        data = json.loads(open(out).read())
        assert (data["stations"], data["zones"], data["slots"],
                data["fleet"]) == (10, 20, 4, 100)
        capsys.readouterr()

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        entry(["generate", "--preset", "2", "--seed", "7", "--out", a])
        entry(["generate", "--preset", "2", "--seed", "7", "--out", b])
        assert open(a, "rb").read() == open(b, "rb").read()
        capsys.readouterr()

    def test_params_file(self, tmp_path, capsys):
        params = write_json(tmp_path, "params.json", {
            "num_stations": 2, "num_zones": 3, "num_slots": 2,
            "fleet_size": 5, "demand_range": [0, 2], "coverage_prob": 1.0,
        })
        out = str(tmp_path / "inst.json")
        assert entry(["generate", "--params", params, "--seed", "1",
                      "--out", out]) == 0
        data = json.loads(open(out).read())
        assert (data["stations"], data["zones"]) == (2, 3)
        assert max(max(row) for row in data["demand"]) <= 2
        capsys.readouterr()

    def test_params_without_a_valid_instance_exit_2(self, tmp_path, capsys):
        base = {"num_stations": 2, "num_zones": 3, "num_slots": 2,
                "fleet_size": 5}
        out = tmp_path / "inst.json"
        for change in ({"num_stations": 0}, {"num_zones": 0}, {"num_slots": 0},
                       {"fleet_size": -3}, {"demand_range": [-2, 1]},
                       {"hold_cost_range": [-9, -1]}):
            params = write_json(tmp_path, "params.json", dict(base, **change))
            assert entry(["generate", "--params", params, "--seed", "1",
                          "--out", str(out)]) == 2, change
            assert capsys.readouterr().err.startswith("error: "), change
            assert not out.exists(), change

    def test_params_unknown_key_exits_2(self, tmp_path, capsys):
        params = write_json(tmp_path, "params.json",
                            {"num_stations": 1, "bogus": 2})
        code = entry(["generate", "--params", params, "--seed", "1",
                      "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_params_bad_range_exits_2(self, tmp_path, capsys):
        params = write_json(tmp_path, "params.json", {
            "num_stations": 1, "num_zones": 1, "num_slots": 1,
            "fleet_size": 1, "demand_range": [1, 2, 3],
        })
        assert entry(["generate", "--params", params, "--seed", "1",
                      "--out", str(tmp_path / "x.json")]) == 2
        assert "demand_range" in capsys.readouterr().err

    def test_family_flags_are_exclusive(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            entry(["generate", "--preset", "1", "--tiny", "--seed", "1",
                   "--out", str(tmp_path / "x.json")])
        assert info.value.code == 2
        capsys.readouterr()


class TestSolve:
    def test_model1_summary_and_plan_file(self, tiny1_path, tmp_path, capsys):
        plan_path = str(tmp_path / "plan.json")
        code = entry(["solve", "--instance", tiny1_path, "--model", "1",
                      "--out", plan_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=optimal" in out
        assert "objective=5" in out
        assert "shortage=0" in out
        data = json.loads(open(plan_path).read())
        assert data["model"] == 1 and data["status"] == "optimal"
        assert data["objective"] == 5
        assert data["plan"]["alloc"] == [[1], [1]]

    def test_model2_solves_same_instance(self, tiny1_path, tmp_path, capsys):
        plan_path = str(tmp_path / "plan2.json")
        assert entry(["solve", "--instance", tiny1_path, "--model", "2",
                      "--out", plan_path]) == 0
        data = json.loads(open(plan_path).read())
        assert data["objective"] == 5
        assert data["plan"]["stock"] == [[1], [1]]
        capsys.readouterr()

    def test_zero_demand_costs_nothing(self, tmp_path, capsys):
        payload = dict(TINY1_FILE, demand=[[0], [0]])
        path = write_json(tmp_path, "zero.json", payload)
        for model in ("1", "2"):
            assert entry(["solve", "--instance", path, "--model", model]) == 0
            assert "objective=0" in capsys.readouterr().out

    def test_uncovered_zone_per_model_semantics(self, tmp_path, capsys):
        payload = dict(TINY1_FILE, coverage=[[1, 0], [1, 0]])
        path = write_json(tmp_path, "uncov.json", payload)
        assert entry(["solve", "--instance", path, "--model", "1"]) == 3
        out = capsys.readouterr().out
        assert "status=infeasible" in out
        assert entry(["solve", "--instance", path, "--model", "2"]) == 0
        out = capsys.readouterr().out
        assert "status=optimal" in out and "shortage=1" in out

    def test_shortage_past_int64_is_counted_exactly(self, tmp_path, capsys):
        # no fleet: two zones of 2**62 calls each go short, 2**63 in all
        payload = dict(TINY1_FILE, fleet=0, demand=[[2**62], [2**62]])
        path = write_json(tmp_path, "short.json", payload)
        assert entry(["solve", "--instance", path, "--model", "2"]) == 0
        out = capsys.readouterr().out
        assert f"objective={2**63 * 1000} shortage={2**63} " in out

    @pytest.mark.parametrize("model", ["1", "2"])
    def test_int64_edge_never_reports_a_wrong_status(self, model, tmp_path, capsys):
        # a valid instance at the edge of int64: each slot's demand sums to
        # 2**63, and the fleet bound 2**63 - 1 is 2**63 in float64. The solve
        # succeeds or fails as a solver failure with a message, never
        # infeasible, and without a warning on the way
        payload = dict(TINY1_FILE, coverage=[[1, 1], [1, 1]], fleet=2**63 - 1,
                       capacity=[[2**62], [2**62]], demand=[[2**62], [2**62]],
                       big_m=2**66)
        path = write_json(tmp_path, "edge.json", payload)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = entry(["solve", "--instance", path, "--model", model])
        captured = capsys.readouterr()
        assert code in (0, 6)
        if code == 6:
            assert captured.err.startswith("error: solver failure: ")
            assert "Traceback" not in captured.err
        else:
            assert "status=optimal" in captured.out

    def test_infeasible_still_writes_plan_file(self, tmp_path, capsys):
        payload = dict(TINY1_FILE, coverage=[[1, 0], [1, 0]])
        path = write_json(tmp_path, "uncov.json", payload)
        plan_path = str(tmp_path / "plan.json")
        assert entry(["solve", "--instance", path, "--model", "1",
                      "--out", plan_path]) == 3
        data = json.loads(open(plan_path).read())
        assert data["status"] == "infeasible"
        assert data["plan"] is None and data["objective"] is None
        capsys.readouterr()

    def test_node_limit_exit_code_and_null_bound(self, tiny1_path, tmp_path,
                                                 capsys):
        plan_path = str(tmp_path / "plan.json")
        code = entry(["solve", "--instance", tiny1_path, "--model", "1",
                      "--node-limit", "0", "--out", plan_path])
        assert code == 4
        data = json.loads(open(plan_path).read())
        assert data["status"] == "node_limit"
        assert data["best_bound"] is None  # nothing was explored
        rejected = str(tmp_path / "rejected.json")
        assert entry(["solve", "--instance", tiny1_path, "--model", "1",
                      "--node-limit", "-1", "--out", rejected]) == 2
        assert "--node-limit must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "rejected.json").exists()

    def test_workers_flag_accepted(self, tiny1_path, tmp_path, capsys):
        # both flags are kept for compatibility and change no output byte
        for model in ("1", "2"):
            plans = []
            for k, extra in enumerate(([], ["--workers", "2"],
                                       ["--workers", "2", "--deterministic"])):
                plan_path = tmp_path / f"plan{model}_{k}.json"
                assert entry(["solve", "--instance", tiny1_path, "--model",
                              model, "--out", str(plan_path), *extra]) == 0
                plans.append(plan_path.read_bytes())
            assert plans[1] == plans[0] and plans[2] == plans[0]
        assert entry(["solve", "--instance", tiny1_path, "--model", "2",
                      "--workers", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("model, solver", [(1, "solve_allocation"),
                                               (2, "solve_transfer")])
    def test_solver_failure_exits_6_without_plan(self, model, solver, tiny1_path,
                                                 tmp_path, capsys, monkeypatch):
        def breakdown(inst, node_limit=None):
            raise NumericalBreakdownError("no acceptable pivot")

        monkeypatch.setattr(f"ambuplan.cli.{solver}", breakdown)
        plan_path = tmp_path / "plan.json"
        assert entry(["solve", "--instance", tiny1_path, "--model", str(model),
                      "--out", str(plan_path)]) == 6
        err = capsys.readouterr().err
        assert err == "error: solver failure: no acceptable pivot\n"
        assert not plan_path.exists()

    def test_malformed_inputs_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        assert entry(["solve", "--instance", missing, "--model", "1"]) == 2
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json", encoding="utf-8")
        assert entry(["solve", "--instance", str(garbled),
                      "--model", "1"]) == 2
        unknown = write_json(tmp_path, "unknown.json",
                             dict(TINY1_FILE, extra=1))
        assert entry(["solve", "--instance", unknown, "--model", "1"]) == 2
        negative = write_json(tmp_path, "neg.json",
                              dict(TINY1_FILE, demand=[[-1], [1]]))
        assert entry(["solve", "--instance", negative, "--model", "1"]) == 2
        for key, value in (("fleet", 2.7), ("fleet", True), ("big_m", 1000.5),
                           ("transfer_cost", 0.9)):
            bad = write_json(tmp_path, f"bad_{key}.json",
                             dict(TINY1_FILE, **{key: value}))
            assert entry(["solve", "--instance", bad, "--model", "1"]) == 2, key
            assert key in capsys.readouterr().err
        capsys.readouterr()

    def test_float_beyond_int64_exits_2(self, tmp_path, capsys):
        huge = write_json(tmp_path, "huge.json",
                          dict(TINY1_FILE, demand=[[1e30], [1]]))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert entry(["solve", "--instance", huge, "--model", "1"]) == 2
        assert "demand" in capsys.readouterr().err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("demand", [[[10**30], [1]], [[2**63], [2**63]]],
                             ids=["object", "uint64"])
    def test_integer_beyond_int64_exits_2(self, tmp_path, capsys, demand):
        # numpy holds 10**30 as an object and 2**63 as uint64, which int64
        # would wrap to -2**63
        huge = write_json(tmp_path, "huge.json", dict(TINY1_FILE, demand=demand))
        assert entry(["solve", "--instance", huge, "--model", "1"]) == 2
        assert "demand has entries outside the 64-bit integer range" \
            in capsys.readouterr().err

    def test_failed_write_leaves_no_partial_file(self, tiny1_path, tmp_path,
                                                 capsys):
        target = tmp_path / "no_such_dir" / "plan.json"
        assert entry(["solve", "--instance", tiny1_path, "--model", "1",
                      "--out", str(target)]) == 2
        assert not target.exists()
        capsys.readouterr()

    def test_failed_rename_removes_the_temporary_file(self, tiny1_path, tmp_path,
                                                      capsys, monkeypatch):
        # the temporary file is written, and the rename onto the target fails
        def refused(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("ambuplan.cli.os.replace", refused)
        target = tmp_path / "plan.json"
        assert entry(["solve", "--instance", tiny1_path, "--model", "1",
                      "--out", str(target)]) == 2
        assert not target.exists()
        assert not list(tmp_path.glob(".tmp-*.part"))
        capsys.readouterr()


# the values one mutation writes: out of range, past int64 or float64's
# integers, and of every other JSON type
MUTANTS = [-1, 0, 2**53 + 1, 2**63 - 1, 2**63, 1.5, True, None, "7", []]


@st.composite
def mutated_files(draw):
    """A tiny instance file with one value replaced by one of MUTANTS: a
    top-level value, or any entry or row of an array."""
    seed = draw(st.integers(0, 9))
    data = instance_to_mapping(generate(tiny_params(seed), seed))
    key = draw(st.sampled_from(sorted(data)))
    holder, at = data, key
    while isinstance(holder[at], list) and holder[at] and draw(st.booleans()):
        holder, at = holder[at], draw(st.integers(0, len(holder[at]) - 1))
    holder[at] = draw(st.sampled_from(MUTANTS))
    return data


class TestSolveExitContract:
    @settings(derandomize=True, database=None, max_examples=600, deadline=None)
    @given(mutated_files())
    def test_one_mutated_value_exits_with_a_documented_code(self, data):
        # whatever the one value, both models answer with a documented
        # exit code, and no exception escapes entry
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "inst.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump(data, f)
            for model in ("1", "2"):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = entry(["solve", "--instance", path, "--model", model])
                assert code in (0, 2, 3, 4, 6), (model, code, err.getvalue())
                assert "Traceback" not in err.getvalue()


class TestReport:
    def solve_to_file(self, tiny1_path, tmp_path, model):
        plan_path = str(tmp_path / f"plan{model}.json")
        assert entry(["solve", "--instance", tiny1_path, "--model",
                      str(model), "--out", plan_path]) == 0
        return plan_path

    def test_text_table_golden(self, tiny1_path, tmp_path, capsys):
        plan_path = self.solve_to_file(tiny1_path, tmp_path, 2)
        capsys.readouterr()
        assert entry(["report", "--instance", tiny1_path,
                      "--plan", plan_path]) == 0
        expected = ("slot   z1   z2  shortage\n"
                    "   1  1/1  1/1         0\n")
        assert capsys.readouterr().out == expected

    def test_csv_table_golden(self, tiny1_path, tmp_path, capsys):
        plan_path = self.solve_to_file(tiny1_path, tmp_path, 2)
        capsys.readouterr()
        assert entry(["report", "--instance", tiny1_path, "--plan", plan_path,
                      "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out == "slot,z1,z2,shortage\r\n1,1/1,1/1,0\r\n"

    def test_model1_served_capped_at_demand(self, tiny1_path, tmp_path,
                                            capsys):
        plan_path = self.solve_to_file(tiny1_path, tmp_path, 1)
        capsys.readouterr()
        assert entry(["report", "--instance", tiny1_path, "--plan", plan_path,
                      "--format", "csv"]) == 0
        # station 1's dispatch covers both zones; the zone-0 figure must
        # not double-count beyond the single call
        assert capsys.readouterr().out == "slot,z1,z2,shortage\r\n1,1/1,1/1,0\r\n"

    def test_sums_past_int64_are_exact(self, tmp_path, capsys):
        # two stations covering one zone each dispatch (or serve) 2**62, and
        # model 2 leaves two zones 2**62 short: the sums reach 2**63
        big = 2**62
        payload = dict(TINY1_FILE, coverage=[[1, 1], [1, 1]], demand=[[3], [1]])
        inst_path = write_json(tmp_path, "inst.json", payload)
        plans = {
            1: AllocationPlan(np.array([[big], [big]]), np.array([[big], [big]]),
                              np.array([0])),
            2: TransferPlan(np.array([[0], [0]]), np.full((2, 2, 1), big),
                            np.array([[big], [big]])),
        }
        expected = {1: "slot,z1,z2,shortage\r\n1,3/3,1/1,0\r\n",
                    2: (f"slot,z1,z2,shortage\r\n"
                        f"1,3/{2 * big},1/{2 * big},{2 * big}\r\n")}
        for model, plan in plans.items():
            outcome = SolveOutcome(SolveStatus.NODE_LIMIT, None, plan)
            plan_path = write_json(tmp_path, f"plan{model}.json",
                                   plan_to_mapping(model, outcome))
            capsys.readouterr()
            assert entry(["report", "--instance", inst_path, "--plan", plan_path,
                          "--format", "csv"]) == 0
            assert capsys.readouterr().out == expected[model], model

    def test_report_to_file(self, tiny1_path, tmp_path, capsys):
        plan_path = self.solve_to_file(tiny1_path, tmp_path, 2)
        report_path = str(tmp_path / "report.csv")
        assert entry(["report", "--instance", tiny1_path, "--plan", plan_path,
                      "--format", "csv", "--out", report_path]) == 0
        assert open(report_path, newline="").read().startswith("slot,z1")
        capsys.readouterr()

    def test_dimension_mismatch_exits_2(self, tiny1_path, tmp_path, capsys):
        plan_path = self.solve_to_file(tiny1_path, tmp_path, 2)
        other = write_json(tmp_path, "other.json",
                           dict(TINY1_FILE, slots=2,
                                capacity=[[2, 2], [2, 2]],
                                hold_cost=[[1, 1], [1, 1]],
                                dispatch_cost=[[1, 1], [2, 2]],
                                demand=[[1, 1], [1, 1]]))
        assert entry(["report", "--instance", other,
                      "--plan", plan_path]) == 2
        # arrays that disagree with the instance in any axis are rejected
        # before rendering, not met as an IndexError or rendered anyway; so
        # are derived arrays that are missing (None) or do not follow from
        # the decisions
        paths = {1: self.solve_to_file(tiny1_path, tmp_path, 1), 2: plan_path}
        shape, derived = "{} has shape", "plan {} is missing or does not follow"
        for model, key, edit, error in (
                (2, "serve", lambda a: [[r[:-1] for r in z] for z in a], shape),
                (1, "shortage", lambda a: a[:-1], shape),
                (2, "shortage", lambda a: a[:-1], shape),
                (1, "inventory", lambda a: [[v + 1 for v in r] for r in a], derived),
                (1, "inventory", None, derived),
                (2, "transfer_in", lambda a: [[1] + r[1:] for r in a], derived),
                (2, "transfer_in", None, derived),
                (2, "transfer_out", None, derived)):
            data = json.loads(open(paths[model]).read())
            if edit is None:
                del data["plan"][key]
            else:
                data["plan"][key] = edit(data["plan"][key])
            bad = write_json(tmp_path, f"bad{model}_{key}.json", data)
            capsys.readouterr()
            assert entry(["report", "--instance", tiny1_path,
                          "--plan", bad]) == 2
            assert error.format(key) in capsys.readouterr().err

    def test_unknown_plan_keys_exit_2(self, tiny1_path, tmp_path, capsys):
        plan_path = self.solve_to_file(tiny1_path, tmp_path, 2)
        for where, key in (("plan", "rumor"), (None, "gossip")):
            data = json.loads(open(plan_path).read())
            (data if where is None else data[where])[key] = [1]
            bad = write_json(tmp_path, f"unknown_{key}.json", data)
            capsys.readouterr()
            assert entry(["report", "--instance", tiny1_path,
                          "--plan", bad]) == 2
            assert key in capsys.readouterr().err

    def test_plan_header_of_another_type_exits_2(self, tiny1_path, tmp_path, capsys):
        # a model-1 plan whose header holds true or 1.0 for 1 is not read
        plan_path = self.solve_to_file(tiny1_path, tmp_path, 1)
        for key, value in itertools.product(("model", "schema_version"), (True, 1.0)):
            data = json.loads(open(plan_path).read())
            data[key] = value
            bad = write_json(tmp_path, f"bad_{key}.json", data)
            capsys.readouterr()
            assert entry(["report", "--instance", tiny1_path,
                          "--plan", bad]) == 2
            assert key in capsys.readouterr().err

    def test_plan_without_payload_exits_2(self, tiny1_path, tmp_path, capsys):
        payload = dict(TINY1_FILE, coverage=[[1, 0], [1, 0]])
        uncov = write_json(tmp_path, "uncov.json", payload)
        plan_path = str(tmp_path / "infeasible_plan.json")
        assert entry(["solve", "--instance", uncov, "--model", "1",
                      "--out", plan_path]) == 3
        assert entry(["report", "--instance", uncov,
                      "--plan", plan_path]) == 2
        capsys.readouterr()


class TestCheck:
    def test_small_batch_matches(self, capsys):
        assert entry(["check", "--model", "1", "--max-cases", "3",
                      "--seed", "5"]) == 0
        assert "model 1: 3/3 match" in capsys.readouterr().out

    def test_zero_cases_pass_vacuously(self, capsys):
        assert entry(["check", "--max-cases", "0"]) == 0
        out = capsys.readouterr().out
        assert "model 1: 0/0 match" in out and "model 2: 0/0 match" in out

    def test_negative_cases_rejected(self, capsys):
        assert entry(["check", "--max-cases", "-1"]) == 2
        capsys.readouterr()

    def test_objective_mismatch_exits_5_with_a_report(self, capsys, monkeypatch):
        def off_by_one(inst, node_limit=None):
            outcome = solve_allocation(inst, node_limit)
            return dataclasses.replace(outcome, objective=outcome.objective + 1)

        monkeypatch.setattr("ambuplan.cli.solve_allocation", off_by_one)
        assert entry(["check", "--model", "1", "--max-cases", "3"]) == 5
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 0 and report["problem"] == "objective mismatch"
        assert report["solver"]["objective"] == report["reference"]["objective"] + 1


class TestSubprocessPipeline:
    """One true end-to-end pass through the ``python -m ambuplan`` entry point."""

    def test_generate_solve_report_check(self, tmp_path, run_cli):
        cwd = str(tmp_path)
        done = run_cli("generate", "--tiny", "--seed", "6",
                       "--out", "inst.json", cwd=cwd)
        assert done.returncode == 0, done.stderr
        done = run_cli("solve", "--instance", "inst.json", "--model", "2",
                       "--out", "plan.json", cwd=cwd)
        assert done.returncode == 0, done.stderr
        assert "status=optimal" in done.stdout
        done = run_cli("report", "--instance", "inst.json",
                       "--plan", "plan.json", "--format", "csv", cwd=cwd)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("slot,z1")
        done = run_cli("check", "--model", "2", "--max-cases", "2",
                       "--seed", "0", cwd=cwd)
        assert done.returncode == 0, done.stderr
        assert "2/2 match" in done.stdout

    def test_commands_on_triangular_bases_load_no_scipy(self, tmp_path, cli_env):
        # run the command in a child interpreter, then report its exit code
        # and whether scipy and the engine were imported along the way.
        # Every basis of these solves is triangular, so the engine factors
        # them in numpy; only a solve loads the engine at all
        probe = ("import runpy, sys\n"
                 "code = 0\n"
                 "if sys.argv[1] == 'import':\n"
                 "    __import__(sys.argv[2])\n"
                 "else:\n"
                 "    try:\n"
                 "        runpy.run_module('ambuplan', run_name='__main__')\n"
                 "    except SystemExit as exc:\n"
                 "        code = exc.code or 0\n"
                 "print('exit', code, 'scipy loaded:', 'scipy' in sys.modules,\n"
                 "      'engine loaded:', 'ambuplan.engine' in sys.modules)\n")

        def loaded(*args, code=0):
            """(scipy loaded, engine loaded) in the child."""
            done = subprocess.run([sys.executable, "-c", probe, *args],
                                  capture_output=True, text=True,
                                  cwd=str(tmp_path), env=cli_env)
            assert done.returncode == 0, done.stderr
            last = done.stdout.splitlines()[-1].split()
            assert last[:2] == ["exit", str(code)], (args, last)
            return last[4] == "True", last[7] == "True"

        neither, engine_only = (False, False), (False, True)
        assert loaded("import", "ambuplan") == neither
        assert loaded("import", "ambuplan.cli") == neither
        assert loaded("generate", "--tiny", "--seed", "6", "--out", "inst.json") == neither
        # model 1 finds tiny seed 6 infeasible (exit 3) after factoring
        # its first slot's start
        assert loaded("solve", "--instance", "inst.json", "--model", "1",
                      code=3) == engine_only
        assert loaded("solve", "--instance", "inst.json", "--model", "2",
                      "--out", "plan.json") == engine_only
        assert loaded("report", "--instance", "inst.json", "--plan", "plan.json") == neither
        assert loaded("generate", "--preset", "1", "--seed", "42",
                      "--out", "day.json") == neither
        # 4 core solves over the day's 4 slots, one node each: no slot branches
        assert loaded("solve", "--instance", "day.json", "--model", "1") == engine_only

    def test_usage_error_exits_2(self, tmp_path, run_cli):
        done = run_cli("solve", "--instance", "inst.json", cwd=str(tmp_path))
        assert done.returncode == 2, done.stderr  # --model is required
