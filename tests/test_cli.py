"""Command-line front end: files, exit codes, reports, and round-trips."""

import json
import warnings

import numpy as np
import pytest

from ambuplan import Instance, solve_transfer
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
        data = dict(TINY1_FILE, schema_version=2)
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

    def test_best_bound_written_as_exact_int(self, tiny1):
        outcome = solve_transfer(tiny1)
        data = plan_to_mapping(2, outcome)
        assert data["objective"] == 5
        assert data["best_bound"] == 5
        assert isinstance(data["best_bound"], int)


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

    def test_solver_failure_exits_6_without_plan(self, tiny1_path, tmp_path,
                                                 capsys, monkeypatch):
        def breakdown(inst, options=None):
            raise NumericalBreakdownError("no acceptable pivot")

        monkeypatch.setattr("ambuplan.cli.solve_allocation", breakdown)
        plan_path = tmp_path / "plan.json"
        assert entry(["solve", "--instance", tiny1_path, "--model", "1",
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
        # before rendering, not met as an IndexError or rendered anyway
        paths = {1: self.solve_to_file(tiny1_path, tmp_path, 1), 2: plan_path}
        for model, key, trim in ((2, "serve", lambda a: [[r[:-1] for r in z]
                                                          for z in a]),
                                 (1, "shortage", lambda a: a[:-1]),
                                 (2, "shortage", lambda a: a[:-1])):
            data = json.loads(open(paths[model]).read())
            data["plan"][key] = trim(data["plan"][key])
            bad = write_json(tmp_path, f"bad{model}_{key}.json", data)
            capsys.readouterr()
            assert entry(["report", "--instance", tiny1_path,
                          "--plan", bad]) == 2
            assert f"{key} has shape" in capsys.readouterr().err

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

    def test_usage_error_exits_2(self, tmp_path, run_cli):
        done = run_cli("solve", "--instance", "inst.json", cwd=str(tmp_path))
        assert done.returncode == 2, done.stderr  # --model is required
