"""Command line front end: generate, solve, report, check.

Instance files are JSON with a fixed schema (``schema_version: 1``) and a
closed key set; unknown keys are rejected so typos fail loudly. All file
writes go through a temp file and ``os.replace``, so readers never observe a
half-written file. Output bytes are deterministic for fixed inputs; the only
nondeterministic value (wall time) goes to stdout, never into files.

Exit codes: 0 success, 2 invalid input (bad arguments, malformed or invalid
files), 3 the instance is infeasible, 4 the node budget ran out before
optimality was proven, 5 a ``check`` run found a solver/reference mismatch,
6 the solver failed (numerical breakdown, or a plan that did not pass its
re-check); no plan file is written then.

Only ``solve`` and ``check`` load the engine: they call the module
attributes ``solve_allocation`` and ``solve_transfer``, which the package
serves on first use (PEP 562). ``generate`` and ``report`` load numpy only,
and so does a solve whose bases the engine factors in numpy: scipy loads
only for a basis with a bump or above the engine's size limits, which no
preset-1 solve meets.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from .core import (
    AllocationPlan,
    Instance,
    SolveStatus,
    TransferPlan,
    _exact_ints,
    evaluate_allocation,
    evaluate_transfer,
    require_plan_shape,
    validate_instance,
)
from .generator import GenParams, generate, preset, tiny_params
from .oracle import brute_force_allocation, brute_force_transfer

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_NODE_LIMIT = 4
EXIT_MISMATCH = 5
EXIT_SOLVER_FAILURE = 6

SCHEMA_VERSION = 1

_REQUIRED_KEYS = frozenset({
    "schema_version", "stations", "zones", "slots", "fleet", "coverage",
    "capacity", "hold_cost", "dispatch_cost", "demand", "big_m",
})
_OPTIONAL_KEYS = frozenset({"transfer_cost"})

_SOLVERS = {1: "solve_allocation", 2: "solve_transfer"}   # model -> name


def __getattr__(name):
    if name not in _SOLVERS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(sys.modules[__package__], name)
    globals()[name] = value
    return value


def _solver(model: int):
    """The solve function for ``model``, read from this module's attributes."""
    return getattr(sys.modules[__name__], _SOLVERS[model])


class InputError(Exception):
    """User-facing input problem; maps to exit code 2."""


def _expect_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return value


def _is_int(value, *allowed: int) -> bool:
    """True when value is one of allowed and a JSON integer: true and 1.0
    equal 1 in Python, yet are not."""
    return type(value) is int and value in allowed


# ---------------------------------------------------------------------------
# instance and plan files
# ---------------------------------------------------------------------------

def instance_to_mapping(inst: Instance) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "stations": inst.num_stations,
        "zones": inst.num_zones,
        "slots": inst.num_slots,
        "fleet": inst.fleet_size,
        "coverage": inst.coverage.tolist(),
        "capacity": inst.capacity.tolist(),
        "hold_cost": inst.hold_cost.tolist(),
        "dispatch_cost": inst.dispatch_cost.tolist(),
        "demand": inst.demand.tolist(),
        "big_m": inst.big_m,
        "transfer_cost": inst.transfer_cost,
    }


def instance_from_mapping(data) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance file must hold a JSON object")
    keys = set(data)
    unknown = keys - _REQUIRED_KEYS - _OPTIONAL_KEYS
    if unknown:
        raise InputError(f"unknown instance keys: {sorted(unknown)}")
    missing = _REQUIRED_KEYS - keys
    if missing:
        raise InputError(f"missing instance keys: {sorted(missing)}")
    if not _is_int(data["schema_version"], SCHEMA_VERSION):
        raise InputError(
            f"unsupported schema_version {data['schema_version']!r};"
            f" this build reads version {SCHEMA_VERSION}")
    try:
        inst = Instance(
            num_stations=data["stations"],
            num_zones=data["zones"],
            num_slots=data["slots"],
            fleet_size=data["fleet"],
            coverage=data["coverage"],
            capacity=data["capacity"],
            hold_cost=data["hold_cost"],
            dispatch_cost=data["dispatch_cost"],
            demand=data["demand"],
            big_m=data["big_m"],
            transfer_cost=data.get("transfer_cost", 0),
        )
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed instance: {exc}") from exc
    problems = validate_instance(inst)
    if problems:
        raise InputError(f"invalid instance: {problems[0].message}")
    return inst


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def load_instance(path: str) -> Instance:
    return instance_from_mapping(_read_json(path))


def write_text_atomic(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so partial files never land."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_instance(inst: Instance, path: str) -> None:
    write_text_atomic(path, dump_json(instance_to_mapping(inst)))


# model -> (plan type, its decision keys, the keys derived from them)
_PLAN_KEYS = {
    1: (AllocationPlan, ("alloc", "dispatch", "shortage"), ("inventory",)),
    2: (TransferPlan, ("stock", "serve", "shortage"), ("transfer_in", "transfer_out")),
}


def plan_to_mapping(model: int, outcome) -> dict:
    plan = outcome.plan
    _, decided, derived = _PLAN_KEYS[model]
    body = None if plan is None else {k: getattr(plan, k).tolist()
                                      for k in decided + derived}
    # a -inf bound (nothing explored) is not JSON; an exact int is written
    # as it is
    best_bound = None if outcome.best_bound == -math.inf else outcome.best_bound
    return {
        "schema_version": SCHEMA_VERSION,
        "model": model,
        "status": outcome.status.value,
        "objective": outcome.objective,
        "best_bound": best_bound,
        "nodes": outcome.nodes,
        "iterations": outcome.iterations,
        "plan": body,
    }


def plan_from_mapping(data) -> tuple[int, str, AllocationPlan | TransferPlan | None]:
    if not isinstance(data, dict):
        raise InputError("plan file must hold a JSON object")
    unknown = set(data) - {"schema_version", "model", "status", "objective",
                           "best_bound", "nodes", "iterations", "plan"}
    if unknown:
        raise InputError(f"unknown plan file keys: {sorted(unknown)}")
    if not _is_int(data.get("schema_version"), SCHEMA_VERSION):
        raise InputError("plan file has a missing or unsupported schema_version")
    model = data.get("model")
    if not _is_int(model, 1, 2):
        raise InputError(f"plan file has unsupported model {model!r}")
    body = data.get("plan")
    if body is None:
        return model, data.get("status", "unknown"), None
    if not isinstance(body, dict):
        raise InputError("plan file's plan must be a JSON object or null")
    kind, decided, derived = _PLAN_KEYS[model]
    unknown = set(body) - set(decided + derived)
    if unknown:
        raise InputError(f"unknown plan keys: {sorted(unknown)}")
    try:
        plan = kind(*(body[k] for k in decided))
        for k in derived:
            # written for readers; the plan derives it, so it must agree
            if k not in body or not np.array_equal(body[k], getattr(plan, k)):
                raise InputError(f"plan {k} is missing or does not follow"
                                 " from the plan's decisions")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"malformed plan body: {exc}") from exc
    return model, data.get("status", "unknown"), plan


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_PARAMS_REQUIRED = ("num_stations", "num_zones", "num_slots", "fleet_size")
_PARAMS_OPTIONAL = ("capacity_range", "hold_cost_range", "dispatch_cost_range",
                    "demand_range", "coverage_prob", "ensure_coverage",
                    "transfer_cost", "big_m")


def params_from_mapping(data) -> GenParams:
    """Build generator knobs from a JSON mapping; unknown keys are errors."""
    if not isinstance(data, dict):
        raise InputError("params file must hold a JSON object")
    allowed = set(_PARAMS_REQUIRED) | set(_PARAMS_OPTIONAL)
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise InputError(f"unknown params keys: {', '.join(unknown)}")
    missing = sorted(set(_PARAMS_REQUIRED) - set(data))
    if missing:
        raise InputError(f"missing params keys: {', '.join(missing)}")
    kwargs = {}
    for key in _PARAMS_REQUIRED:
        kwargs[key] = _expect_int(data[key], key)
    for key in ("capacity_range", "hold_cost_range", "dispatch_cost_range",
                "demand_range"):
        if key in data:
            pair = data[key]
            if (not isinstance(pair, list) or len(pair) != 2):
                raise InputError(f"{key} must be a [low, high] pair")
            kwargs[key] = (_expect_int(pair[0], key), _expect_int(pair[1], key))
    if "coverage_prob" in data:
        prob = data["coverage_prob"]
        if not isinstance(prob, (int, float)) or isinstance(prob, bool) \
                or not 0.0 <= float(prob) <= 1.0:
            raise InputError("coverage_prob must be a number in [0, 1]")
        kwargs["coverage_prob"] = float(prob)
    if "ensure_coverage" in data:
        flag = data["ensure_coverage"]
        if not isinstance(flag, bool):
            raise InputError("ensure_coverage must be true or false")
        kwargs["ensure_coverage"] = flag
    if "transfer_cost" in data:
        kwargs["transfer_cost"] = _expect_int(data["transfer_cost"],
                                              "transfer_cost")
    if data.get("big_m") is not None:
        kwargs["big_m"] = _expect_int(data["big_m"], "big_m")
    return GenParams(**kwargs)


def cmd_generate(args) -> int:
    if args.tiny:
        params = tiny_params(args.seed)
    elif args.params is not None:
        params = params_from_mapping(_read_json(args.params))
    else:
        params = preset(args.preset)
    inst = generate(params, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.out}: {inst.num_stations} stations,"
          f" {inst.num_zones} zones, {inst.num_slots} slots,"
          f" fleet {inst.fleet_size}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = load_instance(args.instance)
    if args.workers < 1:
        raise InputError(f"--workers must be >= 1, got {args.workers}")
    if args.node_limit is not None and args.node_limit < 0:
        raise InputError(f"--node-limit must be >= 0, got {args.node_limit}")
    # --workers and --deterministic are accepted for compatibility only: the
    # search is serial and reproducible whatever they say
    started = time.perf_counter()
    outcome = _solver(args.model)(inst, args.node_limit)
    elapsed = time.perf_counter() - started
    if args.out:
        write_text_atomic(args.out, dump_json(plan_to_mapping(args.model, outcome)))
    shortage = sum(outcome.plan.shortage.ravel().tolist()) \
        if outcome.plan is not None else "-"
    print(f"status={outcome.status.value} objective={outcome.objective}"
          f" shortage={shortage} nodes={outcome.nodes}"
          f" iterations={outcome.iterations} time={elapsed:.3f}s")
    if outcome.status is SolveStatus.INFEASIBLE:
        return EXIT_INFEASIBLE
    if outcome.status is SolveStatus.NODE_LIMIT:
        return EXIT_NODE_LIMIT
    return EXIT_OK


def _served_by_zone(inst: Instance, model: int,
                    plan: AllocationPlan | TransferPlan) -> np.ndarray:
    """Zone-by-slot service counts used by reports.

    The transfer model assigns service per zone directly. The allocation
    model only tracks dispatches per station, so its zone figure counts
    dispatched vehicles from stations covering the zone, capped at the
    zone's demand; one dispatch may appear for several zones it covers.
    The sums are exact: Python ints where int64 could wrap.
    """
    if model == 2:
        serve, = _exact_ints((plan.serve,), inst.num_stations)
        return serve.sum(axis=0)
    a, s = _exact_ints((inst.coverage, plan.dispatch), inst.num_stations)
    return np.minimum(a.T @ s, inst.demand)


def _shortage_by_slot(model: int, plan) -> np.ndarray:
    if model == 2:
        short, = _exact_ints((plan.shortage,), len(plan.shortage))
        return short.sum(axis=0)
    return plan.shortage


def _report_cells(inst: Instance, model: int, plan) -> tuple[list[str], list[list[str]]]:
    served = _served_by_zone(inst, model, plan)
    short = _shortage_by_slot(model, plan)
    header = ["slot"] + [f"z{i + 1}" for i in range(inst.num_zones)] + ["shortage"]
    rows = []
    for t in range(inst.num_slots):
        row = [str(t + 1)]
        for i in range(inst.num_zones):
            row.append(f"{int(inst.demand[i, t])}/{int(served[i, t])}")
        row.append(str(int(short[t])))
        rows.append(row)
    return header, rows


def render_report_text(inst: Instance, model: int, plan) -> str:
    header, rows = _report_cells(inst, model, plan)
    widths = [max(len(header[k]), *(len(r[k]) for r in rows)) if rows
              else len(header[k]) for k in range(len(header))]
    lines = []
    for row in [header] + rows:
        lines.append("  ".join(cell.rjust(widths[k])
                               for k, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render_report_csv(inst: Instance, model: int, plan) -> str:
    header, rows = _report_cells(inst, model, plan)
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC 4180: comma separated, CRLF line endings
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def cmd_report(args) -> int:
    inst = load_instance(args.instance)
    model, status, plan = plan_from_mapping(_read_json(args.plan))
    if plan is None:
        raise InputError(f"plan file records status {status!r} and carries"
                         " no plan to report")
    require_plan_shape(inst, plan)
    renderer = render_report_text if args.format == "text" else render_report_csv
    text = renderer(inst, model, plan)
    if args.out:
        write_text_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    if args.max_cases < 0:
        raise InputError(f"--max-cases must be >= 0, got {args.max_cases}")
    models = (1, 2) if args.model == "both" else (int(args.model),)
    for model in models:
        solver = _solver(model)
        reference = brute_force_allocation if model == 1 else brute_force_transfer
        evaluator = evaluate_allocation if model == 1 else evaluate_transfer
        matched = 0
        for seed in range(args.seed, args.seed + args.max_cases):
            inst = generate(tiny_params(seed), seed)
            mine = solver(inst)
            ref = reference(inst)
            problem = None
            if mine.status is not ref.status:
                problem = "status mismatch"
            elif mine.status is SolveStatus.OPTIMAL:
                if mine.objective != ref.objective:
                    problem = "objective mismatch"
                else:
                    _, violations = evaluator(inst, mine.plan)
                    if violations:
                        problem = f"solver plan violates {violations[0].kind}"
            if problem:
                print(dump_json({
                    "model": model,
                    "seed": seed,
                    "problem": problem,
                    "solver": {"status": mine.status.value,
                               "objective": mine.objective},
                    "reference": {"status": ref.status.value,
                                  "objective": ref.objective},
                }), end="")
                return EXIT_MISMATCH
            matched += 1
        print(f"model {model}: {matched}/{args.max_cases} match")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambuplan",
        description="Multi-period ambulance fleet planning: generate"
                    " instances, solve either planning model exactly,"
                    " render coverage reports, and cross-check the solver"
                    " against exhaustive search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a seeded random instance file")
    family = p.add_mutually_exclusive_group(required=True)
    family.add_argument("--preset", type=int, choices=range(1, 6),
                        help="benchmark family 1..5, increasing size")
    family.add_argument("--params",
                        help="JSON file of generator knobs (see README)")
    family.add_argument("--tiny", action="store_true",
                        help="small instance suitable for exhaustive checking")
    p.add_argument("--seed", type=int, required=True, help="random seed")
    p.add_argument("--out", required=True, help="output instance path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="solve an instance to proven optimality")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--model", type=int, choices=(1, 2), required=True,
                   help="1: per-slot allocation, 2: stock and transfers")
    p.add_argument("--out", help="write the plan JSON here")
    p.add_argument("--node-limit", type=int, default=None,
                   help="stop after this many search nodes (must be >= 0)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility, no effect: the search"
                        " is serial (must be >= 1)")
    p.add_argument("--deterministic", action="store_true",
                   help="accepted for compatibility, no effect: every solve"
                        " is reproducible")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="render a demand/served table per zone")
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--plan", required=True,
                   help="plan JSON path from solve --out")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", help="compare the solver against exhaustive"
                                     " search on seeded tiny instances")
    p.add_argument("--model", choices=("1", "2", "both"), default="both")
    p.add_argument("--max-cases", type=int, default=25,
                   help="instances per model (default 25)")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.set_defaults(func=cmd_check)
    return parser


def _engine_errors() -> tuple:
    """EngineError once a solve has loaded the engine; before that none exists."""
    engine = sys.modules.get("ambuplan.engine")
    return () if engine is None else (engine.EngineError,)


def entry(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _engine_errors() as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
