"""Shared data model for multi-period ambulance location planning.

An :class:`Instance` describes a planning horizon split into time slots, a set
of candidate stations, a set of demand zones, a binary coverage relation
between stations and zones, per-slot station capacities and costs, and a
shortage penalty ``big_m``.

Two plan shapes exist on top of an instance:

* :class:`AllocationPlan`, where every slot gets a fresh allocation out of the
  shared fleet and ambulances never move between stations, and
* :class:`TransferPlan`, where a stationed fleet is carried from slot to slot
  and may be rebalanced between stations at slot boundaries for a per-move fee.

Evaluation is exact: all arithmetic on plans uses arbitrary-precision Python
integers, so a reported objective is never a rounded number.
``outcome_from_milp`` turns an engine result for either model into a
:class:`SolveOutcome`, re-checking an optimal plan with that evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable

import numpy as np

from .engine import EngineError, MilpSolution, MilpStatus


def _frozen_int_array(value: Any, name: str) -> np.ndarray:
    """Coerce ``value`` to an immutable integer ndarray.

    Raises ValueError for ragged or non-integer input, and for integers that
    int64 cannot hold, whether they arrive as Python ints (an object array),
    as uint64 or as integral floats. Shape checking is left to
    validate_instance so that malformed-but-rectangular data can still be
    inspected and reported as violations.
    """
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # ragged nested lists
        raise ValueError(f"{name} is not a rectangular array: {exc}") from exc
    kind = arr.dtype.kind
    if kind == "O" and all(type(v) is int for v in arr.flat):
        fits = all(-2**63 <= v < 2**63 for v in arr.flat)
    elif kind == "O":
        raise ValueError(f"{name} is not a rectangular array of integers")
    elif kind in "iu":
        fits = kind == "i" or arr.size == 0 or arr.max() < 2**63
    elif kind == "f" and np.all(np.isfinite(arr)) and np.all(arr == np.floor(arr)):
        fits = bool(np.all((arr >= -2.0**63) & (arr < 2.0**63)))
    else:
        raise ValueError(f"{name} must contain integers, got dtype {arr.dtype}")
    if not fits:
        raise ValueError(f"{name} has entries outside the 64-bit integer range")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _int_scalar(value: Any, name: str) -> int:
    """Coerce ``value`` to a Python int: integers of any size and integral
    floats pass, as in _frozen_int_array; bools and the rest raise ValueError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, eq=False)
class Instance:
    """One planning problem.

    Index convention: ``j`` runs over stations, ``i`` over zones, ``t`` over
    time slots. All matrices are station-major or zone-major with the slot as
    the trailing axis.
    """

    num_stations: int
    num_zones: int
    num_slots: int
    fleet_size: int
    coverage: np.ndarray      # [j][i] in {0,1}, 1 when station j can serve zone i
    capacity: np.ndarray      # [j][t] max vehicles stationed at j during slot t
    hold_cost: np.ndarray     # [j][t] cost per vehicle stationed at j in slot t
    dispatch_cost: np.ndarray  # [j][t] cost per dispatch from j in slot t
    demand: np.ndarray        # [i][t] calls in zone i during slot t
    big_m: int
    transfer_cost: int = 0

    def __post_init__(self) -> None:
        for name in ("coverage", "capacity", "hold_cost", "dispatch_cost", "demand"):
            object.__setattr__(self, name, _frozen_int_array(getattr(self, name), name))
        for name in ("num_stations", "num_zones", "num_slots", "fleet_size",
                     "big_m", "transfer_cost"):
            object.__setattr__(self, name, _int_scalar(getattr(self, name), name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        scalars = ("num_stations", "num_zones", "num_slots", "fleet_size",
                   "big_m", "transfer_cost")
        arrays = ("coverage", "capacity", "hold_cost", "dispatch_cost", "demand")
        return all(getattr(self, n) == getattr(other, n) for n in scalars) and all(
            getattr(self, n).shape == getattr(other, n).shape
            and np.array_equal(getattr(self, n), getattr(other, n))
            for n in arrays
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class AllocationPlan:
    """Per-slot allocation with station-bound vehicles.

    ``alloc[j][t]`` vehicles are placed at station j for slot t, ``dispatch``
    of them answer calls, the remainder accumulates as ``inventory``.
    ``shortage[t]`` counts calls in slot t that no dispatch answered.
    """

    alloc: np.ndarray      # [j][t]
    dispatch: np.ndarray   # [j][t]
    inventory: np.ndarray  # [j][t]
    shortage: np.ndarray   # [t]

    def __post_init__(self) -> None:
        for name in ("alloc", "dispatch", "inventory", "shortage"):
            object.__setattr__(self, name, _frozen_int_array(getattr(self, name), name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AllocationPlan):
            return NotImplemented
        return all(
            getattr(self, n).shape == getattr(other, n).shape
            and np.array_equal(getattr(self, n), getattr(other, n))
            for n in ("alloc", "dispatch", "inventory", "shortage")
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class TransferPlan:
    """Stationed fleet carried across slots with paid rebalancing moves.

    ``stock[j][t]`` vehicles sit at station j during slot t. ``serve[j][i][t]``
    dispatches from j answer zone i in slot t (vehicles return within the
    slot). ``transfer_in``/``transfer_out`` describe rebalancing at the start
    of slot t; both are zero in the first slot. ``shortage[i][t]`` counts
    unanswered calls per zone.
    """

    stock: np.ndarray         # [j][t]
    serve: np.ndarray         # [j][i][t]
    transfer_in: np.ndarray   # [j][t], column 0 all zero
    transfer_out: np.ndarray  # [j][t], column 0 all zero
    shortage: np.ndarray      # [i][t]

    def __post_init__(self) -> None:
        for name in ("stock", "serve", "transfer_in", "transfer_out", "shortage"):
            object.__setattr__(self, name, _frozen_int_array(getattr(self, name), name))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransferPlan):
            return NotImplemented
        return all(
            getattr(self, n).shape == getattr(other, n).shape
            and np.array_equal(getattr(self, n), getattr(other, n))
            for n in ("stock", "serve", "transfer_in", "transfer_out", "shortage")
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Violation:
    """One failed invariant. lhs/rhs reproduce the violated relation exactly."""

    kind: str
    indices: tuple[int, ...]
    lhs: int
    rhs: int
    message: str


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    NODE_LIMIT = "node_limit"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of an exact solve or an exhaustive search.

    ``objective`` and ``plan`` are None when status is INFEASIBLE, and may be
    None under NODE_LIMIT when no incumbent was found. ``best_bound`` is a
    valid lower bound on the true optimum whenever the search stopped early;
    at OPTIMAL it equals the objective.
    """

    status: SolveStatus
    objective: int | None
    plan: AllocationPlan | TransferPlan | None
    nodes: int = 0
    iterations: int = 0
    best_bound: float | None = None


# ---------------------------------------------------------------------------
# instance validation
# ---------------------------------------------------------------------------

def big_m_bound(hold_cost: np.ndarray, dispatch_cost: np.ndarray,
                transfer_cost: int, fleet_size: int, num_slots: int) -> int:
    """The most any plan can spend on holding, dispatch and transfers: a valid
    ``big_m`` exceeds it, so one unit of shortage outweighs every other cost."""
    max_unit = (int(hold_cost.max(initial=0)) + int(dispatch_cost.max(initial=0))
                + int(transfer_cost))
    return max_unit * int(fleet_size) * int(num_slots)


def at_minimal_penalty(inst: Instance) -> Instance:
    """``inst`` with the smallest ``big_m`` validate_instance accepts.

    Every valid ``big_m`` ranks plans alike (fewest shortages first, then
    least cost); the smallest keeps the solver's costs, and with them its
    pricing tolerance, as small as they can be.
    """
    big_m = big_m_bound(inst.hold_cost, inst.dispatch_cost, inst.transfer_cost,
                        inst.fleet_size, inst.num_slots) + 1
    return inst if inst.big_m == big_m else replace(inst, big_m=big_m)


def validate_instance(inst: Instance) -> list[Violation]:
    """Check every structural invariant of an Instance.

    Returns an empty list iff the instance is well formed: positive
    dimensions, nonnegative fleet and data, matching array shapes, binary
    coverage, and a shortage penalty strictly dominating any achievable
    service cost, i.e.

        big_m > (max hold_cost + max dispatch_cost + transfer_cost)
                * fleet_size * num_slots
    """
    out: list[Violation] = []
    J, I, T = inst.num_stations, inst.num_zones, inst.num_slots

    for name, value in (("num_stations", J), ("num_zones", I), ("num_slots", T)):
        if value < 1:
            out.append(Violation("dims_nonpositive", (), value, 1,
                                 f"{name} must be >= 1, got {value}"))
    if inst.fleet_size < 0:
        out.append(Violation("fleet_negative", (), inst.fleet_size, 0,
                             f"fleet_size must be >= 0, got {inst.fleet_size}"))
    if inst.transfer_cost < 0:
        out.append(Violation("transfer_cost_negative", (), inst.transfer_cost, 0,
                             f"transfer_cost must be >= 0, got {inst.transfer_cost}"))

    expected = {
        "coverage": (J, I),
        "capacity": (J, T),
        "hold_cost": (J, T),
        "dispatch_cost": (J, T),
        "demand": (I, T),
    }
    shapes_ok = True
    for name, shape in expected.items():
        arr = getattr(inst, name)
        if arr.shape != shape:
            shapes_ok = False
            out.append(Violation(
                "shape_mismatch", (),
                int(arr.size), int(np.prod(shape)) if min(shape) >= 0 else 0,
                f"{name} has shape {arr.shape}, expected {shape}"))
    if not shapes_ok:
        return out

    cov = inst.coverage
    for j, i in np.argwhere((cov != 0) & (cov != 1)).tolist():
        a = int(cov[j, i])
        out.append(Violation("coverage_not_binary", (j, i), a, 1,
                             f"coverage[{j}][{i}] = {a}, must be 0 or 1"))

    for name in ("capacity", "hold_cost", "dispatch_cost", "demand"):
        arr = getattr(inst, name)
        if arr.size and int(arr.min()) < 0:
            idx = tuple(int(k) for k in np.unravel_index(int(np.argmin(arr)), arr.shape))
            out.append(Violation(
                "negative_entry", idx, int(arr.min()), 0,
                f"{name}{list(idx)} = {int(arr.min())}, must be >= 0"))

    if inst.big_m < 1:
        out.append(Violation("big_m_not_positive", (), inst.big_m, 1,
                             f"big_m must be a positive integer, got {inst.big_m}"))
    else:
        bound = big_m_bound(inst.hold_cost, inst.dispatch_cost, inst.transfer_cost,
                            inst.fleet_size, T)
        if inst.big_m <= bound:
            out.append(Violation(
                "big_m_too_small", (), inst.big_m, bound,
                f"big_m = {inst.big_m} must exceed "
                f"(max hold + max dispatch + transfer) * fleet * slots = {bound}"))
    return out


# ---------------------------------------------------------------------------
# plan evaluation (exact integer arithmetic)
# ---------------------------------------------------------------------------

def require_plan_shape(inst: Instance, plan: AllocationPlan | TransferPlan) -> None:
    """Raise ValueError unless every plan array has the shape inst implies."""
    J, I, T = inst.num_stations, inst.num_zones, inst.num_slots
    if isinstance(plan, AllocationPlan):
        shapes = {"alloc": (J, T), "dispatch": (J, T), "inventory": (J, T),
                  "shortage": (T,)}
    else:
        shapes = {"stock": (J, T), "serve": (J, I, T), "transfer_in": (J, T),
                  "transfer_out": (J, T), "shortage": (I, T)}
    for name, shape in shapes.items():
        got = getattr(plan, name).shape
        if got != shape:
            raise ValueError(f"{name} has shape {got}, expected {shape}")


def evaluate_allocation(inst: Instance, plan: AllocationPlan) -> tuple[int, list[Violation]]:
    """Exact objective and invariant check for an AllocationPlan.

    Objective: sum of hold_cost * alloc, dispatch_cost * dispatch, and
    big_m * total shortage. Raises ValueError on dimension mismatch; every
    other defect is reported as a Violation.
    """
    J, I, T = inst.num_stations, inst.num_zones, inst.num_slots
    require_plan_shape(inst, plan)

    a = inst.coverage.tolist()
    n = inst.capacity.tolist()
    c = inst.hold_cost.tolist()
    cd = inst.dispatch_cost.tolist()
    d = inst.demand.tolist()
    x = plan.alloc.tolist()
    s = plan.dispatch.tolist()
    inv = plan.inventory.tolist()
    short = plan.shortage.tolist()
    M = inst.big_m

    objective = 0
    for j in range(J):
        for t in range(T):
            objective += c[j][t] * x[j][t] + cd[j][t] * s[j][t]
    objective += M * sum(short)

    out: list[Violation] = []

    for name, mat in (("alloc", x), ("dispatch", s), ("inventory", inv)):
        for j in range(J):
            for t in range(T):
                if mat[j][t] < 0:
                    out.append(Violation("negative_value", (j, t), mat[j][t], 0,
                                         f"{name}[{j}][{t}] = {mat[j][t]} < 0"))
    for t in range(T):
        if short[t] < 0:
            out.append(Violation("negative_value", (t,), short[t], 0,
                                 f"shortage[{t}] = {short[t]} < 0"))

    # inventory recurrence: inv[j][t] = inv[j][t-1] + x[j][t] - s[j][t], inv[j][-1] = 0
    for j in range(J):
        prev = 0
        for t in range(T):
            want = prev + x[j][t] - s[j][t]
            if inv[j][t] != want:
                out.append(Violation(
                    "inventory_balance", (j, t), inv[j][t], want,
                    f"inventory[{j}][{t}] = {inv[j][t]}, recurrence gives {want}"))
            prev = inv[j][t]

    for j in range(J):
        for t in range(T):
            if x[j][t] > n[j][t]:
                out.append(Violation("alloc_exceeds_capacity", (j, t), x[j][t], n[j][t],
                                     f"alloc[{j}][{t}] = {x[j][t]} > capacity {n[j][t]}"))
            if s[j][t] > x[j][t]:
                out.append(Violation("dispatch_exceeds_alloc", (j, t), s[j][t], x[j][t],
                                     f"dispatch[{j}][{t}] = {s[j][t]} > alloc {x[j][t]}"))

    for t in range(T):
        total = sum(x[j][t] for j in range(J))
        if total > inst.fleet_size:
            out.append(Violation("fleet_exceeded", (t,), total, inst.fleet_size,
                                 f"slot {t} allocates {total} > fleet {inst.fleet_size}"))

    for i in range(I):
        for t in range(T):
            got = sum(a[j][i] * x[j][t] for j in range(J))
            if got < d[i][t]:
                out.append(Violation(
                    "alloc_cover_short", (i, t), got, d[i][t],
                    f"zone {i} slot {t}: covering alloc {got} < demand {d[i][t]}"))
            served = sum(a[j][i] * s[j][t] for j in range(J)) + short[t]
            if served < d[i][t]:
                out.append(Violation(
                    "dispatch_cover_short", (i, t), served, d[i][t],
                    f"zone {i} slot {t}: covering dispatch + shortage {served}"
                    f" < demand {d[i][t]}"))

    for t in range(T):
        lhs = sum(s[j][t] for j in range(J)) + short[t]
        rhs = sum(d[i][t] for i in range(I))
        if lhs != rhs:
            out.append(Violation(
                "dispatch_total_mismatch", (t,), lhs, rhs,
                f"slot {t}: dispatches + shortage = {lhs}, total demand = {rhs}"))

    return objective, out


def evaluate_transfer(inst: Instance, plan: TransferPlan) -> tuple[int, list[Violation]]:
    """Exact objective and invariant check for a TransferPlan.

    Objective: hold costs on stock, dispatch costs on serves, transfer_cost
    per incoming move after the first slot, big_m per unit shortage.
    """
    J, I, T = inst.num_stations, inst.num_zones, inst.num_slots
    require_plan_shape(inst, plan)

    a = inst.coverage.tolist()
    n = inst.capacity.tolist()
    c = inst.hold_cost.tolist()
    cd = inst.dispatch_cost.tolist()
    d = inst.demand.tolist()
    S = plan.stock.tolist()
    y = plan.serve.tolist()
    tin = plan.transfer_in.tolist()
    tout = plan.transfer_out.tolist()
    short = plan.shortage.tolist()
    M = inst.big_m
    tau = inst.transfer_cost

    objective = 0
    for j in range(J):
        for t in range(T):
            objective += c[j][t] * S[j][t]
            if t >= 1:
                objective += tau * tin[j][t]
            for i in range(I):
                objective += cd[j][t] * y[j][i][t]
    for i in range(I):
        for t in range(T):
            objective += M * short[i][t]

    out: list[Violation] = []

    for name, mat in (("stock", S), ("transfer_in", tin), ("transfer_out", tout)):
        for j in range(J):
            for t in range(T):
                if mat[j][t] < 0:
                    out.append(Violation("negative_value", (j, t), mat[j][t], 0,
                                         f"{name}[{j}][{t}] = {mat[j][t]} < 0"))
    for j in range(J):
        for i in range(I):
            for t in range(T):
                if y[j][i][t] < 0:
                    out.append(Violation(
                        "negative_value", (j, i, t), y[j][i][t], 0,
                        f"serve[{j}][{i}][{t}] = {y[j][i][t]} < 0"))
                if y[j][i][t] > 0 and a[j][i] == 0:
                    out.append(Violation(
                        "serve_uncovered", (j, i, t), y[j][i][t], 0,
                        f"serve[{j}][{i}][{t}] = {y[j][i][t]} but station {j}"
                        f" does not cover zone {i}"))
    for i in range(I):
        for t in range(T):
            if short[i][t] < 0:
                out.append(Violation("negative_value", (i, t), short[i][t], 0,
                                     f"shortage[{i}][{t}] = {short[i][t]} < 0"))

    for j in range(J):
        if tin[j][0] != 0:
            out.append(Violation("first_slot_transfer", (j, 0), tin[j][0], 0,
                                 f"transfer_in[{j}][0] = {tin[j][0]}, must be 0"))
        if tout[j][0] != 0:
            out.append(Violation("first_slot_transfer", (j, 0), tout[j][0], 0,
                                 f"transfer_out[{j}][0] = {tout[j][0]}, must be 0"))

    first = sum(S[j][0] for j in range(J))
    if first > inst.fleet_size:
        out.append(Violation("fleet_exceeded", (0,), first, inst.fleet_size,
                             f"slot 0 stocks {first} > fleet {inst.fleet_size}"))

    for j in range(J):
        for t in range(1, T):
            want = S[j][t - 1] + tin[j][t] - tout[j][t]
            if S[j][t] != want:
                out.append(Violation(
                    "stock_balance", (j, t), S[j][t], want,
                    f"stock[{j}][{t}] = {S[j][t]}, balance gives {want}"))
            if tout[j][t] > S[j][t - 1]:
                out.append(Violation(
                    "transfer_exceeds_stock", (j, t), tout[j][t], S[j][t - 1],
                    f"transfer_out[{j}][{t}] = {tout[j][t]} > prior stock"
                    f" {S[j][t - 1]}"))

    for t in range(1, T):
        arrived = sum(tin[j][t] for j in range(J))
        departed = sum(tout[j][t] for j in range(J))
        if arrived != departed:
            out.append(Violation(
                "transfer_conservation", (t,), arrived, departed,
                f"slot {t}: {arrived} vehicles arrive but {departed} depart"))

    for j in range(J):
        for t in range(T):
            if S[j][t] > n[j][t]:
                out.append(Violation(
                    "stock_exceeds_capacity", (j, t), S[j][t], n[j][t],
                    f"stock[{j}][{t}] = {S[j][t]} > capacity {n[j][t]}"))
            sent = sum(y[j][i][t] for i in range(I))
            if sent > S[j][t]:
                out.append(Violation(
                    "dispatch_exceeds_stock", (j, t), sent, S[j][t],
                    f"station {j} slot {t} dispatches {sent} > stock {S[j][t]}"))

    for i in range(I):
        for t in range(T):
            got = sum(y[j][i][t] for j in range(J)) + short[i][t]
            if got != d[i][t]:
                out.append(Violation(
                    "demand_mismatch", (i, t), got, d[i][t],
                    f"zone {i} slot {t}: serves + shortage = {got},"
                    f" demand = {d[i][t]}"))

    return objective, out


# ---------------------------------------------------------------------------
# solver outcomes
# ---------------------------------------------------------------------------

def outcome_from_milp(
    res: MilpSolution,
    inst: Instance,
    penalty: int,
    ix: Any,
    extract_plan: Callable[[np.ndarray, Any], AllocationPlan | TransferPlan],
    evaluate: Callable[[Instance, Any], tuple[int, list[Violation]]],
    model: str,
) -> SolveOutcome:
    """Turn an engine result for one planning model into a SolveOutcome.

    The program priced shortage at ``penalty`` <= ``inst.big_m``, so its
    bounds stay valid. ``extract_plan(x, ix)`` reads a plan from the solver's
    columns laid out by ``ix``; ``evaluate`` is the model's exact evaluator.
    A NODE_LIMIT incumbent is priced without judging it. An OPTIMAL plan must
    pass every model rule and cost, at ``penalty``, exactly what the solver
    reported, or EngineError is raised; the objective returned is the exact
    integer cost of the plan at ``inst.big_m``.
    """
    if res.status is MilpStatus.INFEASIBLE:
        return SolveOutcome(SolveStatus.INFEASIBLE, None, None,
                            nodes=res.nodes, iterations=res.iterations)
    plan = extract_plan(res.x, ix) if res.x is not None else None
    if res.status is MilpStatus.NODE_LIMIT:
        obj = evaluate(inst, plan)[0] if plan is not None else None
        return SolveOutcome(SolveStatus.NODE_LIMIT, obj, plan,
                            nodes=res.nodes, iterations=res.iterations,
                            best_bound=res.best_bound)
    obj, violations = evaluate(inst, plan)
    if violations:
        raise EngineError(
            f"solver returned an invalid {model} plan: {violations[0].message}")
    priced = obj - (inst.big_m - penalty) * int(plan.shortage.sum())
    if priced != res.objective:
        raise EngineError(
            f"objective mismatch: plan costs {priced}, solver reported {res.objective}")
    return SolveOutcome(SolveStatus.OPTIMAL, obj, plan,
                        nodes=res.nodes, iterations=res.iterations,
                        best_bound=obj)
