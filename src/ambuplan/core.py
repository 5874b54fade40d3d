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

A plan holds its model's decisions only. What follows from them, model 1's
``inventory`` and model 2's ``transfer_in``/``transfer_out``, is a read-only
property computed from the decisions, so no plan can disagree with itself.

Evaluation is exact: all arithmetic on plans uses arbitrary-precision Python
integers, so a reported objective is never a rounded number.
``solving_form`` gives the instance both solvers price, and
``outcome_from_milp`` turns an engine result for either model into a
:class:`SolveOutcome`, re-checking an optimal plan with that evaluator; it is
the only part of this module that uses the engine, and it imports it when
called, so loading ``core`` loads numpy but not scipy.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from operator import mul
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from .engine import MilpSolution


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


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
    return _read_only(arr.astype(np.int64))


def _int_scalar(value: Any, name: str) -> int:
    """Coerce ``value`` to a Python int: integers of any size and integral
    floats pass, as in _frozen_int_array; bools and the rest raise ValueError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


class _Record:
    """Base of the frozen dataclasses below.

    On construction every field annotated ``np.ndarray`` becomes a read-only
    int64 array (_frozen_int_array) and then every ``int`` field a Python
    int (_int_scalar). Records compare by value and, like their arrays, are
    unhashable.
    """

    def __post_init__(self) -> None:
        for coerce, kind in ((_frozen_int_array, "np.ndarray"), (_int_scalar, "int")):
            for f in fields(self):
                if f.type == kind:  # annotations are strings in this module
                    object.__setattr__(self, f.name, coerce(getattr(self, f.name), f.name))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True, eq=False)
class Instance(_Record):
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


@dataclass(frozen=True, eq=False)
class AllocationPlan(_Record):
    """Per-slot allocation with station-bound vehicles.

    ``alloc[j][t]`` vehicles are placed at station j for slot t and
    ``dispatch`` of them answer calls. ``shortage[t]`` counts calls in slot
    t that no dispatch answered. The plan holds these decisions only; the
    idle remainder, ``inventory``, follows from them (counted exactly,
    ValueError past int64).
    """

    alloc: np.ndarray      # [j][t]
    dispatch: np.ndarray   # [j][t]
    shortage: np.ndarray   # [t]

    @property
    def inventory(self) -> np.ndarray:
        """[j][t] idle vehicles so far, ``cumsum(alloc - dispatch)``; read-only."""
        idle = self.alloc.astype(object) - self.dispatch.astype(object)
        return _frozen_int_array(np.cumsum(idle, axis=1), "inventory")


@dataclass(frozen=True, eq=False)
class TransferPlan(_Record):
    """Stationed fleet carried across slots with paid rebalancing moves.

    ``stock[j][t]`` vehicles sit at station j during slot t. ``serve[j][i][t]``
    dispatches from j answer zone i in slot t (vehicles return within the
    slot). ``shortage[i][t]`` counts unanswered calls per zone. The plan
    holds these decisions only; the rebalancing moves at the start of each
    slot, ``transfer_in`` and ``transfer_out``, follow from the stock
    (counted exactly, ValueError past int64).
    """

    stock: np.ndarray         # [j][t]
    serve: np.ndarray         # [j][i][t]
    shortage: np.ndarray      # [i][t]

    def _stock_change(self) -> np.ndarray:
        # zero in the first slot: the fleet is placed there, not moved
        stock = self.stock.astype(object)
        return np.diff(stock, axis=1, prepend=stock[:, :1])

    @property
    def transfer_in(self) -> np.ndarray:
        """[j][t] arrivals before slot t, ``max(0, Δstock)``; read-only."""
        return _frozen_int_array(np.maximum(self._stock_change(), 0), "transfer_in")

    @property
    def transfer_out(self) -> np.ndarray:
        """[j][t] departures before slot t, ``max(0, -Δstock)``; read-only."""
        return _frozen_int_array(np.maximum(-self._stock_change(), 0), "transfer_out")


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


def solving_form(inst: Instance, problems: list[Violation]) -> Instance:
    """``inst`` at its usable fleet and the smallest ``big_m`` valid for it:
    the instance both solvers build their programs for.

    ``problems`` is ``validate_instance(inst)``; the first raises ValueError.
    No model stations more than ``max_t sum_j capacity[j, t]`` vehicles in a
    slot, so a larger fleet admits the same plans, and any valid ``big_m``
    ranks them alike. The smaller fleet keeps the fleet bound and the priced
    ``big_m``, and with them the simplex's tolerances, small.
    """
    if problems:
        raise ValueError(f"invalid instance: {problems[0].message}")
    usable = max(map(sum, zip(*inst.capacity.tolist())))  # exact, no int64 sum
    if usable < inst.fleet_size:
        inst = replace(inst, fleet_size=usable)
    return at_minimal_penalty(inst)


# ---------------------------------------------------------------------------
# plan evaluation (exact integer arithmetic)
# ---------------------------------------------------------------------------

def require_plan_shape(inst: Instance, plan: AllocationPlan | TransferPlan) -> None:
    """Raise ValueError unless every decision array has the shape inst implies."""
    J, I, T = inst.num_stations, inst.num_zones, inst.num_slots
    if isinstance(plan, AllocationPlan):
        shapes = {"alloc": (J, T), "dispatch": (J, T), "shortage": (T,)}
    else:
        shapes = {"stock": (J, T), "serve": (J, I, T), "shortage": (I, T)}
    for name, shape in shapes.items():
        got = getattr(plan, name).shape
        if got != shape:
            raise ValueError(f"{name} has shape {got}, expected {shape}")


def _exact_ints(arrays: tuple[np.ndarray, ...], terms: int) -> tuple[np.ndarray, ...]:
    """``arrays`` as int64 when a sum of ``terms`` products of two of their
    entries cannot leave int64, else as arrays of Python ints."""
    top = max((max(int(a.max()), -int(a.min())) for a in arrays if a.size), default=0)
    if top * top * terms < 2**63:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def evaluate_allocation(inst: Instance, plan: AllocationPlan) -> tuple[int, list[Violation]]:
    """Exact objective and invariant check for an AllocationPlan.

    Objective: sum of hold_cost * alloc, dispatch_cost * dispatch, and
    big_m * total shortage. Raises ValueError on dimension mismatch; every
    other defect is reported as a Violation.
    """
    J, I, T = inst.num_stations, inst.num_zones, inst.num_slots
    require_plan_shape(inst, plan)

    objective = (sum(map(mul, inst.hold_cost.ravel().tolist(), plan.alloc.ravel().tolist()))
                 + sum(map(mul, inst.dispatch_cost.ravel().tolist(),
                           plan.dispatch.ravel().tolist()))
                 + inst.big_m * sum(plan.shortage.tolist()))

    # every sum below has at most I + J + 2T + 1 terms
    a, n, d, x, s, short = _exact_ints(
        (inst.coverage, inst.capacity, inst.demand, plan.alloc, plan.dispatch,
         plan.shortage), I + J + 2 * T + 1)
    # the plan's inventory
    inv = np.cumsum(x - s, axis=1)

    out: list[Violation] = []

    for name, mat in (("alloc", x), ("dispatch", s), ("inventory", inv)):
        for j, t in np.argwhere(mat < 0).tolist():
            v = int(mat[j, t])
            out.append(Violation("negative_value", (j, t), v, 0,
                                 f"{name}[{j}][{t}] = {v} < 0"))
    for t in np.flatnonzero(short < 0).tolist():
        v = int(short[t])
        out.append(Violation("negative_value", (t,), v, 0, f"shortage[{t}] = {v} < 0"))

    for j, t in np.argwhere((x > n) | (s > x)).tolist():
        xv, nv, sv = int(x[j, t]), int(n[j, t]), int(s[j, t])
        if xv > nv:
            out.append(Violation("alloc_exceeds_capacity", (j, t), xv, nv,
                                 f"alloc[{j}][{t}] = {xv} > capacity {nv}"))
        if sv > xv:
            out.append(Violation("dispatch_exceeds_alloc", (j, t), sv, xv,
                                 f"dispatch[{j}][{t}] = {sv} > alloc {xv}"))

    total = x.sum(axis=0)
    for t in np.flatnonzero(total > inst.fleet_size).tolist():
        v = int(total[t])
        out.append(Violation("fleet_exceeded", (t,), v, inst.fleet_size,
                             f"slot {t} allocates {v} > fleet {inst.fleet_size}"))

    got = a.T @ x
    served = a.T @ s + short
    for i, t in np.argwhere((got < d) | (served < d)).tolist():
        gv, sv, dv = int(got[i, t]), int(served[i, t]), int(d[i, t])
        if gv < dv:
            out.append(Violation(
                "alloc_cover_short", (i, t), gv, dv,
                f"zone {i} slot {t}: covering alloc {gv} < demand {dv}"))
        if sv < dv:
            out.append(Violation(
                "dispatch_cover_short", (i, t), sv, dv,
                f"zone {i} slot {t}: covering dispatch + shortage {sv}"
                f" < demand {dv}"))

    lhs = s.sum(axis=0) + short
    rhs = d.sum(axis=0)
    for t in np.flatnonzero(lhs != rhs).tolist():
        lv, rv = int(lhs[t]), int(rhs[t])
        out.append(Violation(
            "dispatch_total_mismatch", (t,), lv, rv,
            f"slot {t}: dispatches + shortage = {lv}, total demand = {rv}"))

    return objective, out


def evaluate_transfer(inst: Instance, plan: TransferPlan) -> tuple[int, list[Violation]]:
    """Exact objective and invariant check for a TransferPlan.

    Objective: hold costs on stock, dispatch costs on serves, transfer_cost
    per incoming move (``transfer_in``), big_m per unit shortage. Raises
    ValueError on dimension mismatch; every other defect is reported as a
    Violation.
    """
    require_plan_shape(inst, plan)

    # every sum below has at most 2J + I + 1 terms
    S, y, short = _exact_ints((plan.stock, plan.serve, plan.shortage),
                              2 * inst.num_stations + inst.num_zones + 1)
    # the plan's moves: arrivals and departures per slot after the first
    change = np.diff(S, axis=1)
    arrived = np.maximum(change, 0).sum(axis=0)
    departed = np.maximum(-change, 0).sum(axis=0)
    sent = y.sum(axis=1)  # [j][t]

    objective = (inst.transfer_cost * sum(arrived.tolist())
                 + sum(map(mul, inst.hold_cost.ravel().tolist(), S.ravel().tolist()))
                 + sum(map(mul, inst.dispatch_cost.ravel().tolist(), sent.ravel().tolist()))
                 + inst.big_m * sum(short.ravel().tolist()))

    out: list[Violation] = []

    for j, t in np.argwhere(S < 0).tolist():
        v = int(S[j, t])
        out.append(Violation("negative_value", (j, t), v, 0, f"stock[{j}][{t}] = {v} < 0"))
    uncovered = inst.coverage[:, :, None] == 0
    for j, i, t in np.argwhere((y < 0) | ((y > 0) & uncovered)).tolist():
        v = int(y[j, i, t])
        if v < 0:
            out.append(Violation("negative_value", (j, i, t), v, 0,
                                 f"serve[{j}][{i}][{t}] = {v} < 0"))
        else:
            out.append(Violation("serve_uncovered", (j, i, t), v, 0,
                                 f"serve[{j}][{i}][{t}] = {v} but station {j}"
                                 f" does not cover zone {i}"))
    for i, t in np.argwhere(short < 0).tolist():
        v = int(short[i, t])
        out.append(Violation("negative_value", (i, t), v, 0, f"shortage[{i}][{t}] = {v} < 0"))

    first = int(S[:, 0].sum())
    if first > inst.fleet_size:
        out.append(Violation("fleet_exceeded", (0,), first, inst.fleet_size,
                             f"slot 0 stocks {first} > fleet {inst.fleet_size}"))

    # vehicles only move between stations: the total stock never changes
    for k in np.flatnonzero(arrived != departed).tolist():
        av, dv = int(arrived[k]), int(departed[k])
        out.append(Violation("transfer_conservation", (k + 1,), av, dv,
                             f"slot {k + 1}: {av} vehicles arrive but {dv} depart"))

    n = inst.capacity
    for j, t in np.argwhere((S > n) | (sent > S)).tolist():
        sv, nv, dv = int(S[j, t]), int(n[j, t]), int(sent[j, t])
        if sv > nv:
            out.append(Violation("stock_exceeds_capacity", (j, t), sv, nv,
                                 f"stock[{j}][{t}] = {sv} > capacity {nv}"))
        if dv > sv:
            out.append(Violation("dispatch_exceeds_stock", (j, t), dv, sv,
                                 f"station {j} slot {t} dispatches {dv} > stock {sv}"))

    got = y.sum(axis=0) + short
    for i, t in np.argwhere(got != inst.demand).tolist():
        gv, dv = int(got[i, t]), int(inst.demand[i, t])
        out.append(Violation("demand_mismatch", (i, t), gv, dv,
                             f"zone {i} slot {t}: serves + shortage = {gv},"
                             f" demand = {dv}"))

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
    from .engine import EngineError, MilpStatus  # loaded by the solve already

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
