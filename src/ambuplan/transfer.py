"""Stock-and-transfer planning (vehicles persist, moves are priced).

Decision variables, all integer, for stations j, zones i, slots t:

* ``stock[j][t]``      vehicles stationed at j during slot t
* ``serve[j][i][t]``   calls from zone i answered by station j (covered pairs only)
* ``transfer_in/out[j][t]`` vehicles arriving at / leaving station j between
  slot t-1 and t (undefined for the first slot)
* ``shortage[i][t]``   calls from zone i in slot t that nobody answers

The fleet enters in the first slot and afterwards only moves by paired
transfers (total in == total out each slot, and a station cannot send more
than it held). Serving is limited by on-site stock; unmet demand is priced
per zone at the ``big_m`` weight, and each transfer arrival costs
``transfer_cost`` on top of the usual holding and service costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Instance,
    SolveOutcome,
    TransferPlan,
    evaluate_transfer,
    outcome_from_milp,
    validate_instance,
)
from .engine import LinearProgram, LinearRow, MilpOptions, solve_milp


@dataclass(frozen=True)
class TransferIndex:
    """Column layout: stock block, serve block (covered pairs, station-major),
    transfer-in block, transfer-out block, shortage block."""

    num_stations: int
    num_zones: int
    num_slots: int
    pairs: tuple[tuple[int, int], ...]
    pair_pos: dict

    @classmethod
    def for_instance(cls, inst: Instance) -> "TransferIndex":
        pairs = tuple((j, i)
                      for j in range(inst.num_stations)
                      for i in range(inst.num_zones)
                      if inst.coverage[j, i])
        pos = {pair: k for k, pair in enumerate(pairs)}
        return cls(inst.num_stations, inst.num_zones, inst.num_slots, pairs, pos)

    def stock(self, j: int, t: int) -> int:
        return j * self.num_slots + t

    def serve(self, j: int, i: int, t: int) -> int:
        base = self.num_stations * self.num_slots
        return base + self.pair_pos[(j, i)] * self.num_slots + t

    def transfer_in(self, j: int, t: int) -> int:
        # t >= 1; transfers into the first slot do not exist
        base = (self.num_stations + len(self.pairs)) * self.num_slots
        return base + j * (self.num_slots - 1) + (t - 1)

    def transfer_out(self, j: int, t: int) -> int:
        base = ((self.num_stations + len(self.pairs)) * self.num_slots
                + self.num_stations * (self.num_slots - 1))
        return base + j * (self.num_slots - 1) + (t - 1)

    def shortage(self, i: int, t: int) -> int:
        base = ((self.num_stations + len(self.pairs)) * self.num_slots
                + 2 * self.num_stations * (self.num_slots - 1))
        return base + i * self.num_slots + t

    @property
    def num_vars(self) -> int:
        return ((self.num_stations + len(self.pairs) + self.num_zones)
                * self.num_slots
                + 2 * self.num_stations * (self.num_slots - 1))


def build_transfer_program(inst: Instance) -> tuple[LinearProgram, TransferIndex]:
    """Assemble the integer program; returns it with its column layout."""
    jn, zn, tn = inst.num_stations, inst.num_zones, inst.num_slots
    ix = TransferIndex.for_instance(inst)
    n = ix.num_vars

    obj = np.zeros(n)
    lower = np.zeros(n)
    upper = np.full(n, np.inf)
    for j in range(jn):
        for t in range(tn):
            obj[ix.stock(j, t)] = inst.hold_cost[j, t]
            upper[ix.stock(j, t)] = inst.capacity[j, t]
    for (j, i) in ix.pairs:
        for t in range(tn):
            obj[ix.serve(j, i, t)] = inst.dispatch_cost[j, t]
    for j in range(jn):
        for t in range(1, tn):
            obj[ix.transfer_in(j, t)] = inst.transfer_cost
    for i in range(zn):
        for t in range(tn):
            obj[ix.shortage(i, t)] = inst.big_m

    rows: list[LinearRow] = []
    # the whole fleet is positioned once, in the first slot
    rows.append(LinearRow(
        tuple((ix.stock(j, 0), 1.0) for j in range(jn)),
        "<=", float(inst.fleet_size)))
    # stock evolves only through transfers
    for j in range(jn):
        for t in range(1, tn):
            rows.append(LinearRow((
                (ix.stock(j, t), 1.0), (ix.stock(j, t - 1), -1.0),
                (ix.transfer_in(j, t), -1.0), (ix.transfer_out(j, t), 1.0),
            ), "=", 0.0))
    # a station cannot send vehicles it did not hold
    for j in range(jn):
        for t in range(1, tn):
            rows.append(LinearRow((
                (ix.transfer_out(j, t), 1.0), (ix.stock(j, t - 1), -1.0),
            ), "<=", 0.0))
    # transfers are paired: every arrival left somewhere
    for t in range(1, tn):
        coeffs = tuple((ix.transfer_in(j, t), 1.0) for j in range(jn)) \
            + tuple((ix.transfer_out(j, t), -1.0) for j in range(jn))
        rows.append(LinearRow(coeffs, "=", 0.0))
    # serving is limited by on-site stock
    for j in range(jn):
        for t in range(tn):
            covered = [i for i in range(zn) if inst.coverage[j, i]]
            coeffs = tuple((ix.serve(j, i, t), 1.0) for i in covered) \
                + ((ix.stock(j, t), -1.0),)
            rows.append(LinearRow(coeffs, "<=", 0.0))
    # every call is either answered by a covering station or counted short
    for i in range(zn):
        for t in range(tn):
            covering = [j for j in range(jn) if inst.coverage[j, i]]
            coeffs = tuple((ix.serve(j, i, t), 1.0) for j in covering) \
                + ((ix.shortage(i, t), 1.0),)
            rows.append(LinearRow(coeffs, "=", float(inst.demand[i, t])))

    lp = LinearProgram(n, obj, lower, upper, np.ones(n, dtype=bool), rows)
    return lp, ix


def _extract_plan(x: np.ndarray, ix: TransferIndex) -> TransferPlan:
    jn, zn, tn = ix.num_stations, ix.num_zones, ix.num_slots
    vals = np.rint(x).astype(np.int64)
    serve_at = jn * tn
    tin_at, tout_at = ix.transfer_in(0, 1), ix.transfer_out(0, 1)
    short_at = ix.shortage(0, 0)
    serve = np.zeros((jn, zn, tn), dtype=np.int64)
    js, zs = np.array(ix.pairs, dtype=np.intp).reshape(-1, 2).T
    serve[js, zs] = vals[serve_at:tin_at].reshape(-1, tn)
    tin = np.zeros((jn, tn), dtype=np.int64)
    tout = np.zeros((jn, tn), dtype=np.int64)
    tin[:, 1:] = vals[tin_at:tout_at].reshape(jn, tn - 1)
    tout[:, 1:] = vals[tout_at:short_at].reshape(jn, tn - 1)
    return TransferPlan(stock=vals[:serve_at].reshape(jn, tn), serve=serve,
                        transfer_in=tin, transfer_out=tout,
                        shortage=vals[short_at:].reshape(zn, tn))


def solve_transfer(inst: Instance,
                   options: MilpOptions | None = None) -> SolveOutcome:
    """Solve the transfer model to proven optimality.

    Raises ValueError on an invalid instance. On OPTIMAL the returned
    objective is the exact integer cost recomputed from the plan, and the
    plan has been re-checked against every model rule.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValueError(f"invalid instance: {problems[0].message}")
    lp, ix = build_transfer_program(inst)
    return outcome_from_milp(solve_milp(lp, options), inst, ix, _extract_plan,
                             evaluate_transfer, "transfer")
