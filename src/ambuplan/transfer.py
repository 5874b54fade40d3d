"""Stock-and-transfer planning (vehicles persist, moves are priced).

Decision variables, all integer, for stations j, zones i, slots t:

* ``stock[j][t]``      vehicles stationed at j during slot t
* ``serve[j][i][t]``   calls from zone i answered by station j (covered pairs only)
* ``tin[j][t]``        paid arrivals at station j between slot t-1 and t (t >= 1)
* ``shortage[i][t]``   calls from zone i in slot t that nobody answers
* ``fleet``            vehicles in service, at most ``fleet_size``

Every slot stations all ``fleet`` vehicles, so they only move between
stations, and the moves are not variables: the plan derives them from the
stock as ``transfer_in = max(0, Δstock)`` and ``transfer_out = max(0,
-Δstock)``. Each arrival costs ``transfer_cost`` through ``tin >= Δstock``,
on top of the holding and service costs. Serving is limited by on-site
stock; unmet demand is priced per zone at the ``big_m`` weight.

Every column has an upper bound, as the engine requires: stock its
station's capacity, the fleet ``fleet_size``, each serve and shortage
column its zone's demand in that slot, which the demand rows imply, and
``tin`` its station's capacity in that slot. That last bound cuts off no
optimum: the rise ``stock[j][t] - stock[j][t-1]`` that ``tin`` pays for is
at most ``capacity[j][t]``, and the plan reads no ``tin``. The engine's
dual start flips each column that prices in to its upper bound.
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
    solving_form,
    validate_instance,
)
from .engine import CscMatrix, LinearProgram, solve_milp


@dataclass(frozen=True)
class TransferIndex:
    """Column layout: stock block, serve block (covered pairs, station-major),
    tin block, shortage block, then the one fleet column. The accessors
    other than ``serve`` take index arrays as well as ints."""

    num_stations: int
    num_zones: int
    num_slots: int
    pairs: tuple[tuple[int, int], ...]
    pair_pos: dict

    @classmethod
    def for_instance(cls, inst: Instance) -> "TransferIndex":
        pairs = tuple(zip(*(a.tolist() for a in np.nonzero(inst.coverage))))
        pos = dict(zip(pairs, range(len(pairs))))
        return cls(inst.num_stations, inst.num_zones, inst.num_slots, pairs, pos)

    def stock(self, j: int, t: int) -> int:
        return j * self.num_slots + t

    def serve(self, j: int, i: int, t: int) -> int:
        return self.serve_pair(self.pair_pos[(j, i)], t)

    # each block starts where the previous one ends
    def serve_pair(self, k: int, t: int) -> int:
        # k is the position of the (j, i) pair in ``pairs``
        return (self.num_stations + k) * self.num_slots + t

    def transfer_in(self, j: int, t: int) -> int:
        # t >= 1; transfers into the first slot do not exist
        return self.serve_pair(len(self.pairs), 0) + j * (self.num_slots - 1) + t - 1

    def shortage(self, i: int, t: int) -> int:
        return self.transfer_in(self.num_stations, 1) + i * self.num_slots + t

    @property
    def fleet(self) -> int:
        return self.shortage(self.num_zones, 0)

    @property
    def num_vars(self) -> int:
        return self.fleet + 1


def build_transfer_program(inst: Instance) -> tuple[LinearProgram, TransferIndex]:
    """Assemble the integer program; returns it with its column layout."""
    jn, zn, tn = inst.num_stations, inst.num_zones, inst.num_slots
    ix = TransferIndex.for_instance(inst)
    n = ix.num_vars
    jt = np.arange(jn * tn)                    # station-major (j, t)
    j, t = np.divmod(jt, tn)
    mj, mt = j[t > 0], t[t > 0]                # the (j, t) a transfer can reach
    i, it = np.divmod(np.arange(zn * tn), tn)  # zone-major (i, t)
    k, kt = np.divmod(np.arange(len(ix.pairs) * tn), tn)  # pair-major (pair, t)
    pj, pi = np.nonzero(inst.coverage)         # the pairs, in ix.pairs order
    serve = ix.serve_pair(k, kt)
    sizes = [tn, mj.size, jt.size, zn * tn]
    move, limit, demand = np.cumsum(sizes[:-1]).tolist()
    jm = np.arange(mj.size)
    blocks = [  # (rows, cols, the coefficient of their entries)
        # every slot stations the whole fleet in service
        (t, ix.stock(j, t), 1.0), (np.arange(tn), np.full(tn, ix.fleet), -1.0),
        # each arrival is paid: tin covers the stock's rise
        (move + jm, ix.transfer_in(mj, mt), 1.0), (move + jm, ix.stock(mj, mt), -1.0),
        (move + jm, ix.stock(mj, mt - 1), 1.0),
        # serving is limited by on-site stock
        (limit + pj[k] * tn + kt, serve, 1.0), (limit + jt, ix.stock(j, t), -1.0),
        # every call is either answered by a covering station or counted short
        (demand + pi[k] * tn + kt, serve, 1.0), (demand + i * tn + it, ix.shortage(i, it), 1.0),
    ]
    sense = np.repeat([0.0, -1.0, 1.0, 0.0], sizes)
    rhs = np.concatenate([np.zeros(demand), inst.demand.ravel()])
    obj = np.concatenate([inst.hold_cost.ravel(), inst.dispatch_cost[pj].ravel(),
                          np.full(jm.size, float(inst.transfer_cost)),
                          np.full(zn * tn, float(inst.big_m)), [0.0]])
    # a zone's demand bounds its serve and shortage columns, as its demand
    # row implies, and a station's capacity its arrivals
    upper = np.concatenate([inst.capacity.ravel(), inst.demand[pi].ravel(),
                            inst.capacity[mj, mt], inst.demand.ravel(),
                            [float(inst.fleet_size)]])
    rows, cols, coeffs = zip(*blocks)
    A = CscMatrix.from_triplets(np.concatenate(rows), np.concatenate(cols),
                                np.repeat(coeffs, [len(r) for r in rows]), (sense.size, n))
    lp = LinearProgram(n, obj, np.zeros(n), upper, np.ones(n, dtype=bool), A, sense, rhs)
    return lp, ix


def _extract_plan(x: np.ndarray, ix: TransferIndex) -> TransferPlan:
    jn, zn, tn = ix.num_stations, ix.num_zones, ix.num_slots
    vals = np.rint(x).astype(np.int64)
    serve_at, tin_at, short_at = ix.serve_pair(0, 0), ix.transfer_in(0, 1), ix.shortage(0, 0)
    stock = vals[:serve_at].reshape(jn, tn)
    serve = np.zeros((jn, zn, tn), dtype=np.int64)
    js, zs = np.array(ix.pairs, dtype=np.intp).reshape(-1, 2).T
    serve[js, zs] = vals[serve_at:tin_at].reshape(-1, tn)
    return TransferPlan(stock, serve, vals[short_at:ix.fleet].reshape(zn, tn))


def solve_transfer(inst: Instance, node_limit: int | None = None) -> SolveOutcome:
    """Solve the transfer model to proven optimality.

    Raises ValueError on an invalid instance. The program is built for
    ``solving_form(inst)``: the fleet the stations can hold and the smallest
    ``big_m`` valid for it. On OPTIMAL the returned objective is the
    exact integer cost of the plan at ``inst.big_m``, and the plan has been
    re-checked against every model rule. ``node_limit`` caps the number of
    branch-and-bound nodes solved.
    """
    priced = solving_form(inst, validate_instance(inst))
    lp, ix = build_transfer_program(priced)
    return outcome_from_milp(solve_milp(lp, node_limit), inst, priced.big_m, ix,
                             _extract_plan, evaluate_transfer, "transfer")
