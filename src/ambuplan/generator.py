"""Seeded random instance generation.

Randomness comes from a self-contained splitmix64 stream so that a given
(params, seed) pair produces the same instance on every platform and Python
version. Fields are drawn in a fixed documented order; changing that order
would silently change every seeded benchmark, so treat it as frozen:

1. capacity[j][t], station-major
2. hold_cost[j][t], station-major
3. dispatch_cost[j][t], station-major
4. demand[i][t], zone-major
5. coverage[j][i], station-major Bernoulli draws
6. one uniform station index per still-uncovered zone, zones ascending
   (only when ensure_coverage is set)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, at_minimal_penalty, validate_instance

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator; tiny state, good enough for sampling."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_int(self, lo: int, hi: int) -> int:
        """Uniform draw on {lo..hi}; always consumes one draw, even if lo == hi.

        Modulo bias is below 2**-50 for the ranges used here.
        """
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next64() % (hi - lo + 1)

    def bernoulli(self, p: float) -> bool:
        return self.next64() < int(p * 2.0 ** 64)


@dataclass(frozen=True)
class GenParams:
    """Knobs for one random instance family; ranges are inclusive."""

    num_stations: int
    num_zones: int
    num_slots: int
    fleet_size: int
    capacity_range: tuple[int, int] = (1, 6)
    hold_cost_range: tuple[int, int] = (6, 10)
    dispatch_cost_range: tuple[int, int] = (2, 6)
    demand_range: tuple[int, int] = (0, 5)
    coverage_prob: float = 0.5
    ensure_coverage: bool = True
    transfer_cost: int = 0
    big_m: int | None = None


_PRESETS = {
    1: GenParams(num_stations=10, num_zones=20, num_slots=4, fleet_size=100),
    2: GenParams(num_stations=15, num_zones=30, num_slots=4, fleet_size=200),
    3: GenParams(num_stations=20, num_zones=40, num_slots=4, fleet_size=200),
    4: GenParams(num_stations=20, num_zones=40, num_slots=12, fleet_size=200),
    5: GenParams(num_stations=20, num_zones=60, num_slots=24, fleet_size=200),
}


def preset(level: int) -> GenParams:
    """Benchmark families 1..5, ordered by increasing size."""
    if level not in _PRESETS:
        raise ValueError(f"preset level must be in 1..5, got {level}")
    return _PRESETS[level]


def tiny_params(seed: int) -> GenParams:
    """Small random params whose instances brute-force search can certify.

    Dimensions stay within 3 stations x 4 zones x 3 slots with single-digit
    demands and capacities, which keeps exhaustive enumeration comfortably
    inside its search-space budget. The derived stream is independent of the
    instance stream, so generate(tiny_params(s), s) is well defined.
    """
    rng = SplitMix64((seed ^ 0xD1F440B5F26AB3D5) & _MASK64)
    num_stations = rng.uniform_int(1, 3)
    num_zones = rng.uniform_int(1, 4)
    num_slots = rng.uniform_int(1, 3)
    fleet_size = rng.uniform_int(1, 4)
    cap_hi = rng.uniform_int(1, 2)
    demand_hi = rng.uniform_int(1, 2)
    ensure = rng.bernoulli(0.75)
    tau = rng.uniform_int(0, 2)
    return GenParams(
        num_stations=num_stations,
        num_zones=num_zones,
        num_slots=num_slots,
        fleet_size=fleet_size,
        capacity_range=(0, cap_hi),
        hold_cost_range=(1, 3),
        dispatch_cost_range=(1, 3),
        demand_range=(0, demand_hi),
        coverage_prob=0.6,
        ensure_coverage=ensure,
        transfer_cost=tau,
    )


def generate(params: GenParams, seed: int) -> Instance:
    """Draw one instance from the family; same (params, seed) -> same bytes.

    Raises ValueError when a dimension is below 1, or when the family yields
    an instance that validate_instance rejects.
    """
    j_n, i_n, t_n = params.num_stations, params.num_zones, params.num_slots
    if min(j_n, i_n, t_n) < 1:
        raise ValueError("num_stations, num_zones and num_slots must be >= 1,"
                         f" got {j_n}, {i_n}, {t_n}")
    rng = SplitMix64(seed)
    lo, hi = params.capacity_range
    capacity = np.array([[rng.uniform_int(lo, hi) for _ in range(t_n)]
                         for _ in range(j_n)], dtype=np.int64)
    lo, hi = params.hold_cost_range
    hold = np.array([[rng.uniform_int(lo, hi) for _ in range(t_n)]
                     for _ in range(j_n)], dtype=np.int64)
    lo, hi = params.dispatch_cost_range
    dispatch = np.array([[rng.uniform_int(lo, hi) for _ in range(t_n)]
                         for _ in range(j_n)], dtype=np.int64)
    lo, hi = params.demand_range
    demand = np.array([[rng.uniform_int(lo, hi) for _ in range(t_n)]
                       for _ in range(i_n)], dtype=np.int64)
    coverage = np.array([[int(rng.bernoulli(params.coverage_prob))
                          for _ in range(i_n)] for _ in range(j_n)],
                        dtype=np.int64)
    if params.ensure_coverage:
        for i in range(i_n):
            if not coverage[:, i].any():
                coverage[rng.uniform_int(0, j_n - 1), i] = 1

    inst = Instance(
        num_stations=j_n,
        num_zones=i_n,
        num_slots=t_n,
        fleet_size=params.fleet_size,
        coverage=coverage,
        capacity=capacity,
        hold_cost=hold,
        dispatch_cost=dispatch,
        demand=demand,
        big_m=0 if params.big_m is None else params.big_m,
        transfer_cost=params.transfer_cost,
    )
    if params.big_m is None:
        inst = at_minimal_penalty(inst)
    problems = validate_instance(inst)
    if problems:
        raise ValueError(f"params give an invalid instance: {problems[0].message}")
    return inst
