"""Seeded instance generation: stream values, draw order, and families."""

import dataclasses

import numpy as np
import pytest

from ambuplan import GenParams, generate, preset, tiny_params, validate_instance
from ambuplan.core import big_m_bound
from ambuplan.generator import SplitMix64


class TestStream:
    def test_published_reference_vector(self):
        # first outputs for seed 0 from the original splitmix64 reference
        rng = SplitMix64(0)
        assert [rng.next64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_frozen_regression_vector(self):
        rng = SplitMix64(1234567)
        assert [rng.next64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_seed_wraps_at_64_bits(self):
        assert SplitMix64(2 ** 64 + 5).next64() == SplitMix64(5).next64()

    def test_uniform_int_always_consumes_one_draw(self):
        burned = SplitMix64(99)
        assert burned.uniform_int(7, 7) == 7  # degenerate range still draws
        fresh = SplitMix64(99)
        fresh.next64()
        assert burned.next64() == fresh.next64()

    def test_uniform_int_definition_and_coverage(self):
        rng = SplitMix64(5)
        replay = SplitMix64(5)
        seen = set()
        for _ in range(2000):
            value = rng.uniform_int(2, 5)
            assert value == 2 + replay.next64() % 4
            seen.add(value)
        assert seen == {2, 3, 4, 5}

    def test_uniform_int_rejects_empty_range(self):
        with pytest.raises(ValueError):
            SplitMix64(0).uniform_int(3, 2)

    def test_bernoulli_threshold_definition(self):
        rng = SplitMix64(31)
        replay = SplitMix64(31)
        for _ in range(500):
            assert rng.bernoulli(0.5) == (replay.next64() < 2 ** 63)

    def test_bernoulli_extremes(self):
        rng = SplitMix64(8)
        assert not any(rng.bernoulli(0.0) for _ in range(100))
        assert all(rng.bernoulli(1.0) for _ in range(100))


class TestDrawOrder:
    def replay(self, params: GenParams, seed: int):
        """Independently re-derive the instance from the documented order."""
        rng = SplitMix64(seed)
        J, I, T = params.num_stations, params.num_zones, params.num_slots

        def block(rows, cols, rng_range):
            lo, hi = rng_range
            return [[rng.uniform_int(lo, hi) for _ in range(cols)]
                    for _ in range(rows)]

        capacity = block(J, T, params.capacity_range)
        hold = block(J, T, params.hold_cost_range)
        dispatch = block(J, T, params.dispatch_cost_range)
        demand = block(I, T, params.demand_range)
        coverage = [[int(rng.bernoulli(params.coverage_prob))
                     for _ in range(I)] for _ in range(J)]
        if params.ensure_coverage:
            for i in range(I):
                if not any(coverage[j][i] for j in range(J)):
                    coverage[rng.uniform_int(0, J - 1)][i] = 1
        return capacity, hold, dispatch, demand, coverage

    def test_field_order_is_frozen(self):
        params = GenParams(num_stations=3, num_zones=4, num_slots=2,
                           fleet_size=7, ensure_coverage=False,
                           coverage_prob=0.4)
        inst = generate(params, 2024)
        capacity, hold, dispatch, demand, coverage = self.replay(params, 2024)
        assert inst.capacity.tolist() == capacity
        assert inst.hold_cost.tolist() == hold
        assert inst.dispatch_cost.tolist() == dispatch
        assert inst.demand.tolist() == demand
        assert inst.coverage.tolist() == coverage

    def test_coverage_repair_replays_exactly(self):
        # probability zero leaves every zone uncovered, so the repair pass
        # draws one station per zone in ascending zone order
        params = GenParams(num_stations=4, num_zones=5, num_slots=1,
                           fleet_size=3, coverage_prob=0.0,
                           ensure_coverage=True)
        inst = generate(params, 77)
        *_, coverage = self.replay(params, 77)
        assert inst.coverage.tolist() == coverage
        assert np.all(inst.coverage.sum(axis=0) == 1)

    def test_repair_triggers_only_for_uncovered_zones(self):
        params = GenParams(num_stations=6, num_zones=6, num_slots=1,
                           fleet_size=3, coverage_prob=0.5,
                           ensure_coverage=True)
        for seed in range(30):
            inst = generate(params, seed)
            assert np.all(inst.coverage.sum(axis=0) >= 1), f"seed {seed}"

    def test_same_inputs_same_instance(self):
        params = preset(2)
        assert generate(params, 9) == generate(params, 9)

    def test_different_seeds_differ(self):
        params = preset(1)
        assert generate(params, 1) != generate(params, 2)


class TestFamilies:
    def test_benchmark_family_table(self):
        dims = {1: (10, 20, 4, 100), 2: (15, 30, 4, 200), 3: (20, 40, 4, 200),
                4: (20, 40, 12, 200), 5: (20, 60, 24, 200)}
        for level, (J, I, T, fleet) in dims.items():
            params = preset(level)
            assert (params.num_stations, params.num_zones,
                    params.num_slots, params.fleet_size) == (J, I, T, fleet)
            assert params.capacity_range == (1, 6)
            assert params.hold_cost_range == (6, 10)
            assert params.dispatch_cost_range == (2, 6)
            assert params.demand_range == (0, 5)
            assert params.coverage_prob == 0.5
            assert params.ensure_coverage
            assert params.transfer_cost == 0

    def test_preset_level_bounds(self):
        with pytest.raises(ValueError):
            preset(0)
        with pytest.raises(ValueError):
            preset(6)

    def test_tiny_envelope(self):
        for seed in range(200):
            params = tiny_params(seed)
            assert 1 <= params.num_stations <= 3
            assert 1 <= params.num_zones <= 4
            assert 1 <= params.num_slots <= 3
            assert 1 <= params.fleet_size <= 4
            assert params.capacity_range[0] == 0
            assert params.capacity_range[1] <= 2
            assert params.demand_range == (0, 1) or \
                params.demand_range == (0, 2)
            assert params.hold_cost_range == (1, 3)
            assert params.dispatch_cost_range == (1, 3)
            assert 0 <= params.transfer_cost <= 2

    def test_tiny_instances_validate_and_stay_small(self):
        for seed in range(60):
            inst = generate(tiny_params(seed), seed)
            assert validate_instance(inst) == []
            assert int(inst.demand.max(initial=0)) <= 2
            assert int(inst.capacity.max(initial=0)) <= 2

    def test_tiny_stream_independent_of_instance_stream(self):
        # params derive from a decorrelated seed, so reusing the raw seed
        # for the instance draw must not echo the params draws
        params_a = tiny_params(3)
        params_b = tiny_params(3)
        assert params_a == params_b
        assert generate(params_a, 3) == generate(params_b, 3)


class TestBigM:
    def test_default_dominates_any_service_cost(self):
        for level in (1, 3, 5):
            inst = generate(preset(level), 11)
            expected = big_m_bound(inst.hold_cost, inst.dispatch_cost,
                                   inst.transfer_cost, inst.fleet_size,
                                   inst.num_slots) + 1
            assert inst.big_m == expected
            assert validate_instance(inst) == []

    def test_default_formula(self):
        hold = np.array([[4, 2]])
        dispatch = np.array([[3, 1]])
        assert big_m_bound(hold, dispatch, 2, 10, 2) + 1 == (4 + 3 + 2) * 10 * 2 + 1

    def test_explicit_override_respected(self):
        params = dataclasses.replace(preset(1), big_m=10 ** 9)
        assert generate(params, 4).big_m == 10 ** 9


class TestScaled:
    def test_fleet_factor_changes_only_the_fleet(self):
        # fleet size is never drawn, so growing it leaves the arrays alone
        params = preset(1)
        grown = dataclasses.replace(params, fleet_size=3 * params.fleet_size)
        a = generate(params, 5)
        b = generate(grown, 5)
        assert np.array_equal(a.capacity, b.capacity)
        assert np.array_equal(a.demand, b.demand)
        assert b.fleet_size == 3 * a.fleet_size
