"""Unit tests of the shard planner and its service integration."""

import numpy as np
import pytest

from repro.core.stacked import solve_shard, sweep_stack_nbytes
from repro.service.service import UpdateService
from repro.service.shard import (
    DEFAULT_MAX_STACK_BYTES,
    Shard,
    ShardConfig,
    ShardPlan,
    mark_executed,
    plan_shards,
    resolve_shard_config,
)
from repro.service.synthetic import synthesize_fleet
from repro.utils.linalg import system_stack_nbytes


class TestShardConfig:
    def test_default_budget_is_l3_ish(self):
        assert ShardConfig().max_stack_bytes == DEFAULT_MAX_STACK_BYTES == 32 * 2**20

    def test_unbounded_allowed(self):
        assert ShardConfig(max_stack_bytes=None).max_stack_bytes is None

    def test_non_positive_budget_rejected(self):
        with pytest.raises(ValueError, match="max_stack_bytes"):
            ShardConfig(max_stack_bytes=0)

    def test_resolve_accepts_int_shorthand(self):
        assert resolve_shard_config(4096).max_stack_bytes == 4096
        assert resolve_shard_config(None).max_stack_bytes is None
        config = ShardConfig(max_stack_bytes=7)
        assert resolve_shard_config(config) is config
        with pytest.raises(TypeError, match="shards must be"):
            resolve_shard_config("big")

    def test_bool_is_not_a_budget(self):
        with pytest.raises(TypeError, match="shards must be"):
            resolve_shard_config(True)


class TestStackByteEstimates:
    def test_system_stack_nbytes(self):
        # batch (r,r) matrices + batch r-vectors of float64.
        assert system_stack_nbytes(10, 4) == 8 * 10 * (16 + 4)
        with pytest.raises(ValueError):
            system_stack_nbytes(-1, 4)


class TestPlanShards:
    def test_rank_groups_never_mix(self):
        plan = plan_shards(
            sites=["a", "b", "c", "d"],
            ranks=[4, 3, 4, 3],
            stack_bytes=[100, 100, 100, 100],
            config=ShardConfig(max_stack_bytes=None),
        )
        assert plan.shard_count == 2
        by_rank = {shard.rank: shard for shard in plan.shards}
        assert by_rank[4].sites == ("a", "c")
        assert by_rank[3].sites == ("b", "d")
        assert plan.ranks == (4, 3)

    def test_budget_splits_a_rank_group(self):
        plan = plan_shards(
            sites=["a", "b", "c"],
            ranks=[4, 4, 4],
            stack_bytes=[60, 60, 60],
            config=ShardConfig(max_stack_bytes=130),
        )
        assert [shard.sites for shard in plan.shards] == [("a", "b"), ("c",)]
        assert plan.peak_stack_bytes == 120

    def test_oversized_site_gets_singleton_shard(self):
        plan = plan_shards(
            sites=["big", "small"],
            ranks=[4, 4],
            stack_bytes=[999, 10],
            config=ShardConfig(max_stack_bytes=100),
        )
        assert [shard.sites for shard in plan.shards] == [("big",), ("small",)]

    def test_request_order_preserved_within_groups(self):
        plan = plan_shards(
            sites=["s0", "s1", "s2", "s3", "s4"],
            ranks=[5, 4, 5, 4, 5],
            stack_bytes=[1] * 5,
            config=ShardConfig(max_stack_bytes=None),
            indices=[10, 11, 12, 13, 14],
        )
        by_rank = {shard.rank: shard for shard in plan.shards}
        assert by_rank[5].members == (10, 12, 14)
        assert by_rank[4].members == (11, 13)

    def test_parallel_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="parallel"):
            plan_shards(["a"], [4, 4], [10])
        with pytest.raises(ValueError, match="indices"):
            plan_shards(["a"], [4], [10], indices=[1, 2])

    def test_empty_plan(self):
        plan = plan_shards([], [], [])
        assert plan.shard_count == 0
        assert plan.peak_stack_bytes == 0
        assert plan.site_count == 0

    def test_mark_executed(self):
        plan = plan_shards(["a", "b"], [4, 3], [10, 10])
        executed = mark_executed(plan, 1, sweeps=7, fallback=True)
        assert executed.shards[1].sweeps == 7
        assert executed.shards[1].fallback is True
        assert executed.shards[0].sweeps == 0
        assert executed.summary()["fallback_shards"] == 1.0

    def test_plan_json_round_trip(self):
        plan = plan_shards(
            ["a", "b", "c"], [4, 4, 3], [10, 20, 30],
            config=ShardConfig(max_stack_bytes=25),
        )
        plan = mark_executed(plan, 0, sweeps=3)
        assert ShardPlan.from_json(plan.to_json()) == plan

    def test_corrupt_plan_json_rejected(self):
        with pytest.raises(ValueError, match="corrupt shard plan"):
            ShardPlan.from_json({"shards": [{"index": 0}], "max_stack_bytes": None})


class TestServiceSharding:
    @pytest.fixture(scope="class")
    def fleet_requests(self):
        return synthesize_fleet(
            6, link_count=(3, 4), locations_per_link=4, seed=21
        )

    def test_unsharded_plan_is_one_shard_per_rank_group(self, fleet_requests):
        service = UpdateService()
        service.update_fleet(fleet_requests)
        plan = service.last_plan
        assert plan.max_stack_bytes is None
        assert plan.shard_count == 2  # ranks 3 and 4
        assert plan.site_count == len(fleet_requests)

    def test_budget_bounds_peak_stack_bytes(self, fleet_requests):
        unbounded = UpdateService()
        unbounded.update_fleet(fleet_requests)
        budget = unbounded.last_plan.peak_stack_bytes // 2
        sharded = UpdateService()
        sharded.update_fleet(fleet_requests, shards=ShardConfig(max_stack_bytes=budget))
        plan = sharded.last_plan
        assert plan.shard_count > unbounded.last_plan.shard_count
        assert plan.peak_stack_bytes <= budget
        assert plan.site_count == len(fleet_requests)

    def test_every_shard_records_sweeps(self, fleet_requests):
        service = UpdateService()
        service.update_fleet(fleet_requests, shards=1)  # singleton shards
        plan = service.last_plan
        assert plan.shard_count == len(fleet_requests)
        assert all(shard.sweeps >= 1 for shard in plan.shards)
        assert not any(shard.fallback for shard in plan.shards)
        assert service.last_stacked_sweeps == max(s.sweeps for s in plan.shards)

    def test_reports_stay_in_request_order(self, fleet_requests):
        service = UpdateService()
        reports = service.update_fleet(fleet_requests, shards=1)
        assert [r.site for r in reports] == [r.site for r in fleet_requests]

    def test_empty_fleet_clears_plan(self):
        service = UpdateService()
        assert service.update_fleet([]) == []
        assert service.last_plan is None
        assert service.last_stacked_sweeps == 0


class TestShardedDriver:
    def test_sharded_solve_matches_solo_lockstep(self):
        rng = np.random.default_rng(3)
        from repro.core.self_augmented import SelfAugmentedConfig, SweepState

        def make_states():
            states = []
            for k in range(4):
                links, width = 3, 4
                truth = rng_states[k] @ rng_loads[k]
                mask = (masks[k] < 0.7).astype(float)
                config = SelfAugmentedConfig(
                    rank=3,
                    regularization=0.5,
                    max_iterations=5,
                    use_structure_constraint=False,
                )
                states.append(SweepState(truth * mask, mask, width, config=config, rng=k))
            return states

        rng_states = [rng.normal(size=(3, 2)) for _ in range(4)]
        rng_loads = [rng.normal(size=(2, 12)) for _ in range(4)]
        masks = [rng.random((3, 12)) for _ in range(4)]

        states = make_states()
        sharded = [
            result
            for shard in (states[:2], states[2:])
            for result in solve_shard(shard).results
        ]
        solo = [solve_shard([state]).results[0] for state in make_states()]
        for a, b in zip(sharded, solo):
            np.testing.assert_array_equal(a.estimate, b.estimate)

    def test_sweep_stack_nbytes_uses_column_count(self):
        from repro.core.self_augmented import SelfAugmentedConfig, SweepState

        rng = np.random.default_rng(0)
        observed = rng.normal(size=(3, 12))
        mask = np.ones((3, 12))
        state = SweepState(
            observed,
            mask,
            4,
            config=SelfAugmentedConfig(rank=2, use_structure_constraint=False),
        )
        assert sweep_stack_nbytes(state) == system_stack_nbytes(12, 2)
