"""Tests for the plan/schedule cache."""

from collections import Counter

import numpy as np
import pytest

from repro.core.config import SWATConfig
from repro.core.plan import ExecutionPlan
from repro.core.simulator import SWATSimulator
from repro.serving.cache import PlanCache, config_fingerprint
from repro.workload.generator import attention_inputs
from tests.core.schedule_oracle import compiled_row_plans, legacy_row_plans


def _config(**overrides):
    defaults = dict(head_dim=16, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestFingerprint:
    def test_equal_configs_share_fingerprint(self):
        assert config_fingerprint(_config()) == config_fingerprint(_config())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"window_tokens": 16},
            {"num_global_tokens": 2},
            {"num_random_tokens": 2},
            {"random_seed": 1},
            {"head_dim": 32},
        ],
    )
    def test_schedule_relevant_fields_change_fingerprint(self, overrides):
        assert config_fingerprint(_config()) != config_fingerprint(_config(**overrides))

    def test_clock_is_not_part_of_the_fingerprint(self):
        # The clock retimes the pipeline but does not change the schedule.
        assert config_fingerprint(_config()) == config_fingerprint(_config(clock_mhz=450.0))


class TestCounters:
    def test_miss_then_hits(self):
        cache = PlanCache()
        config = _config()
        first = cache.lookup(config, 32)
        again = cache.lookup(config, 32)
        assert first is again
        assert cache.misses == 1
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_distinct_shapes_are_distinct_entries(self):
        cache = PlanCache()
        config = _config()
        cache.lookup(config, 32)
        cache.lookup(config, 48)
        cache.lookup(_config(window_tokens=16), 32)
        assert cache.misses == 3
        assert len(cache) == 3

    def test_counters_snapshot(self):
        cache = PlanCache()
        cache.lookup(_config(), 16)
        cache.lookup(_config(), 16)
        assert cache.counters() == {"hits": 1, "misses": 1, "evictions": 0, "entries": 1}

    def test_clear_preserves_counters(self):
        cache = PlanCache()
        cache.lookup(_config(), 16)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1


class TestEviction:
    def test_size_never_exceeds_bound(self):
        cache = PlanCache(max_entries=4)
        config = _config()
        for seq_len in range(8, 40, 2):
            cache.lookup(config, seq_len)
            assert len(cache) <= 4
        assert cache.evictions == 16 - 4

    def test_lru_order_evicts_least_recent(self):
        cache = PlanCache(max_entries=2)
        config = _config()
        cache.lookup(config, 16)
        cache.lookup(config, 24)
        cache.lookup(config, 16)  # refresh 16 -> 24 is now LRU
        cache.lookup(config, 32)  # evicts 24
        hits_before = cache.hits
        cache.lookup(config, 16)
        assert cache.hits == hits_before + 1
        cache.lookup(config, 24)
        assert cache.misses == 4  # 16, 24, 32, and 24 again after eviction

    def test_invalid_bound_raises(self):
        with pytest.raises(ValueError):
            PlanCache(max_entries=0)


class TestCachedPlanCorrectness:
    def test_cached_plans_equal_fresh_plans(self):
        cache = PlanCache()
        config = _config(num_global_tokens=2, num_random_tokens=2)
        plan = cache.lookup(config, 40)
        assert plan.seq_len == 40
        assert compiled_row_plans(plan) == legacy_row_plans(config, 40)

    def test_hit_returns_the_identical_execution_plan(self):
        cache = PlanCache()
        config = _config(num_random_tokens=2)
        miss = cache.lookup(config, 24)
        hit = cache.lookup(config, 24)
        assert isinstance(miss, ExecutionPlan)
        assert hit is miss
        assert (cache.misses, cache.hits) == (1, 1)

    def test_cached_plan_output_bit_identical(self):
        """A cache-served simulation equals an uncached one bit for bit."""
        config = _config(num_global_tokens=2, num_random_tokens=2)
        q, k, v = attention_inputs(48, 16, seed=5)
        cold = SWATSimulator(config).run(q, k, v)
        cache = PlanCache()
        cached_simulator = SWATSimulator(config, plan_cache=cache)
        warm_first = cached_simulator.run(q, k, v)
        warm_second = cached_simulator.run(q, k, v)
        assert np.array_equal(cold.output, warm_first.output)
        assert np.array_equal(cold.output, warm_second.output)
        assert cache.hits >= 1

    def test_cached_traffic_identical(self):
        config = _config(num_random_tokens=2)
        q, k, v = attention_inputs(40, 16, seed=6)
        cold = SWATSimulator(config).run(q, k, v)
        warm = SWATSimulator(config, plan_cache=PlanCache()).run(q, k, v)
        assert cold.traffic == warm.traffic

    def test_estimate_traffic_uses_cache(self):
        cache = PlanCache()
        simulator = SWATSimulator(_config(), plan_cache=cache)
        first = simulator.estimate_traffic(64)
        second = simulator.estimate_traffic(64)
        assert first == second
        assert cache.hits == 1
        assert cache.misses == 1


def _traced_cache():
    """A cache whose ``lookup`` is wrapped on the instance, like a span tracer."""
    cache = PlanCache()
    original = cache.lookup
    returned = []

    def lookup(config, seq_len):
        plan = original(config, seq_len)
        returned.append(plan)
        return plan

    cache.lookup = lookup
    return cache, returned


class TestLookupIsTheOneEntryPoint:
    """Every plan resolution goes through ``PlanCache.lookup`` on the instance.

    A tracer that wraps ``lookup`` must see each hit and miss the counters
    record — no consumer may reach a schedule through another method.
    """

    def _assert_routed(self, cache, returned):
        assert returned, "no plan resolved through lookup"
        assert len(returned) == cache.hits + cache.misses
        assert all(isinstance(plan, ExecutionPlan) for plan in returned)

    def test_simulator_resolve_plan(self):
        cache, returned = _traced_cache()
        simulator = SWATSimulator(_config(num_random_tokens=2), plan_cache=cache)
        simulator.resolve_plan(32)
        simulator.run(*attention_inputs(32, 16, seed=0))
        simulator.estimate_traffic(48)
        assert len(returned) == 3
        self._assert_routed(cache, returned)

    def test_model_plan_compiler(self):
        from repro.model.plan import ModelPlanCompiler
        from repro.model.spec import LayerGeometry, ModelSpec

        cache, returned = _traced_cache()
        spec = ModelSpec(
            seq_len=24,
            layers=(LayerGeometry(window_tokens=8), LayerGeometry(window_tokens=4)),
            num_heads=2,
            head_dim=16,
        )
        ModelPlanCompiler(base_config=_config(), plan_cache=cache).compile(spec)
        assert len(returned) == 2  # one lookup per distinct layer geometry
        self._assert_routed(cache, returned)

    @pytest.mark.parametrize("name", ["simulator", "fused"])
    def test_backend_execute_batch(self, name):
        from repro.model.spec import ModelSpec
        from repro.serving.backends import create_backend
        from repro.serving.request import make_forward_request, make_request

        cache, returned = _traced_cache()
        config = _config()
        backend = create_backend(name, config=config, plan_cache=cache)
        spec = ModelSpec.uniform(2, 24, window_tokens=8, num_heads=2, head_dim=16)
        batch = [
            make_request(32, 16, seed=0),
            make_request(32, 16, seed=1, num_heads=2),
            make_request(48, 16, seed=2),
            make_forward_request(spec),
        ]
        result = backend.execute_batch(batch)
        assert all(output is not None for output in result.outputs)
        self._assert_routed(cache, returned)
        assert {plan.seq_len for plan in returned} == {24, 32, 48}
        # One pass serves outputs and traffic: one lookup per distinct
        # attention seq_len per dispatch (24 is the forward's own compile).
        attention_lookups = Counter(plan.seq_len for plan in returned if plan.seq_len != 24)
        assert attention_lookups == {32: 1, 48: 1}
