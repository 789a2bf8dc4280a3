"""Tests for the drain serving engine and its accounting."""

import asyncio
import time

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.attention.masks import swat_window_mask
from repro.core.config import SWATConfig
from repro.serving.cache import PlanCache
from repro.serving.engine import ServingEngine
from repro.serving.request import AttentionRequest, make_requests
from repro.telemetry import EventBus
from repro.telemetry.events import to_record

#: Event fields stamped from the host wall clock; ``stats`` is run_finished's
#: copy of the run's stats, whose queue and latency percentiles are wall time.
WALL_CLOCK_FIELDS = ("admit_time", "finish_time", "time", "wall_seconds", "stats")


def _config(**overrides):
    defaults = dict(head_dim=16, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


class TestFunctionalServing:
    def test_served_outputs_match_reference(self):
        config = _config()
        engine = ServingEngine(config=config, backend="simulator", num_shards=2, max_batch_size=2)
        requests = make_requests([24, 24, 32, 32, 24], config.head_dim, seed=0)
        result = engine.serve(requests)
        assert len(result.completed) == len(requests)
        for request, done in zip(requests, result.completed):
            assert done.request.request_id == request.request_id
            expected = dense_attention(
                request.q,
                request.k,
                request.v,
                mask=swat_window_mask(request.seq_len, config.window_tokens),
            )
            np.testing.assert_allclose(done.output, expected, atol=1e-9)

    def test_output_for_lookup(self):
        config = _config()
        engine = ServingEngine(config=config, backend="simulator", num_shards=1)
        requests = make_requests([16, 24], config.head_dim, seed=1)
        result = engine.serve(requests)
        assert np.array_equal(result.output_for(requests[1]), result.completed[1].output)
        with pytest.raises(KeyError):
            result.output_for(AttentionRequest(seq_len=16))

    def test_shared_plan_cache_across_shards(self):
        config = _config()
        engine = ServingEngine(config=config, backend="simulator", num_shards=3, max_batch_size=1)
        requests = make_requests([32] * 6, config.head_dim, seed=2)
        result = engine.serve(requests)
        # One build for the shape, every other lookup is a pool-wide hit.
        assert result.stats.cache_misses == 1
        assert result.stats.cache_hits == 5
        assert result.stats.cache_hit_rate == pytest.approx(5 / 6)


class TestInsideEventLoop:
    def test_serve_from_a_running_event_loop(self):
        """The drain loop is plain synchronous code, so async callers can call it."""
        config = _config()
        engine = ServingEngine(config=config, backend="analytical", num_shards=2)

        async def drive():
            requests = [AttentionRequest(seq_len=64) for _ in range(8)]
            return engine.serve(requests)

        result = asyncio.run(drive())
        assert result.stats.num_requests == 8
        assert all(done.output is None for done in result.completed)


class TestDrainLoop:
    def _serve_logged(self, requests):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        engine = ServingEngine(
            config=_config(),
            backend="simulator",
            num_shards=3,
            max_batch_size=2,
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        )
        result = engine.serve(requests)
        records = [to_record(event) for event in events]
        for record in records:
            for name in WALL_CLOCK_FIELDS:
                record.pop(name, None)
        return result, records

    def test_repeated_serves_are_identical_off_the_wall_clock(self):
        requests = make_requests([24, 32, 48, 24, 64, 32, 24, 48], 16, seed=3)
        first, first_events = self._serve_logged(requests)
        second, second_events = self._serve_logged(requests)
        assert first.batches == second.batches
        assert {record.shard for record in first.batches} == {0, 1, 2}
        assert first.stats.total_energy_joules == second.stats.total_energy_joules
        assert first.stats.shard_busy_seconds == second.stats.shard_busy_seconds
        assert first_events == second_events

    def test_paced_arrival_during_a_batch_counts_as_queueing(self):
        config = _config()
        requests = make_requests(
            [24, 24], config.head_dim, functional=False, arrival_times=[0.0, 0.01]
        )
        engine = ServingEngine(config=config, backend="analytical", num_shards=1, max_batch_size=1)
        shard = engine.shards[0]
        execute_batch = shard.execute_batch

        def slow_execute_batch(batch_requests):
            time.sleep(0.05)
            return execute_batch(batch_requests)

        shard.execute_batch = slow_execute_batch
        result = engine.serve(requests)
        second = result.completed[1]
        assert second.arrival_time == 0.01
        # It arrived 10 ms in, but its batch could only start once the first
        # one's 50 ms execution returned.
        assert second.queue_seconds >= 0.03


class TestAccounting:
    def test_empty_request_set(self):
        engine = ServingEngine(config=_config(), backend="analytical")
        result = engine.serve([])
        assert result.stats.num_requests == 0
        assert result.stats.num_batches == 0
        assert result.stats.requests_per_second == 0.0
        assert result.stats.device_makespan_seconds == 0.0

    def test_batch_and_shard_accounting(self):
        engine = ServingEngine(
            config=_config(), backend="analytical", num_shards=2, max_batch_size=4
        )
        requests = [AttentionRequest(seq_len=64) for _ in range(8)]
        result = engine.serve(requests)
        stats = result.stats
        assert stats.num_batches == 2
        assert stats.mean_batch_size == 4
        assert stats.batch_occupancy == 1.0
        assert len(stats.shard_busy_seconds) == 2
        # Two equal batches on two shards: both busy, perfectly balanced.
        assert stats.shard_busy_seconds[0] == pytest.approx(stats.shard_busy_seconds[1])
        assert stats.device_makespan_seconds == pytest.approx(max(stats.shard_busy_seconds))
        assert {record.shard for record in result.batches} == {0, 1}

    def test_makespan_throughput_definition(self):
        engine = ServingEngine(config=_config(), backend="analytical", num_shards=2)
        requests = [AttentionRequest(seq_len=48) for _ in range(6)]
        stats = engine.serve(requests).stats
        assert stats.requests_per_second == pytest.approx(6 / stats.device_makespan_seconds)
        assert stats.wall_seconds > 0
        assert stats.total_energy_joules > 0

    def test_stats_table_renders(self):
        engine = ServingEngine(config=_config(), backend="analytical", num_shards=1)
        stats = engine.serve([AttentionRequest(seq_len=32)]).stats
        text = stats.render()
        assert "requests/sec (device)" in text
        assert "analytical" in text


class TestThroughputScaling:
    def test_batched_multi_shard_beats_sequential_single_shard(self):
        """The acceptance property, at unit-test scale (see benchmarks too)."""
        config = _config()
        requests = [AttentionRequest(seq_len=64) for _ in range(16)]
        batched = ServingEngine(
            config=config, backend="analytical", num_shards=4, max_batch_size=4
        ).serve(requests)
        sequential = ServingEngine(
            config=config, backend="analytical", num_shards=1, max_batch_size=1
        ).serve(requests)
        assert batched.stats.requests_per_second > sequential.stats.requests_per_second

    def test_invalid_shard_count_raises(self):
        with pytest.raises(ValueError):
            ServingEngine(config=_config(), num_shards=0)


class TestArrivalPacing:
    """Drain mode honours AttentionRequest.arrival_time with wall-clock pacing."""

    def test_zero_arrivals_skip_pacing(self):
        config = _config()
        requests = make_requests([24] * 8, config.head_dim, functional=False)
        assert all(request.arrival_time == 0.0 for request in requests)
        engine = ServingEngine(config=config, backend="analytical", max_batch_size=4)
        start = time.monotonic()
        result = engine.serve(requests)
        assert time.monotonic() - start < 1.0
        assert len(result.completed) == len(requests)

    def test_paced_arrivals_stretch_the_run(self):
        config = _config()
        arrivals = [0.0, 0.05, 0.1, 0.15]
        requests = make_requests(
            [24] * 4, config.head_dim, functional=False, arrival_times=arrivals
        )
        engine = ServingEngine(config=config, backend="analytical", max_batch_size=1)
        start = time.monotonic()
        result = engine.serve(requests)
        elapsed = time.monotonic() - start
        assert elapsed >= 0.15  # the last request cannot be admitted before it arrives
        assert len(result.completed) == 4
        # Lifecycle stamps respect arrival <= admit <= finish for every request.
        for done in result.completed:
            assert done.arrival_time <= done.admit_time <= done.finish_time

    def test_paced_arrivals_are_admitted_in_arrival_order(self):
        config = _config()
        arrivals = [0.03, 0.0, 0.02, 0.01]
        requests = make_requests(
            [24] * 4, config.head_dim, functional=False, arrival_times=arrivals
        )
        engine = ServingEngine(config=config, backend="analytical", max_batch_size=1)
        result = engine.serve(requests)
        admitted = sorted(result.completed, key=lambda done: done.admit_time)
        assert [done.request.arrival_time for done in admitted] == sorted(arrivals)

    def test_paced_run_reports_latency_percentiles(self):
        config = _config()
        requests = make_requests(
            [24, 32, 24, 32],
            config.head_dim,
            functional=False,
            arrival_times=[0.0, 0.001, 0.002, 0.003],
        )
        engine = ServingEngine(config=config, backend="analytical", max_batch_size=2)
        stats = engine.serve(requests).stats
        assert stats.latency_p95_seconds >= stats.latency_p50_seconds > 0
        assert "latency p50 [s]" in stats.render()
