"""Property suite for continuous batching and its simulated-clock harness.

The load-bearing contracts of iteration-level scheduling:

* **Bit-identity** — for any seeded arrival trace, continuous-mode outputs
  are bit-identical per request to running each request alone through the
  same backend (the stacked executor's contract carried through admission
  and retirement).
* **Conservation** — every admitted request retires exactly once, occupancy
  never exceeds ``max_batch_size``, rows advanced sum to each request's
  total, and per-iteration priced cycles sum to the batch total a drained
  stream of the same gating rows would cost (no double-charged fill).
* **Determinism** — the same seeded trace replays the same iterations,
  clocks and stats bit-for-bit; no scheduling decision reads the wall clock.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dataclasses import fields
from unittest import mock

from repro.core.config import SWATConfig
from repro.core.pipeline import SWATPipelineModel
from repro.model import ModelSpec
from repro.serving import continuous
from repro.serving.backends import create_backend
from repro.serving.cache import KVResidency, PlanCache
from repro.serving.continuous import (
    SCHEDULERS,
    ContinuousBatcher,
    ServingClock,
    bursty_arrivals,
    compare_modes,
    diurnal_arrivals,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.serving.engine import ServingEngine
from repro.serving.request import (
    AttentionRequest,
    make_decode_request,
    make_forward_request,
    make_requests,
)
from repro.serving.stats import ServingStats, percentile
from repro.telemetry import EventBus
from repro.telemetry.events import to_record

HEAD_DIM = 8


def _config(**overrides):
    defaults = dict(head_dim=HEAD_DIM, window_tokens=8)
    defaults.update(overrides)
    return SWATConfig(**defaults)


# One trace spec: sequence lengths (mixed, spanning buckets), arrival seed,
# slot count and iteration quantum — everything the scheduler branches on.
trace_strategy = st.tuples(
    st.lists(st.sampled_from([5, 8, 16, 24, 33, 48]), min_size=1, max_size=12),
    st.integers(0, 2**16),
    st.integers(1, 4),
    st.sampled_from([4, 16, 64]),
)


def _trace_requests(seq_lens, arrival_seed, functional=True, rate=None):
    config = _config()
    if rate is None:
        rate = 3.0 * swat_request_rate(config, seq_lens)
    arrivals = poisson_arrivals(len(seq_lens), rate, seed=arrival_seed)
    return make_requests(
        seq_lens,
        config.head_dim,
        seed=arrival_seed,
        functional=functional,
        arrival_times=arrivals,
    )


class TestBitIdentity:
    @settings(deadline=None, max_examples=25)
    @given(trace=trace_strategy)
    def test_outputs_match_solo_execution_bitwise(self, trace):
        seq_lens, arrival_seed, max_batch_size, iteration_rows = trace
        config = _config()
        requests = _trace_requests(seq_lens, arrival_seed)
        result = serve_continuous(
            requests,
            config=config,
            backend="simulator",
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
        )
        solo = create_backend("simulator", config=config)
        assert len(result.completed) == len(requests)
        for done in result.completed:
            reference = solo.execute(done.request).outputs[0]
            assert np.array_equal(done.output, reference)

    def test_outputs_match_drain_engine_bitwise(self):
        config = _config()
        requests = _trace_requests([16, 24, 33, 16, 48, 8], arrival_seed=7)
        continuous = serve_continuous(
            requests, config=config, backend="simulator", max_batch_size=3, iteration_rows=16
        )
        drain = ServingEngine(
            config=config, backend="simulator", num_shards=1, max_batch_size=3
        ).serve(requests)
        for cont_done, drain_done in zip(continuous.completed, drain.completed):
            assert cont_done.request.request_id == drain_done.request.request_id
            assert np.array_equal(cont_done.output, drain_done.output)


class TestConservation:
    @settings(deadline=None, max_examples=25)
    @given(trace=trace_strategy, num_shards=st.integers(1, 3))
    def test_invariants_hold_for_any_trace(self, trace, num_shards):
        seq_lens, arrival_seed, max_batch_size, iteration_rows = trace
        config = _config()
        requests = _trace_requests(seq_lens, arrival_seed, functional=False)
        result = serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
        )
        pipeline = SWATPipelineModel(config)
        backend = create_backend("analytical", config=config)

        # Every submitted request is admitted exactly once and retires
        # exactly once.
        admitted = [rid for record in result.iterations for rid in record.admitted]
        retired = [rid for record in result.iterations for rid in record.retired]
        expected_ids = sorted(request.request_id for request in requests)
        assert sorted(admitted) == expected_ids
        assert sorted(retired) == expected_ids

        # Occupancy never exceeds the slot bound.
        for record in result.iterations:
            assert 1 <= len(record.resident) <= max_batch_size
            assert record.occupancy == len(record.resident) / max_batch_size

        # Each request's slices sum to its total row work.
        rows_advanced: "dict[int, int]" = {}
        for record in result.iterations:
            for request_id, rows in record.resident:
                assert 0 < rows <= iteration_rows
                rows_advanced[request_id] = rows_advanced.get(request_id, 0) + rows
        for request in requests:
            assert rows_advanced[request.request_id] == backend.request_rows(request)

        # No double-charged fill: per busy period, the per-iteration cycles
        # sum bit-exactly to what one drained stream of the same gating rows
        # would cost (fill + (rows - 1) * II).
        for shard in range(num_shards):
            period_cycles = 0
            period_rows = 0
            for record in result.iterations:
                if record.shard != shard:
                    continue
                if not record.primed and period_rows:
                    assert period_cycles == pipeline.cycles_for_rows(period_rows)
                    period_cycles = period_rows = 0
                period_cycles += record.cycles
                period_rows += record.gate_rows
            if period_rows:
                assert period_cycles == pipeline.cycles_for_rows(period_rows)

    def test_solo_request_costs_exactly_one_dispatch(self):
        # Slicing a lone request across iterations must not change its
        # modelled cost: the fill is paid once, then rows stream at the II —
        # bit-exactly the batch-of-one pricing of the drain path
        # (``batch_attention_cycles``, heads streamed back to back).
        config = _config()
        request = AttentionRequest(seq_len=100, num_heads=3, arrival_time=0.0)
        result = serve_continuous(
            [request], config=config, backend="analytical", iteration_rows=17
        )
        pipeline = SWATPipelineModel(config)
        total_cycles = sum(record.cycles for record in result.iterations)
        assert total_cycles == pipeline.batch_attention_cycles(
            [(request.seq_len, request.num_heads)]
        )


class TestDeterminism:
    def test_same_trace_replays_bit_for_bit(self):
        config = _config()
        requests_a = _trace_requests([16, 33, 8, 48, 24, 16], arrival_seed=11)
        requests_b = _trace_requests([16, 33, 8, 48, 24, 16], arrival_seed=11)
        results = [
            serve_continuous(
                requests,
                config=config,
                backend="analytical",
                num_shards=2,
                max_batch_size=2,
                iteration_rows=16,
            )
            for requests in (requests_a, requests_b)
        ]
        first, second = results
        assert first.stats.device_makespan_seconds == second.stats.device_makespan_seconds
        assert first.stats.latency_p95_seconds == second.stats.latency_p95_seconds
        assert len(first.iterations) == len(second.iterations)
        for record_a, record_b in zip(first.iterations, second.iterations):
            assert record_a.shard == record_b.shard
            assert record_a.cycles == record_b.cycles
            assert record_a.gate_rows == record_b.gate_rows
            assert [rows for _, rows in record_a.resident] == [
                rows for _, rows in record_b.resident
            ]

    def test_seeded_arrival_generators_replay(self):
        assert poisson_arrivals(16, rate=100.0, seed=3) == poisson_arrivals(
            16, rate=100.0, seed=3
        )
        first = bursty_arrivals(16, burst_size=4, burst_gap=0.5, seed=3, jitter=0.01)
        second = bursty_arrivals(16, burst_size=4, burst_gap=0.5, seed=3, jitter=0.01)
        assert first == second
        arrivals = poisson_arrivals(64, rate=10.0, seed=0)
        assert arrivals == sorted(arrivals)
        assert all(instant >= 0 for instant in arrivals)

    def test_diurnal_arrivals_replay_sorted_and_validated(self):
        first = diurnal_arrivals(64, mean_rate=50.0, period=1.0, seed=7)
        second = diurnal_arrivals(64, mean_rate=50.0, period=1.0, seed=7)
        assert first == second
        assert first == sorted(first)
        assert len(first) == 64 and all(instant >= 0 for instant in first)
        assert diurnal_arrivals(0, mean_rate=1.0, period=1.0) == []
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=1.5)
        with pytest.raises(ValueError, match="period"):
            diurnal_arrivals(4, mean_rate=1.0, period=0.0)
        with pytest.raises(ValueError, match="mean_rate"):
            diurnal_arrivals(4, mean_rate=0.0, period=1.0)

    def test_diurnal_arrivals_cluster_in_the_daytime_half(self):
        # rate(t) = mean * (1 + sin(2 pi t / period)): with near-full
        # modulation, the rising half of each cycle must hold far more
        # arrivals than the overnight trough half.
        period = 2.0
        arrivals = diurnal_arrivals(
            512, mean_rate=256.0, period=period, amplitude=0.95, seed=1
        )
        day = sum(1 for instant in arrivals if (instant % period) < period / 2)
        night = len(arrivals) - day
        assert day > 3 * night

    def test_degenerate_arrival_parameters_rejected(self):
        # amplitude=1 zeroes the trough rate: the cumulative rate plateaus
        # and its inversion degenerates, so exactly 1.0 is out of domain.
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=1.0)
        with pytest.raises(ValueError, match="amplitude"):
            diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=-0.1)
        # The [0, 1) boundary itself stays valid.
        assert len(diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=0.0)) == 4
        assert len(diurnal_arrivals(4, mean_rate=1.0, period=1.0, amplitude=0.999)) == 4
        with pytest.raises(ValueError, match="jitter"):
            bursty_arrivals(4, burst_size=2, burst_gap=0.5, jitter=-0.01)
        with pytest.raises(ValueError, match="burst_gap"):
            bursty_arrivals(4, burst_size=2, burst_gap=0.0)
        with pytest.raises(ValueError, match="burst_gap"):
            bursty_arrivals(4, burst_size=2, burst_gap=-1.0)
        with pytest.raises(ValueError, match="burst_size"):
            bursty_arrivals(4, burst_size=0, burst_gap=0.5)


class _LoggedResidency(KVResidency):
    """KV residency that logs every call, so tests can compare call order."""

    def __init__(self):
        super().__init__()
        self.ops = []

    def admit(self, request_id, resident_bytes):
        self.ops.append(("admit", request_id))
        super().admit(request_id, resident_bytes)

    def touch(self, request_id, steps):
        self.ops.append(("touch", request_id, steps))
        super().touch(request_id, steps)

    def release(self, request_id):
        self.ops.append(("release", request_id))
        super().release(request_id)


class TestSchedulerEquivalence:
    """The event-driven scheduler is a bit-exact drop-in for the reference loop.

    This is the tentpole contract of the vectorized scheduler: for any seeded
    trace it must reproduce the quantum-stepped reference loop's every
    accounting bit — the :class:`ServingStats` fields, the per-iteration
    records, and the telemetry event stream (``wall_seconds`` excepted, since
    it reads the host clock).
    """

    def _run_both(self, requests, cache_entries=None, **kwargs):
        runs = {}
        for scheduler in SCHEDULERS:
            bus = EventBus()
            events = []
            bus.subscribe(events.append)
            if cache_entries is not None:
                kwargs["plan_cache"] = PlanCache(max_entries=cache_entries, bus=bus)
            residency = _LoggedResidency()
            with mock.patch.object(continuous, "KVResidency", lambda: residency):
                result = serve_continuous(list(requests), scheduler=scheduler, bus=bus, **kwargs)
            runs[scheduler] = (
                result,
                [to_record(event) for event in events],
                residency.ops + [("peak", residency.peak_bytes)],
            )
        return runs["event"], runs["reference"]

    @staticmethod
    def _assert_equivalent(event_run, reference_run):
        event_result, event_log, event_kv = event_run
        reference_result, reference_log, reference_kv = reference_run
        # KV residency is settled in the reference loop's order: the same
        # admit/touch/release sequence, hence the same peak.
        assert event_kv == reference_kv
        for spec in fields(ServingStats):
            if spec.name == "wall_seconds":
                continue
            event_value = getattr(event_result.stats, spec.name)
            reference_value = getattr(reference_result.stats, spec.name)
            assert event_value == reference_value, (
                f"stats.{spec.name}: event {event_value!r} != "
                f"reference {reference_value!r}"
            )
        assert event_result.iterations == reference_result.iterations
        assert [done.request.request_id for done in event_result.completed] == [
            done.request.request_id for done in reference_result.completed
        ]
        assert [done.finish_time for done in event_result.completed] == [
            done.finish_time for done in reference_result.completed
        ]
        assert len(event_log) == len(reference_log)
        for event_record, reference_record in zip(event_log, reference_log):
            if event_record["kind"] == "run_finished":
                event_record, reference_record = (
                    {
                        **record,
                        "wall_seconds": 0.0,
                        "stats": {**record["stats"], "wall_seconds": 0.0},
                    }
                    for record in (event_record, reference_record)
                )
            assert event_record == reference_record

    @settings(deadline=None, max_examples=30)
    @given(
        trace=trace_strategy,
        num_shards=st.integers(1, 3),
        policy=st.sampled_from(["fcfs", "sjf"]),
        admission=st.sampled_from(["continuous", "drain"]),
        # GPU bursts price energy off per-shape reports, not power x seconds,
        # and dense-FPGA runs its own clock: the energy chained at pricing
        # time must reproduce the reference bits on each of them too.
        backend=st.sampled_from(["analytical", "gpu-dense", "gpu-chunked", "dense-fpga"]),
    )
    def test_event_scheduler_matches_reference_bitwise(
        self, trace, num_shards, policy, admission, backend
    ):
        seq_lens, arrival_seed, max_batch_size, iteration_rows = trace
        config = _config()
        event_run, reference_run = self._run_both(
            _trace_requests(seq_lens, arrival_seed, functional=False),
            config=config,
            backend=backend,
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
            policy=policy,
            admission=admission,
        )
        self._assert_equivalent(event_run, reference_run)

    def test_equivalence_holds_on_a_diurnal_functional_trace(self):
        # A functional backend adds plan-cache lookups to the stream and
        # real outputs to the completions; both must still line up exactly.
        config = _config()
        seq_lens = [16, 24, 33, 8, 48, 16, 24, 33] * 3
        rate = 3.0 * swat_request_rate(config, seq_lens, max_batch_size=3)
        arrivals = diurnal_arrivals(
            len(seq_lens), rate, period=len(seq_lens) / rate / 3.0, seed=13
        )
        event_run, reference_run = self._run_both(
            make_requests(seq_lens, config.head_dim, seed=13, arrival_times=arrivals),
            config=config,
            backend="simulator",
            num_shards=2,
            max_batch_size=3,
            iteration_rows=16,
        )
        self._assert_equivalent(event_run, reference_run)
        for event_done, reference_done in zip(
            event_run[0].completed, reference_run[0].completed
        ):
            assert np.array_equal(event_done.output, reference_done.output)

    @settings(deadline=None, max_examples=20)
    @given(
        kinds=st.lists(
            st.sampled_from(["attention", "forward", "decode"]), min_size=2, max_size=10
        ),
        arrival_seed=st.integers(0, 2**16),
        load=st.sampled_from([0.5, 4.0]),
        paired=st.booleans(),
        num_shards=st.integers(2, 4),
        max_batch_size=st.integers(1, 3),
        iteration_rows=st.sampled_from([4, 16, 64]),
        policy=st.sampled_from(["fcfs", "sjf"]),
        cache_entries=st.sampled_from([2, 64]),
    )
    # A decode retiring on one shard while the other admits the next: the
    # release must land after that admission, as in the reference loop.
    @example(
        kinds=["attention", "decode", "decode"],
        arrival_seed=0,
        load=0.5,
        paired=False,
        num_shards=2,
        max_batch_size=1,
        iteration_rows=4,
        policy="fcfs",
        cache_entries=2,
    )
    def test_mixed_multi_shard_traces_match_reference_bitwise(
        self,
        kinds,
        arrival_seed,
        load,
        paired,
        num_shards,
        max_batch_size,
        iteration_rows,
        policy,
        cache_entries,
    ):
        # Shards run ahead of each other, so retirement-time plan-cache
        # lookups (functional attention and forwards, on a cache small
        # enough to evict), KV residency and every event must still come
        # out in the reference loop's order.  Paired arrivals start shards
        # at the same instant, so iteration keys tie on time and the merge
        # must break them on the shard index.
        config = _config()
        specs = [
            ModelSpec.uniform(2, seq_len, window_tokens=8, num_heads=2, head_dim=HEAD_DIM)
            for seq_len in (16, 24)
        ]
        rate = load * swat_request_rate(
            config, [24], num_shards=num_shards, max_batch_size=max_batch_size, num_heads=2
        )
        arrivals = poisson_arrivals(len(kinds), rate, seed=arrival_seed)
        if paired:
            arrivals = [arrivals[index - index % 2] for index in range(len(arrivals))]
        requests = []
        for index, (kind, arrival) in enumerate(zip(kinds, arrivals)):
            spec = specs[index % 2]
            if kind == "attention":
                seq_len = (8, 16, 24, 33)[index % 4]
                requests.append(
                    make_requests(
                        [seq_len], HEAD_DIM, seed=arrival_seed + index, arrival_times=[arrival]
                    )[0]
                )
            elif kind == "forward":
                requests.append(make_forward_request(spec, seed=index, arrival_time=arrival))
            else:
                requests.append(
                    make_decode_request(
                        spec,
                        new_tokens=(4, 8)[index % 2],
                        block_size=1 + index % 3,
                        arrival_time=arrival,
                    )
                )
        event_run, reference_run = self._run_both(
            requests,
            cache_entries=cache_entries,
            config=config,
            backend="simulator",
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=iteration_rows,
            policy=policy,
        )
        self._assert_equivalent(event_run, reference_run)
        for event_done, reference_done in zip(event_run[0].completed, reference_run[0].completed):
            assert event_done.shard == reference_done.shard
            if reference_done.output is None:
                assert event_done.output is None
            else:
                assert np.array_equal(event_done.output, reference_done.output)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="scheduler"):
            serve_continuous(
                [], config=_config(), backend="analytical", scheduler="fifo"
            )


class TestShardDecoupledBursts:
    """A shard's burst is cut only at its own scheduling events.

    ``step_burst`` is wrapped on each backend instance handed in (as the
    benchmark tracer does), so the tests count the priced bursts directly.
    """

    @staticmethod
    def _counted_backends(num_shards, config):
        cache = PlanCache()
        backends = [
            create_backend("analytical", config=config, plan_cache=cache)
            for _ in range(num_shards)
        ]
        calls = []
        for shard, backend in enumerate(backends):

            def counted(*args, _shard=shard, _price=backend.step_burst, **kwargs):
                calls.append(_shard)
                return _price(*args, **kwargs)

            backend.step_burst = counted
        return backends, cache, calls

    def _serve(self, requests, num_shards, max_batch_size, scheduler="event"):
        config = _config()
        backends, cache, calls = self._counted_backends(num_shards, config)
        result = serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=16,
            plan_cache=cache,
            backends=backends,
            scheduler=scheduler,
        )
        return result, calls

    def test_two_busy_shards_price_one_burst_each(self):
        requests = [AttentionRequest(seq_len=512, arrival_time=0.0) for _ in range(2)]
        result, calls = self._serve(requests, num_shards=2, max_batch_size=1)
        reference, reference_calls = self._serve(
            requests, num_shards=2, max_batch_size=1, scheduler="reference"
        )
        assert sorted(calls) == [0, 1]
        assert len(reference_calls) == result.stats.num_iterations == 64
        assert result.iterations == reference.iterations

    def test_staggered_shards_burst_once_per_scheduling_event(self):
        # Three (short, long) pairs, each arriving while the earlier shards
        # are full, so every pair lands on its own shard.  Each shard prices
        # one burst at its admission and one at the short request's
        # retirement — however its iterations interleave with the others'.
        requests = [
            AttentionRequest(seq_len=seq_len, arrival_time=pair * 1e-9)
            for pair in range(3)
            for seq_len in (64, 256)
        ]
        result, calls = self._serve(requests, num_shards=3, max_batch_size=2)
        reference, _ = self._serve(requests, num_shards=3, max_batch_size=2, scheduler="reference")
        assert result.iterations == reference.iterations
        assert [done.shard for done in result.completed] == [0, 0, 1, 1, 2, 2]
        admissions = {(done.shard, done.admit_time) for done in result.completed}
        continuing = {
            (done.shard, done.finish_time)
            for done in result.completed
            if any(
                other.shard == done.shard and other.finish_time > done.finish_time
                for other in result.completed
            )
        }
        assert len(calls) == len(admissions) + len(continuing) == 6
        assert result.stats.num_iterations == 48
        # The shards' iterations interleave in the merged record stream.
        shards = [record.shard for record in result.iterations]
        assert shards[:3] == [0, 1, 2]


class TestEnergyChainedAtPricing:
    """``total_energy`` takes the energy row chained when a burst is priced.

    The merge re-chains a run's energies (``_chained_sum``) only when another
    shard's iterations were merged into ``total_energy`` since the burst was
    priced; both branches must land on the reference loop's bits.
    """

    @staticmethod
    def _serve_both(requests, **kwargs):
        with (
            mock.patch.object(continuous, "_chained_sum", wraps=continuous._chained_sum) as chained,
            mock.patch.object(continuous, "_merge_run", wraps=continuous._merge_run) as runs,
        ):
            event = serve_continuous(list(requests), scheduler="event", **kwargs)
        reference = serve_continuous(list(requests), scheduler="reference", **kwargs)
        for spec in fields(ServingStats):
            if spec.name == "wall_seconds":
                continue
            value = getattr(event.stats, spec.name)
            assert value == getattr(reference.stats, spec.name), spec.name
        assert event.iterations == reference.iterations
        merged = [call.args[1] for call in runs.call_args_list]
        return chained.call_count, merged

    def test_one_shard_never_rechains_energy(self):
        # A saturated Poisson trace on one device with free slots: arrivals
        # cut bursts short, and every merged run still takes the chained row.
        config = _config()
        seq_lens = [16, 24, 33, 48, 8, 64] * 6
        rate = 3.0 * swat_request_rate(config, seq_lens, max_batch_size=3)
        requests = make_requests(
            seq_lens,
            config.head_dim,
            functional=False,
            arrival_times=poisson_arrivals(len(seq_lens), rate, seed=5),
        )
        calls, merged = self._serve_both(
            requests, config=config, backend="analytical", max_batch_size=3, iteration_rows=4
        )
        assert calls == 0
        assert any(len(buffered.starts) < buffered.burst.iterations for buffered in merged)

    def test_interleaved_shards_fall_back_to_rechaining(self):
        # A long request holds shard 0 while a short one runs on shard 1
        # mid-burst: shard 0's iterations after the overlap merge onto a
        # total that includes shard 1's energy, so they re-chain.
        config = _config()
        pipeline = SWATPipelineModel(config)
        iteration_seconds = 16 * pipeline.initiation_interval * config.clock_period_s
        requests = [
            AttentionRequest(seq_len=1024, arrival_time=0.0),
            AttentionRequest(seq_len=64, arrival_time=3.5 * iteration_seconds),
        ]
        calls, _ = self._serve_both(
            requests,
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=1,
            iteration_rows=16,
        )
        assert calls >= 1


class TestHeadOfLineBlocking:
    def test_continuous_beats_drain_on_mixed_lengths(self):
        # The motivating scenario: short requests stuck behind a long one.
        config = _config()
        seq_lens = [8, 8, 8, 48] * 16
        rate = 4.0 * swat_request_rate(config, seq_lens, max_batch_size=4)
        arrivals = poisson_arrivals(len(seq_lens), rate, seed=5)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        comparison = compare_modes(
            requests, config=config, backend="analytical", max_batch_size=4, iteration_rows=8
        )
        assert comparison.speedup > 1.2
        assert comparison.continuous.stats.mean_occupancy > comparison.drain.stats.mean_occupancy

    def test_uniform_traffic_shows_no_policy_gap(self):
        # Same-length requests leave nothing for mid-flight admission to
        # reclaim: both policies keep the slots full.
        config = _config()
        seq_lens = [32] * 32
        rate = 4.0 * swat_request_rate(config, seq_lens, max_batch_size=4)
        arrivals = poisson_arrivals(len(seq_lens), rate, seed=9)
        requests = make_requests(
            seq_lens, config.head_dim, functional=False, arrival_times=arrivals
        )
        comparison = compare_modes(
            requests, config=config, backend="analytical", max_batch_size=4, iteration_rows=32
        )
        assert comparison.speedup == pytest.approx(1.0, rel=0.05)


class TestEngineMode:
    def test_drain_mode_is_default_and_unmarked(self):
        config = _config()
        engine = ServingEngine(config=config, backend="analytical", num_shards=1)
        result = engine.serve(make_requests([16, 24], config.head_dim, functional=False))
        assert result.stats.mode == "drain"
        assert result.stats.num_iterations == 0
        assert result.iterations == ()

    def test_measured_clock_backend_rejected(self):
        with pytest.raises(ValueError, match="measured host time"):
            serve_continuous(
                make_requests([16], HEAD_DIM, seed=0), config=_config(), backend="fused"
            )


class TestClockAndLatency:
    def test_clock_only_moves_forward(self):
        clock = ServingClock()
        clock.advance(1.5)
        clock.jump_to(1.0)  # already past: no-op
        assert clock.now == 1.5
        clock.jump_to(2.0)
        assert clock.now == 2.0
        assert clock.busy_seconds == 1.5
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_latency_accounting_orders_sanely(self):
        config = _config()
        seq_lens = [16, 33, 8, 48, 24, 16, 8, 33]
        requests = _trace_requests(seq_lens, arrival_seed=2, functional=False)
        result = serve_continuous(
            requests, config=config, backend="analytical", max_batch_size=2, iteration_rows=16
        )
        for done in result.completed:
            assert done.admit_time >= done.arrival_time
            assert done.finish_time > done.admit_time
        stats = result.stats
        assert 0 <= stats.queue_p50_seconds <= stats.queue_p95_seconds
        assert 0 < stats.latency_p50_seconds <= stats.latency_p95_seconds
        assert 0 < stats.mean_occupancy <= 1.0
        table = stats.render()
        assert "latency p95 [s]" in table
        assert "mean occupancy (slots)" in table

    def test_bursty_trace_queues_longer_than_trickle(self):
        config = _config()
        seq_lens = [16] * 24
        burst = bursty_arrivals(len(seq_lens), burst_size=24, burst_gap=1.0)
        trickle_rate = 0.5 * swat_request_rate(config, seq_lens, max_batch_size=2)
        trickle = poisson_arrivals(len(seq_lens), trickle_rate, seed=1)
        results = {}
        for name, arrivals in (("burst", burst), ("trickle", trickle)):
            requests = make_requests(
                seq_lens, config.head_dim, functional=False, arrival_times=arrivals
            )
            results[name] = serve_continuous(
                requests, config=config, backend="analytical", max_batch_size=2, iteration_rows=16
            )
        assert (
            results["burst"].stats.queue_p95_seconds
            > results["trickle"].stats.queue_p95_seconds
        )


class TestContinuousBatcher:
    def test_admission_respects_arrival_times(self):
        batcher = ContinuousBatcher(max_batch_size=4)
        early = AttentionRequest(seq_len=8, arrival_time=0.0)
        late = AttentionRequest(seq_len=8, arrival_time=5.0)
        batcher.submit([late, early])
        admitted = batcher.admit(0, now=1.0, rows_of=lambda request: request.seq_len)
        assert [inflight.request.request_id for inflight in admitted] == [early.request_id]
        assert batcher.next_arrival_time() == 5.0
        assert not batcher.done

    def test_drain_admission_waits_for_empty_shard(self):
        batcher = ContinuousBatcher(max_batch_size=2, admission="drain")
        requests = [AttentionRequest(seq_len=8) for _ in range(4)]
        batcher.submit(requests)
        first = batcher.admit(0, now=0.0, rows_of=lambda request: request.seq_len)
        assert len(first) == 2
        # Mid-batch: no admission even though slots could hold more work.
        assert batcher.admit(0, now=0.0, rows_of=lambda request: request.seq_len) == []
        for inflight in first:
            inflight.rows_done = inflight.rows_total
        batcher.retire_finished(0, now=1.0)
        second = batcher.admit(0, now=1.0, rows_of=lambda request: request.seq_len)
        assert len(second) == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            ContinuousBatcher(max_batch_size=0)
        with pytest.raises(ValueError, match="admission"):
            ContinuousBatcher(max_batch_size=1, admission="eager")
        with pytest.raises(ValueError, match="iteration_rows"):
            serve_continuous([], config=_config(), backend="analytical", iteration_rows=0)
        with pytest.raises(ValueError, match="backends"):
            serve_continuous(
                [],
                config=_config(),
                backend="analytical",
                num_shards=2,
                backends=[create_backend("analytical", config=_config())],
            )

    def test_free_slots_tracks_admission_policy(self):
        continuous = ContinuousBatcher(max_batch_size=3)
        drain = ContinuousBatcher(max_batch_size=3, admission="drain")
        for batcher in (continuous, drain):
            batcher.submit([AttentionRequest(seq_len=8) for _ in range(2)])
            assert batcher.free_slots(0) == 3
            batcher.admit(0, now=0.0, rows_of=lambda request: request.seq_len)
        assert continuous.free_slots(0) == 1
        assert drain.free_slots(0) == 0  # mid-batch: membership is fixed


class TestAccounting:
    def test_device_seconds_sums_this_requests_iterations(self):
        config = _config()
        requests = _trace_requests([16, 48, 8, 33], arrival_seed=4, functional=False)
        result = serve_continuous(
            requests, config=config, backend="analytical", max_batch_size=2, iteration_rows=8
        )
        for done in result.completed:
            resident_seconds = sum(
                record.seconds
                for record in result.iterations
                if done.request.request_id in dict(record.resident)
            )
            assert done.device_seconds == pytest.approx(resident_seconds)
            assert done.device_seconds > 0

    def test_continuous_reuses_given_shards(self):
        config = _config()
        plan_cache = PlanCache()
        backends = [
            create_backend("simulator", config=config, plan_cache=plan_cache) for _ in range(2)
        ]
        result = serve_continuous(
            make_requests([32] * 6, config.head_dim, seed=0),
            config=config,
            backend="simulator",
            num_shards=2,
            plan_cache=plan_cache,
            backends=backends,
        )
        # One compile for the shape; every further lookup (either shard's
        # retirement pass) hits the shards' pool-wide cache.
        assert result.stats.cache_misses == 1

    def test_request_rate_accounts_heads(self):
        config = _config()
        single = swat_request_rate(config, [64, 128])
        double = swat_request_rate(config, [64, 128], num_heads=2)
        assert double == pytest.approx(single / 2)
        with pytest.raises(ValueError, match="num_heads"):
            swat_request_rate(config, [64], num_heads=0)


class TestPercentile:
    def test_nearest_rank_semantics(self):
        values = [4.0, 1.0, 3.0, 2.0]
        assert percentile(values, 50.0) == 2.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 0.0) == 1.0
        assert percentile([], 50.0) == 0.0
        with pytest.raises(ValueError):
            percentile(values, 101.0)


class TestAdmissionPolicy:
    """Seeded A/B of the shortest-job-first admission knob (fcfs vs sjf)."""

    def _policy_run(self, requests, policy, num_shards=1, max_batch_size=4):
        from repro.serving.cache import PlanCache

        return serve_continuous(
            list(requests),
            config=SWATConfig.longformer(window_tokens=128),
            backend="analytical",
            num_shards=num_shards,
            max_batch_size=max_batch_size,
            iteration_rows=128,
            policy=policy,
            plan_cache=PlanCache(),
        )

    def _straggler_trace(self, count=64, load=6.0, seed=0):
        """Mostly-short traffic with a rare long straggler, overloaded."""
        config = SWATConfig.longformer(window_tokens=128)
        unit = [256] * 31 + [4096]
        seq_lens = (unit * ((count + len(unit) - 1) // len(unit)))[:count]
        rate = load * swat_request_rate(config, seq_lens, max_batch_size=4)
        return make_requests(
            seq_lens,
            config.head_dim,
            functional=False,
            arrival_times=poisson_arrivals(count, rate, seed=seed),
        )

    def test_sjf_cuts_p95_latency_on_mixed_length_trace(self):
        """The A/B: same seeded trace, same clock, only the policy differs."""
        requests = self._straggler_trace()
        fcfs = self._policy_run(requests, "fcfs").stats
        sjf = self._policy_run(requests, "sjf").stats
        assert sjf.policy == "sjf" and fcfs.policy == "fcfs"
        # Shorts stop queueing behind the straggler: both latency and
        # queue-wait p95 improve, p50 does not regress.
        assert sjf.latency_p95_seconds < fcfs.latency_p95_seconds
        assert sjf.queue_p95_seconds < fcfs.queue_p95_seconds
        assert sjf.latency_p50_seconds <= fcfs.latency_p50_seconds
        # Same work either way: every request served, same totals.
        assert sjf.num_requests == fcfs.num_requests == len(requests)
        assert sjf.total_head_rows == fcfs.total_head_rows

    def test_policy_runs_are_deterministic(self):
        requests = self._straggler_trace(count=32)
        first = self._policy_run(requests, "sjf")
        second = self._policy_run(requests, "sjf")
        assert first.stats.latency_p95_seconds == second.stats.latency_p95_seconds
        assert [record.resident for record in first.iterations] == [
            record.resident for record in second.iterations
        ]

    def test_sjf_degenerates_to_fcfs_on_uniform_lengths(self):
        """Equal job sizes: the tie-break reproduces arrival order exactly."""
        config = SWATConfig.longformer(window_tokens=128)
        seq_lens = [256] * 24
        rate = 4.0 * swat_request_rate(config, seq_lens, max_batch_size=4)
        requests = make_requests(
            seq_lens,
            config.head_dim,
            functional=False,
            arrival_times=poisson_arrivals(len(seq_lens), rate, seed=3),
        )
        fcfs = self._policy_run(requests, "fcfs")
        sjf = self._policy_run(requests, "sjf")
        assert [record.resident for record in fcfs.iterations] == [
            record.resident for record in sjf.iterations
        ]

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ContinuousBatcher(max_batch_size=2, policy="longest-first")

    def test_sjf_prefers_smaller_arrived_job(self):
        batcher = ContinuousBatcher(max_batch_size=1, policy="sjf")
        long_early = AttentionRequest(seq_len=64, arrival_time=0.0)
        short_late = AttentionRequest(seq_len=8, arrival_time=1.0)
        not_arrived = AttentionRequest(seq_len=2, arrival_time=9.0)
        batcher.submit([long_early, short_late, not_arrived])
        admitted = batcher.admit(0, now=2.0, rows_of=lambda request: request.seq_len)
        assert [inflight.request.request_id for inflight in admitted] == [
            short_late.request_id
        ]
        assert batcher.waiting_count == 2
