"""The benchmark's workloads: seeded inputs, timed serves, output checks.

Every workload builds its inputs from the seed alone, then serves them as
often as its process has time for.  Before each serve it constructs fresh
objects to hand to the program (backends, engine, plan cache, event-log
sink), so every serve starts cold; the serve call is the timed region.  The
strict replay of the event log and the output checks run after it.

Modelled (``sim.*``) figures are deterministic functions of the inputs and
are reported only as per-layer metrics; the headlines a workload must
produce are guarded against being zero.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.core.config import SWATConfig
from repro.core.simulator import SWATSimulator
from repro.model.executor import ModelExecutor
from repro.model.spec import LayerGeometry, ModelSpec
from repro.serving import (
    PlanCache,
    ServingEngine,
    create_backend,
    diurnal_arrivals,
    make_decode_request,
    make_forward_request,
    make_request,
    make_requests,
    percentile,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.telemetry import EventBus, EventLogWriter
from repro.telemetry.replay import verify_log

__all__ = ["WORKLOADS"]

#: Minimum host seconds spent strict-replaying one log: short logs are
#: replayed repeatedly, and every pass is one sample.
MIN_REPLAY_SECONDS = 0.2


def exactly_once_failures(requests, completed) -> int:
    """Requests that did not complete exactly once."""
    seen: "dict[int, int]" = {}
    for done in completed:
        seen[done.request.request_id] = seen.get(done.request.request_id, 0) + 1
    submitted = {request.request_id for request in requests}
    missing = sum(1 for request_id in submitted if seen.get(request_id, 0) != 1)
    strangers = sum(1 for request_id in seen if request_id not in submitted)
    return missing + strangers


def stats_sim(stats) -> "dict[str, float]":
    """The modelled-device headlines of a continuous-clock run."""
    return {
        "sim.makespan_s": stats.device_makespan_seconds,
        "sim.requests_per_s": stats.requests_per_second,
        "sim.latency_p95_s": stats.latency_p95_seconds,
        "sim.queue_p95_s": stats.queue_p95_seconds,
        "sim.occupancy": stats.mean_occupancy,
        "sim.energy_j": stats.total_energy_joules,
        "sim.iterations": stats.num_iterations,
        "sim.ttft_p95_s": stats.ttft_p95_seconds,
        "sim.inter_token_p50_s": stats.inter_token_p50_seconds,
        "sim.inter_token_p95_s": stats.inter_token_p95_seconds,
        "sim.tokens_per_s": stats.tokens_per_second,
        "sim.kv_hit_rate": stats.kv_hit_rate,
    }


def stats_mismatches(got, want) -> "list[str]":
    """Every ``ServingStats`` field except ``wall_seconds`` that differs."""
    return [
        f"{spec.name}: {getattr(got, spec.name)!r} != {getattr(want, spec.name)!r}"
        for spec in fields(type(got))
        if spec.name != "wall_seconds" and getattr(got, spec.name) != getattr(want, spec.name)
    ]


def timed_replay(path) -> "tuple[list[float], list[str]]":
    """Host seconds of each strict-replay pass over ``path``, and its mismatches."""
    passes = []
    mismatches: "list[str]" = []
    while not passes or (sum(passes) < MIN_REPLAY_SECONDS and not mismatches):
        start = time.perf_counter()
        mismatches = verify_log(path)
        passes.append(time.perf_counter() - start)
    return passes, mismatches


class EventLog:
    """An event bus writing one JSONL log inside a private temporary directory."""

    def __init__(self, scratch: Path, tracer=None):
        self._directory = Path(tempfile.mkdtemp(prefix="events-", dir=scratch))
        self.path = self._directory / "run.jsonl"
        self.writer = EventLogWriter(self.path)
        self.bus = EventBus()
        self.bus.subscribe(tracer.traced("telemetry.sink", self.writer) if tracer else self.writer)

    def close(self) -> None:
        self.writer.close()

    def remove(self) -> None:
        self.close()
        shutil.rmtree(self._directory, ignore_errors=True)


class Workload:
    """One named workload: seeded inputs, then any number of fresh serves.

    A process calls :meth:`make_inputs` once, then for every serve
    :meth:`build` (fresh backends, cache, engine and event log — so each
    serve starts cold), :meth:`serve` (the timed call), :meth:`replay`,
    :meth:`check` and :meth:`release`.  ``first`` marks the process's first
    serve, which carries the expensive checks; later serves must reproduce
    its modelled figures and outputs exactly.
    """

    name = ""

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.requests: list = []
        self.log: "EventLog | None" = None
        #: Whole-run check failures (every request of the run counts as failed).
        self.problems: "list[str]" = []
        #: Per-request check failures.
        self.failures: "list[str]" = []

    def make_inputs(self) -> None:
        raise NotImplementedError

    def build(self, tracer) -> None:
        raise NotImplementedError

    def serve(self):
        raise NotImplementedError

    def replay(self, result, first: bool) -> "tuple[int, list[float]] | None":
        """Strict-replay the serve's event log (the ``repro-trace replay`` path).

        Returns the log's event count and the host seconds of each pass.
        """
        self.log.close()
        passes, mismatches = timed_replay(self.log.path)
        self.problems.extend(f"strict replay: {line}" for line in mismatches)
        return self.log.writer.events_written, passes

    def check(self, result, first: bool) -> int:
        return exactly_once_failures(self.requests, result.completed)

    def sim(self, result) -> "dict[str, float]":
        return stats_sim(result.stats)

    def required_nonzero(self) -> "tuple[str, ...]":
        return ("sim.occupancy", "sim.latency_p95_s")

    def release(self) -> None:
        """Drop the serve's event log (and its temporary directory)."""
        if self.log is not None:
            self.log.remove()
            self.log = None

    def log_stats(self) -> "tuple[int, int]":
        """Events and bytes the timed serve wrote to its log (0, 0 without one)."""
        if self.log is None:
            return 0, 0
        return self.log.writer.events_written, self.log.path.stat().st_size


class DiurnalReplay(Workload):
    """Long-context analytical attention on a saturated device; scheduler-bound."""

    name = "diurnal-replay"
    REQUESTS = 20_000
    #: Prefix served by both schedulers (outside the timed serve) for the
    #: reference check; its event log is the one this workload strict-replays
    #: (the whole trace's log would be about a gigabyte).
    PREFIX = 200
    NUM_SHARDS, MAX_BATCH_SIZE, ITERATION_ROWS = 1, 4, 32

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.config = SWATConfig.longformer(window_tokens=128)
        # Half 8k, half 16k: the seed orders them, so the total work is fixed.
        seq_lens = [
            int(length) for length in rng.permutation([8192, 16384] * (self.REQUESTS // 2))
        ]
        mean_rate = 0.9 * swat_request_rate(
            self.config, seq_lens, num_shards=self.NUM_SHARDS, max_batch_size=self.MAX_BATCH_SIZE
        )
        period = self.REQUESTS / mean_rate / 10.0
        arrivals = diurnal_arrivals(
            self.REQUESTS, mean_rate, period, amplitude=0.95, seed=self.seed
        )
        self.requests = make_requests(
            seq_lens, self.config.head_dim, functional=False, arrival_times=arrivals
        )

    def build(self, tracer) -> None:
        self.cache = PlanCache()
        self.backends = [
            create_backend("analytical", config=self.config, plan_cache=self.cache)
            for _ in range(self.NUM_SHARDS)
        ]
        if tracer is not None:
            for backend in self.backends:
                tracer.patch(backend, "step_burst", "backends.step_burst")
            tracer.patch_cache(self.cache)

    def _serve(self, requests, scheduler="event", bus=None, backends=None, cache=None):
        return serve_continuous(
            requests,
            config=self.config,
            backend="analytical",
            num_shards=self.NUM_SHARDS,
            max_batch_size=self.MAX_BATCH_SIZE,
            iteration_rows=self.ITERATION_ROWS,
            plan_cache=cache,
            backends=backends,
            bus=bus,
            scheduler=scheduler,
            record_iterations=False,
        )

    def serve(self):
        return self._serve(self.requests, backends=self.backends, cache=self.cache)

    def replay(self, result, first: bool) -> "tuple[int, list[float]] | None":
        """On the first serve: both schedulers on the prefix, then its strict replay."""
        if not first:
            return None
        prefix = self.requests[: self.PREFIX]
        self.log = EventLog(self.scratch)
        event = self._serve(prefix, bus=self.log.bus, cache=PlanCache(bus=self.log.bus))
        reference = self._serve(prefix, scheduler="reference")
        self.problems.extend(
            f"event vs reference prefix: {line}"
            for line in stats_mismatches(event.stats, reference.stats)
        )
        return super().replay(event, first)


class DecodeMix(Workload):
    """Poisson decodes interleaved with prefill forwards, logged and replayed."""

    name = "decode-mix"
    DECODES, FORWARDS, NEW_TOKENS = 256, 128, 32
    NUM_SHARDS, MAX_BATCH_SIZE, ITERATION_ROWS = 2, 8, 16
    LOAD = 0.8

    def make_inputs(self) -> None:
        geometries = (LayerGeometry(window_tokens=8), LayerGeometry(window_tokens=16))
        self.spec = ModelSpec(
            seq_len=256,
            layers=tuple(geometries[index % 2] for index in range(4)),
            num_heads=2,
            head_dim=16,
        )
        self.config = SWATConfig(head_dim=16, window_tokens=8)
        total = self.DECODES + self.FORWARDS
        # Two decodes per forward; rows are layers x heads x (new or all) tokens.
        layer_heads = self.spec.num_layers * self.spec.num_heads
        mean_rows = layer_heads * (2 * self.NEW_TOKENS + self.spec.seq_len) / 3
        rate = self.LOAD * swat_request_rate(
            self.config,
            [mean_rows],
            num_shards=self.NUM_SHARDS,
            max_batch_size=self.MAX_BATCH_SIZE,
        )
        arrivals = poisson_arrivals(total, rate, seed=self.seed)
        self.requests = [
            make_forward_request(self.spec, functional=False, arrival_time=arrival)
            if index % 3 == 2
            else make_decode_request(self.spec, new_tokens=self.NEW_TOKENS, arrival_time=arrival)
            for index, arrival in enumerate(arrivals)
        ]
        # A throwaway backend (private cache) sizes one decode.
        decode_rows = create_backend("analytical", config=self.config).request_rows(
            self.requests[0]
        )
        if self.ITERATION_ROWS >= decode_rows:
            raise ValueError(
                f"quantum {self.ITERATION_ROWS} must be below one decode's {decode_rows} rows, "
                f"or a whole generation retires inside one iteration"
            )

    def build(self, tracer) -> None:
        self.log = EventLog(self.scratch, tracer)
        # The cache must publish its lookups on the run's bus, or strict
        # replay reports cache_hits/cache_misses mismatches.
        self.cache = PlanCache(bus=self.log.bus)
        self.backends = [
            create_backend("analytical", config=self.config, plan_cache=self.cache)
            for _ in range(self.NUM_SHARDS)
        ]
        if tracer is not None:
            for backend in self.backends:
                tracer.patch(backend, "step_burst", "backends.step_burst")
            tracer.patch_cache(self.cache)

    def serve(self):
        return serve_continuous(
            self.requests,
            config=self.config,
            backend="analytical",
            num_shards=self.NUM_SHARDS,
            max_batch_size=self.MAX_BATCH_SIZE,
            iteration_rows=self.ITERATION_ROWS,
            plan_cache=self.cache,
            backends=self.backends,
            bus=self.log.bus,
        )

    def required_nonzero(self) -> "tuple[str, ...]":
        return super().required_nonzero() + ("sim.ttft_p95_s", "sim.inter_token_p95_s")


class FunctionalServe(Workload):
    """The drain engine serving functional BigBird attention and model forwards."""

    name = "functional-serve"
    FORWARDS = 16
    #: Each repeated length serves this many requests.
    REPEATED_LENGTHS, REPEATS = (128, 256, 512), 32
    #: One-off lengths are distinct draws from this band, so their total
    #: work barely depends on the seed.
    ONE_OFF_BAND, ONE_OFFS = (320, 448), 32
    MAX_BATCH_SIZE = 8
    #: Outputs re-run alone and compared bit for bit.
    SAMPLED_ATTENTIONS, SAMPLED_FORWARDS = 6, 2

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.config = SWATConfig.bigbird(
            head_dim=32, window_tokens=32, num_global_tokens=4, num_random_tokens=8
        )
        lengths = [length for length in self.REPEATED_LENGTHS for _ in range(self.REPEATS)]
        lengths += [
            int(length)
            for length in rng.choice(np.arange(*self.ONE_OFF_BAND), self.ONE_OFFS, replace=False)
        ]
        geometry = LayerGeometry(window_tokens=32, num_global_tokens=4, num_random_tokens=8)
        self.spec = ModelSpec(seq_len=256, layers=(geometry,) * 4, num_heads=2, head_dim=32)
        attentions = [
            make_request(length, self.config.head_dim, seed=self.seed * 100_000 + index)
            for index, length in enumerate(lengths)
        ]
        forwards = [
            make_forward_request(self.spec, seed=self.seed * 100_000 + index)
            for index in range(self.FORWARDS)
        ]
        # A fixed interleaving (one request of each length kind in turn, a
        # forward after every eight): batch composition, and so the work,
        # does not depend on the seed.
        kinds = len(self.REPEATED_LENGTHS) + 1
        self.requests = []
        for turn in range(self.REPEATS):
            self.requests.extend(attentions[turn + kind * self.REPEATS] for kind in range(kinds))
            if turn % 2 == 1:
                self.requests.append(forwards[turn // 2])
        self.sampled = [
            attentions[index]
            for index in rng.choice(len(attentions), self.SAMPLED_ATTENTIONS, replace=False)
        ] + [
            forwards[index]
            for index in rng.choice(len(forwards), self.SAMPLED_FORWARDS, replace=False)
        ]
        self.first_outputs: "dict[int, np.ndarray]" = {}

    def build(self, tracer) -> None:
        self.log = EventLog(self.scratch, tracer)
        self.engine = ServingEngine(
            config=self.config,
            backend="simulator",
            num_shards=1,
            max_batch_size=self.MAX_BATCH_SIZE,
            plan_cache=PlanCache(bus=self.log.bus),
            bus=self.log.bus,
        )
        if tracer is not None:
            tracer.patch(self.engine, "serve", "engine.serve")
            for backend in self.engine.shards:
                tracer.patch(backend, "execute_batch", "backends.execute_batch")
                tracer.patch(backend, "compute_outputs", "backends.compute_outputs")
            tracer.patch_cache(self.engine.plan_cache)

    def serve(self):
        return self.engine.serve(self.requests)

    def check(self, result, first: bool) -> int:
        """Sampled outputs match solo runs; later serves repeat the first's outputs."""
        failed = super().check(result, first)
        outputs = {done.request.request_id: done.output for done in result.completed}
        if first:
            self.first_outputs = outputs
            simulator = SWATSimulator(self.config)
            for request in self.sampled:
                if hasattr(request, "spec"):
                    solo = ModelExecutor(
                        request.spec, base_config=self.config, weight_seed=request.weight_seed
                    ).forward(request.x)
                else:
                    solo = simulator.run(request.q, request.k, request.v).output
                served = outputs.get(request.request_id)
                if served is None or not np.array_equal(served, solo):
                    failed += 1
                    self.failures.append(
                        f"request {request.request_id}: output differs from its solo run"
                    )
            return failed
        for request_id, output in outputs.items():
            expected = self.first_outputs.get(request_id)
            if expected is None or not np.array_equal(output, expected):
                failed += 1
                self.failures.append(
                    f"request {request_id}: output differs from the process's first serve"
                )
        return failed

    def sim(self, result) -> "dict[str, float]":
        """Device-clock figures of a drain run, from its batch records.

        The drain engine's own latency fields are wall-clock offsets, so the
        modelled ones are rebuilt here: each shard runs its batches back to
        back in dispatch order and every request arrives at time 0, so a
        request finishes when its batch does and waits until its batch starts.
        """
        stats = result.stats
        finish: "dict[int, float]" = {}
        start: "dict[int, float]" = {}
        clocks: "dict[int, float]" = {}
        for record in result.batches:
            begin = clocks.get(record.shard, 0.0)
            clocks[record.shard] = begin + record.device_seconds
            start[record.batch_id] = begin
            finish[record.batch_id] = clocks[record.shard]
        latencies = [finish[done.batch_id] for done in result.completed]
        queues = [start[done.batch_id] for done in result.completed]
        sim = stats_sim(stats)
        sim.update(
            {
                "sim.latency_p95_s": percentile(latencies, 95.0),
                "sim.queue_p95_s": percentile(queues, 95.0),
                "sim.occupancy": stats.batch_occupancy,
                "sim.iterations": stats.num_batches,
            }
        )
        return sim


WORKLOADS = {workload.name: workload for workload in (DiurnalReplay, DecodeMix, FunctionalServe)}
