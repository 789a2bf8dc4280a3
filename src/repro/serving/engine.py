"""Drain serving engine: request queue, dynamic batcher and a shard pool.

The engine turns the one-shot simulator into a served system.  Clients submit
:class:`~repro.serving.request.AttentionRequest`\\ s; the
:class:`~repro.serving.batcher.DynamicBatcher` groups compatible requests;
each released batch executes on the shard with the fewest assigned rows, one
of ``num_shards`` private :class:`~repro.serving.backends.AttentionBackend`
instances.  A dispatched batch executes as stacked tensor programs — one
:class:`~repro.core.plan.PlanBatch` pass per ``(config, seq_len)`` group,
never a per-request executor loop — and all shards share one
:class:`~repro.serving.cache.PlanCache`, so a schedule is built once per
shape for the whole pool.

:meth:`ServingEngine.serve` is one synchronous drain loop.  Two clocks are
kept: the *device* clock (modelled accelerator busy time per shard — shards
are modelled as parallel devices, so the pool finishes at the busiest
shard's makespan) and the *wall* clock (measured host time, in which the
loop executes batches one after another).  On the wall clock a request's
arrival stamp is its own ``arrival_time`` — the paced instant, or 0 for an
unpaced closed batch — its admit stamp is when its batch is dispatched and
its finish stamp is when that batch's execution returns, so a paced request
that arrives while an earlier batch executes counts the wait as queueing.

Continuous, iteration-level batching on a simulated clock is
:func:`repro.serving.continuous.serve_continuous`.

The engine accepts mixed request kinds in one trace: single attentions,
whole-model prefills (:class:`~repro.serving.request.ForwardRequest`) and
autoregressive decodes (:class:`~repro.serving.request.DecodeRequest`, whose
steps cover only the newly finalized rows against a resident K/V cache) are
batched, priced and retired through the same queue and the same clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.config import SWATConfig
from repro.serving.backends import AttentionBackend, create_backend
from repro.serving.batcher import Batch, DynamicBatcher
from repro.serving.cache import PlanCache
from repro.serving.request import AttentionRequest, CompletedRequest
from repro.serving.stats import BatchRecord, ServingStats, percentile
from repro.telemetry.bus import NULL_BUS
from repro.telemetry.events import (
    BatchDispatched,
    RequestAdmitted,
    RequestArrived,
    RequestRetired,
    RunFinished,
    RunStarted,
)

__all__ = ["ServingResult", "ServingEngine"]


@dataclass(frozen=True)
class ServingResult:
    """Everything one serving run produced.

    Drain runs fill ``batches`` (one record per dispatched batch);
    continuous runs fill ``iterations`` instead (one
    :class:`~repro.serving.continuous.IterationRecord` per priced pipeline
    iteration).
    """

    completed: "list[CompletedRequest]"
    stats: ServingStats
    batches: "tuple[BatchRecord, ...]"
    iterations: tuple = ()

    def output_for(self, request: AttentionRequest):
        """Return the output served for ``request``.

        ``None`` when the request was served by a non-functional backend (or
        was analytical); raises :class:`KeyError` when ``request`` was not
        part of this run at all.
        """
        for done in self.completed:
            if done.request.request_id == request.request_id:
                return done.output
        raise KeyError(f"request {request.request_id} was not served in this run")


class ServingEngine:
    """Serves attention requests over a pool of sharded accelerator backends."""

    def __init__(
        self,
        config: "SWATConfig | None" = None,
        backend: str = "simulator",
        num_shards: int = 2,
        max_batch_size: int = 8,
        plan_cache: "PlanCache | None" = None,
        bus=None,
        run_id: int = 0,
    ):
        if num_shards <= 0:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        self.config = config if config is not None else SWATConfig()
        self.backend_name = backend
        self.num_shards = num_shards
        self.max_batch_size = max_batch_size
        self.bus = bus if bus is not None else NULL_BUS
        self.run_id = run_id
        # An instrumented engine without an explicit cache builds one wired to
        # the same bus, so plan-cache lookups land in the same event log.
        if plan_cache is not None:
            self.plan_cache = plan_cache
        else:
            self.plan_cache = (
                PlanCache(bus=bus, run_id=run_id) if bus is not None else PlanCache()
            )
        self.shards: "list[AttentionBackend]" = [
            create_backend(backend, config=self.config, plan_cache=self.plan_cache)
            for _ in range(num_shards)
        ]

    def serve(self, requests: "list[AttentionRequest]") -> ServingResult:
        """Serve ``requests`` to completion and return outputs plus stats.

        Requests stamped with a positive ``arrival_time`` are *paced*: the
        engine sorts them by ``(arrival_time, request_id)`` and sleeps the
        wall clock up to each one before submitting it, so a trace recorded
        on the simulated continuous clock replays here in real time (events
        comparable log to log).  All-zero arrival times — the closed-batch
        drain contract — skip pacing entirely and keep submission order.
        """
        bus = self.bus
        run_id = self.run_id
        self.plan_cache.check_bus(bus, run_id)
        start_wall = time.perf_counter()
        cache_before = self.plan_cache.counters()

        def elapsed() -> float:
            return time.perf_counter() - start_wall

        if bus.active:
            bus.emit(
                RunStarted(
                    engine="drain",
                    backend=self.backend_name,
                    num_shards=self.num_shards,
                    max_batch_size=self.max_batch_size,
                    num_requests=len(requests),
                    run_id=run_id,
                )
            )

        batcher = DynamicBatcher(
            self.config, max_batch_size=self.max_batch_size, bus=bus, clock=elapsed, run_id=run_id
        )
        # Estimated rows already assigned per shard: the load-balancing signal
        # (device seconds are proportional to rows for a fixed config).
        assigned_rows = [0] * self.num_shards
        shard_busy = [0.0] * self.num_shards
        records: "list[BatchRecord]" = []
        completed: "list[CompletedRequest]" = []

        def dispatch(batch: Batch) -> None:
            shard_index = min(range(self.num_shards), key=lambda i: assigned_rows[i])
            assigned_rows[shard_index] += batch.total_rows
            admit = elapsed()
            if bus.active:
                for request in batch.requests:
                    bus.emit(
                        RequestAdmitted(
                            request_id=request.request_id,
                            shard=shard_index,
                            admit_time=admit,
                            residency=len(batch),
                            run_id=run_id,
                        )
                    )
            # Through the instance attribute, so a per-shard wrapper sees it.
            result = self.shards[shard_index].execute_batch(batch.requests)
            finish = elapsed()
            shard_busy[shard_index] += result.device_seconds
            records.append(
                BatchRecord(
                    batch_id=batch.batch_id,
                    shard=shard_index,
                    size=len(batch),
                    total_rows=batch.total_rows,
                    device_seconds=result.device_seconds,
                    energy_joules=result.energy_joules,
                    head_rows=result.head_rows,
                )
            )
            if bus.active:
                bus.emit(
                    BatchDispatched(
                        batch_id=batch.batch_id,
                        shard=shard_index,
                        size=len(batch),
                        total_rows=batch.total_rows,
                        device_seconds=result.device_seconds,
                        energy_joules=result.energy_joules,
                        head_rows=result.head_rows,
                        run_id=run_id,
                    )
                )
            for request, output in zip(batch.requests, result.outputs):
                done = CompletedRequest(
                    request=request,
                    output=output,
                    shard=shard_index,
                    batch_id=batch.batch_id,
                    batch_size=len(batch),
                    device_seconds=result.device_seconds,
                    arrival_time=request.arrival_time,
                    admit_time=admit,
                    finish_time=finish,
                )
                completed.append(done)
                if bus.active:
                    bus.emit(
                        RequestRetired(
                            request_id=request.request_id,
                            shard=shard_index,
                            batch_id=batch.batch_id,
                            batch_size=len(batch),
                            device_seconds=result.device_seconds,
                            arrival_time=request.arrival_time,
                            admit_time=admit,
                            finish_time=finish,
                            run_id=run_id,
                        )
                    )

        paced = any(request.arrival_time > 0 for request in requests)
        ordered = (
            sorted(requests, key=lambda r: (r.arrival_time, r.request_id)) if paced else requests
        )
        for request in ordered:
            if paced:
                while (delay := request.arrival_time - elapsed()) > 0:
                    time.sleep(delay)
            if bus.active:
                bus.emit(
                    RequestArrived(
                        request_id=request.request_id,
                        seq_len=request.seq_len,
                        head_rows=request.head_rows,
                        arrival_time=request.arrival_time,
                        run_id=run_id,
                    )
                )
            full = batcher.add(request)
            if full is not None:
                dispatch(full)
        for partial in batcher.flush():
            dispatch(partial)

        wall_seconds = time.perf_counter() - start_wall
        cache_after = self.plan_cache.counters()
        position = {request.request_id: index for index, request in enumerate(requests)}
        completed.sort(key=lambda done: position[done.request.request_id])
        queue_waits = [done.queue_seconds for done in completed]
        latencies = [done.latency_seconds for done in completed]
        stats = ServingStats(
            backend=self.backend_name,
            num_requests=len(requests),
            num_batches=len(records),
            num_shards=self.num_shards,
            max_batch_size=self.max_batch_size,
            device_makespan_seconds=max(shard_busy),
            shard_busy_seconds=tuple(shard_busy),
            total_energy_joules=sum(record.energy_joules for record in records),
            wall_seconds=wall_seconds,
            cache_hits=cache_after["hits"] - cache_before["hits"],
            cache_misses=cache_after["misses"] - cache_before["misses"],
            total_head_rows=sum(record.head_rows for record in records),
            queue_p50_seconds=percentile(queue_waits, 50.0),
            queue_p95_seconds=percentile(queue_waits, 95.0),
            latency_p50_seconds=percentile(latencies, 50.0),
            latency_p95_seconds=percentile(latencies, 95.0),
        )
        if bus.active:
            bus.emit(RunFinished(wall_seconds=wall_seconds, stats=stats.to_dict(), run_id=run_id))
        # ``records`` is in batch-id order: the batcher numbers batches as it
        # releases them.
        return ServingResult(completed=completed, stats=stats, batches=tuple(records))
