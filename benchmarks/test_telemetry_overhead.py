"""Benchmark: telemetry instrumentation must be free when nobody listens.

The hot paths (continuous iteration loop, drain dispatch, plan-cache lookup)
are instrumented behind ``if bus.active`` guards, so a run with zero event
subscribers pays one branch per would-be event and never constructs the
event object.  This suite holds that property to a number: modelled
throughput of an instrumented-but-unsubscribed continuous run must stay
within ``TELEMETRY_OVERHEAD_TOLERANCE`` (default 2%) of the uninstrumented
baseline, measured as the median ratio of back-to-back serve pairs so host
speed drift cancels instead of accumulating on one side.

``TELEMETRY_OVERHEAD_REQUESTS`` caps the trace length (CI smoke mode).  The
measured ratio lands in ``BENCH_serving.json`` next to the throughput
numbers.
"""

import os
import statistics
import time

from repro.core.config import SWATConfig
from repro.serving.cache import PlanCache
from repro.serving.continuous import poisson_arrivals, serve_continuous, swat_request_rate
from repro.serving.request import make_requests
from repro.telemetry import EventBus
from repro.telemetry.artifacts import record_bench

#: Zero-subscriber instrumentation may cost at most this wall-time ratio.
OVERHEAD_TOLERANCE = float(os.environ.get("TELEMETRY_OVERHEAD_TOLERANCE", "1.02"))

#: Timed serves per variant: at least this many, and at least this much wall
#: time, whichever comes later.
MIN_SERVES = 20
MIN_SECONDS = 0.5


def _trace(config, count):
    seq_lens = [256, 256, 512, 1024] * (count // 4)
    rate = 5.0 * swat_request_rate(config, seq_lens, num_shards=2, max_batch_size=8)
    return make_requests(
        seq_lens,
        config.head_dim,
        functional=False,
        arrival_times=poisson_arrivals(len(seq_lens), rate, seed=0),
    )


def test_zero_subscriber_instrumentation_is_free(benchmark):
    """Instrumented continuous serving with no sinks stays within tolerance."""
    config = SWATConfig.longformer(window_tokens=128)
    count = max(16, int(os.environ.get("TELEMETRY_OVERHEAD_REQUESTS", "256")) // 4 * 4)
    requests = _trace(config, count)
    idle_bus = EventBus()  # active stays False: every emit site is one branch

    def serve(bus):
        return serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=8,
            iteration_rows=128,
            plan_cache=PlanCache(bus=bus) if bus is not None else PlanCache(),
            bus=bus,
        )

    # Warm both paths (imports, caches), then interleave the timed rounds so
    # drift (CPU frequency, page cache) hits both variants equally.
    baseline_result = serve(None)
    instrumented_result = serve(idle_bus)

    def modelled(stats):
        record = stats.to_dict()
        # Wall-clock fields jitter run to run; everything modelled must match.
        return {key: value for key, value in record.items() if "wall" not in key}

    assert modelled(instrumented_result.stats) == modelled(baseline_result.stats)

    # Each round serves both variants back to back, alternating which goes
    # first, and the gate reads the median of the rounds' instrumented /
    # baseline ratios.  Two adjacent serves share the host's momentary
    # speed, which on a shared host drifts by far more than the tolerance
    # from round to round; a best-of taken on each side alone rests on that
    # side's rarest fast serve and swings both ways by 10% and more.
    variants = (None, idle_bus)
    times: "tuple[list[float], list[float]]" = ([], [])
    while len(times[0]) < MIN_SERVES or min(map(sum, times)) < MIN_SECONDS:
        for side in (0, 1) if len(times[0]) % 2 == 0 else (1, 0):
            start = time.perf_counter()
            serve(variants[side])
            times[side].append(time.perf_counter() - start)
    serves = len(times[0])
    baseline_ms, instrumented_ms = (statistics.median(side) * 1e3 for side in times)

    benchmark(serve, idle_bus)
    ratio = statistics.median(instrumented / baseline for baseline, instrumented in zip(*times))
    print(
        f"\nzero-subscriber telemetry: instrumented {instrumented_ms:.1f} ms "
        f"vs baseline {baseline_ms:.1f} ms median ({ratio:.4f}x median paired ratio, "
        f"tolerance {OVERHEAD_TOLERANCE:.2f}x, {count} requests, {serves} rounds)"
    )
    record_bench(
        "BENCH_serving.json",
        "telemetry_zero_subscriber_overhead",
        {
            "requests": count,
            "serves": serves,
            "baseline_ms": round(baseline_ms, 3),
            "instrumented_ms": round(instrumented_ms, 3),
            "ratio": round(ratio, 4),
            "tolerance": OVERHEAD_TOLERANCE,
        },
    )
    # Acceptance property: no subscribers -> no measurable cost.
    assert ratio <= OVERHEAD_TOLERANCE


def test_subscribed_bus_actually_collects(benchmark):
    """Sanity counterpart: with a sink subscribed the same run emits events."""
    config = SWATConfig.longformer(window_tokens=128)
    requests = _trace(config, 32)
    events = []
    bus = EventBus()
    bus.subscribe(events.append)
    result = benchmark.pedantic(
        lambda: serve_continuous(
            requests,
            config=config,
            backend="analytical",
            num_shards=2,
            max_batch_size=8,
            iteration_rows=128,
            plan_cache=PlanCache(bus=bus),
            bus=bus,
        ),
        iterations=1,
        rounds=1,
    )
    assert len(result.completed) == 32
    kinds = {type(event).kind for event in events}
    assert {"run_started", "request_retired", "iteration_advanced", "run_finished"} <= kinds
