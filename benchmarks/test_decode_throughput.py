"""Benchmark: autoregressive decode serving — KV residency and block decode.

Two decode-serving acceptance numbers, both on seeded mixed prefill+decode
traces through :func:`~repro.serving.continuous.serve_continuous` (event
scheduler, so decode steps are priced by the vectorized ``step_burst`` path):

* **KV-cache advantage** — tokens/sec of decode steps that cover only the
  newly finalized rows (prompt K/V resident) versus a baseline that
  re-prefills the full sequence for every generated token.  The modelled
  ratio must clear :data:`KV_CACHE_SPEEDUP_FLOOR` (the tentpole acceptance
  criterion).
* **Block decode** — classic ``k=1`` autoregression versus fixed-``k`` and
  adaptive block schedules on a model whose layers alternate attention
  geometry, so every decode step pays per-layer plan switches that larger
  blocks amortise (the diffusion-style parallel-decode scenario priced by
  the closed-form ``span_cycles_matrix`` kernel, one call per decode plan
  per burst).

``SERVING_DECODE_REQUESTS`` caps the trace size (CI smoke mode); headline
numbers land in ``BENCH_serving.json`` via
:func:`repro.telemetry.artifacts.record_bench`.
"""

import os

from repro.core.config import SWATConfig
from repro.model.spec import LayerGeometry, ModelSpec
from repro.serving.cache import PlanCache
from repro.serving.continuous import serve_continuous
from repro.serving.request import make_decode_request, make_forward_request
from repro.telemetry.artifacts import record_bench

#: Modelled tokens/sec floor for resident-K/V decode over per-token full
#: re-prefill (acceptance criterion; the measured ratio is far higher —
#: decode rows scale with ``new_tokens``, re-prefill rows with
#: ``new_tokens * seq_len``).
KV_CACHE_SPEEDUP_FLOOR = 5.0

#: Generated tokens per decode request.
NEW_TOKENS = 32


def _spec(seq_len=256, num_layers=4, num_heads=2):
    """Layers alternating two attention geometries (two compiled plans)."""
    geometries = (LayerGeometry(window_tokens=8), LayerGeometry(window_tokens=16))
    return ModelSpec(
        seq_len=seq_len,
        layers=tuple(geometries[index % 2] for index in range(num_layers)),
        num_heads=num_heads,
        head_dim=16,
    )


def _request_count():
    return max(8, int(os.environ.get("SERVING_DECODE_REQUESTS", "64")) // 8 * 8)


def _mixed_trace(count, block_size=1, adaptive=False):
    """``count`` decodes interleaved with ``count // 2`` prefill forwards."""
    spec = _spec()
    requests = []
    for index in range(count):
        requests.append(
            make_decode_request(
                spec, new_tokens=NEW_TOKENS, block_size=block_size, adaptive=adaptive
            )
        )
        if index % 2 == 0:
            requests.append(make_forward_request(spec, functional=False))
    return requests


def _reprefill_trace(count):
    """The baseline: every generated token re-prefills the full sequence."""
    spec = _spec()
    requests = []
    for index in range(count):
        requests.extend(
            make_forward_request(spec, functional=False) for _ in range(NEW_TOKENS)
        )
        if index % 2 == 0:
            requests.append(make_forward_request(spec, functional=False))
    return requests


def _serve(requests):
    return serve_continuous(
        requests,
        config=SWATConfig(head_dim=16, window_tokens=8),
        backend="analytical",
        num_shards=2,
        max_batch_size=8,
        iteration_rows=256,
        policy="fcfs",
        scheduler="event",
        plan_cache=PlanCache(),
    )


def test_kv_cache_decode_beats_per_token_reprefill(benchmark):
    """The tentpole acceptance number: resident K/V vs full re-prefill.

    Both runs carry the identical prefill load; only the generation strategy
    differs.  Decode steps advance ``num_layers * num_heads * new_tokens``
    rows per request, the baseline re-prefills ``new_tokens`` full-context
    forwards — the tokens/sec ratio is the modelled value of keeping the
    prompt's K/V resident.
    """
    count = _request_count()
    decode_requests = _mixed_trace(count)
    reprefill_requests = _reprefill_trace(count)

    decode_result = benchmark(_serve, decode_requests)
    decode_stats = decode_result.stats
    baseline_stats = _serve(reprefill_requests).stats

    tokens = count * NEW_TOKENS
    assert decode_stats.decode_tokens == tokens
    assert decode_stats.kv_misses == count
    decode_tps = decode_stats.tokens_per_second
    baseline_tps = tokens / baseline_stats.device_makespan_seconds
    speedup = decode_tps / baseline_tps
    print(
        f"\nKV-cache decode: {decode_tps:.3g} tok/s vs re-prefill "
        f"{baseline_tps:.3g} tok/s ({speedup:.1f}x), "
        f"TTFT p95 {decode_stats.ttft_p95_seconds:.3g}s, "
        f"inter-token p95 {decode_stats.inter_token_p95_seconds:.3g}s"
    )
    record_bench(
        "BENCH_serving.json",
        "kv_cache_decode_speedup",
        {
            "requests": count,
            "new_tokens": NEW_TOKENS,
            "tokens_per_second": round(decode_tps, 3),
            "reprefill_tokens_per_second": round(baseline_tps, 3),
            "speedup": round(speedup, 3),
            "ttft_p95_seconds": decode_stats.ttft_p95_seconds,
            "inter_token_p95_seconds": decode_stats.inter_token_p95_seconds,
        },
    )
    assert speedup >= KV_CACHE_SPEEDUP_FLOOR


def test_block_decode_amortises_layer_switches():
    """k=1 vs fixed-k vs adaptive block decode on the alternating-geometry mix.

    Each decode block walks every layer; with alternating geometries each
    layer walk pays plan-switch fills, so fewer, larger blocks finish the
    same tokens in fewer cycles.  The adaptive ramp (1, 2, 4, ...) lands
    between classic autoregression and the full fixed block.
    """
    count = _request_count() // 2
    throughput = {}
    for label, block_size, adaptive in (
        ("k1", 1, False),
        ("k8", 8, False),
        ("k8_adaptive", 8, True),
    ):
        stats = _serve(_mixed_trace(count, block_size=block_size, adaptive=adaptive)).stats
        throughput[label] = stats.tokens_per_second
        print(f"\nblock decode {label}: {stats.tokens_per_second:.3g} tok/s")
    record_bench(
        "BENCH_serving.json",
        "block_decode_tokens_per_second",
        {"requests": count, **{label: round(value, 3) for label, value in throughput.items()}},
    )
    assert throughput["k8"] > throughput["k1"]
    assert throughput["k8"] >= throughput["k8_adaptive"] >= throughput["k1"]
