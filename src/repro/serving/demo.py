"""``repro-serve``: command-line demo of the serving layer.

Generates a mixed-shape request set, serves it through a batched multi-shard
engine, and prints the :class:`~repro.serving.stats.ServingStats` table.  With
``--compare`` it also serves the same requests sequentially (one shard, batch
size one) so the batching + sharding speedup is visible from the shell, in
both requests/sec and the backend-independent head-rows/sec:

.. code-block:: console

    $ repro-serve --backend analytical --shards 4 --requests 64 --compare

``--mode continuous`` switches to the iteration-level scheduler of
:mod:`repro.serving.continuous`: requests arrive over a seeded trace
(``--trace poisson`` by default; ``diurnal`` modulates the rate over a
day-night cycle, ``bursty`` clusters arrivals) at ``--load`` times the
pool's saturation rate, are admitted mid-flight as slots free (``--policy
sjf`` admits shortest-job-first), and the table gains occupancy plus
simulated queue/latency percentiles.  ``--compare`` then runs the same
trace under drain admission on the same simulated clock and prints the
continuous-over-drain speedup:

.. code-block:: console

    $ repro-serve --mode continuous --backend analytical --requests 64 --compare
    $ repro-serve --mode continuous --trace diurnal --requests 256

``--model`` serves whole-model forward passes instead of single attentions:
each request carries a :class:`~repro.model.spec.ModelSpec` of
``--model-layers`` encoder layers, compiled once per spec into a
:class:`~repro.model.plan.ModelPlan` (layers share one schedule per distinct
shape) and priced/executed end to end:

.. code-block:: console

    $ repro-serve --model --model-layers 8 --backend simulator --requests 16

``--decode-every k`` turns every ``k``-th request into an autoregressive
:class:`~repro.serving.request.DecodeRequest` — ``--decode-tokens`` new
tokens generated against a resident K/V cache — so mixed prefill+decode
traces run through either engine unchanged and the table gains TTFT,
inter-token latency, tokens/sec and the KV-residency hit rate.
``--decode-block`` prices diffusion-style block decode (``--decode-adaptive``
ramps the block width 1, 2, 4, ...):

.. code-block:: console

    $ repro-serve --mode continuous --decode-every 2 --decode-tokens 32
    $ repro-serve --mode continuous --decode-every 2 --decode-block 8 --decode-adaptive
"""

from __future__ import annotations

import argparse

from repro.core.config import SWATConfig
from repro.model.spec import ModelSpec
from repro.serving.backends import REGISTRY, available_backends
from repro.serving.cache import PlanCache
from repro.serving.continuous import (
    DEFAULT_ITERATION_ROWS,
    QUEUE_POLICIES,
    bursty_arrivals,
    compare_modes,
    diurnal_arrivals,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.serving.engine import ServingEngine, ServingResult
from repro.serving.request import make_decode_request, make_forward_request, make_requests

__all__ = ["build_parser", "main"]

#: ``--mode`` choices: the drain engine or continuous iteration-level admission.
SERVING_MODES = ("drain", "continuous")

#: Sequence lengths cycled through when generating the demo request mix.
DEFAULT_SEQ_LENS = (256, 256, 512, 512, 512, 1024)

#: Seeded arrival processes ``--trace`` can replay in continuous mode.
ARRIVAL_TRACES = ("poisson", "diurnal", "bursty")


def _arrival_times(args, rate: float) -> "list[float]":
    """The seeded arrival trace for ``--trace`` at mean rate ``rate``."""
    if args.trace == "diurnal":
        # Ten day-night cycles across the expected span of the trace.
        period = max(args.requests / rate, 1e-9) / 10.0
        return diurnal_arrivals(args.requests, rate, period, seed=args.seed)
    if args.trace == "bursty":
        burst_size = max(args.batch_size // 2, 1)
        return bursty_arrivals(
            args.requests,
            burst_size=burst_size,
            burst_gap=burst_size / rate,
            seed=args.seed,
        )
    return poisson_arrivals(args.requests, rate, seed=args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve synthetic attention requests through the SWAT serving layer.",
    )
    parser.add_argument(
        "--backend",
        default="analytical",
        choices=available_backends(),
        help="execution backend (default: analytical)",
    )
    parser.add_argument(
        "--mode",
        default="drain",
        choices=SERVING_MODES,
        help="dispatch mode: drain batches or continuous iteration-level "
        "admission (default: drain)",
    )
    parser.add_argument("--shards", type=int, default=2, help="accelerator shards (default: 2)")
    parser.add_argument(
        "--batch-size", type=int, default=8, help="max dynamic batch size (default: 8)"
    )
    parser.add_argument(
        "--requests", type=int, default=32, help="number of requests to generate (default: 32)"
    )
    parser.add_argument(
        "--seq-lens",
        type=int,
        nargs="+",
        default=list(DEFAULT_SEQ_LENS),
        help="sequence lengths cycled through the request mix",
    )
    parser.add_argument(
        "--window-tokens", type=int, default=128, help="SWAT window width 2w (default: 128)"
    )
    parser.add_argument("--seed", type=int, default=0, help="data seed (default: 0)")
    parser.add_argument(
        "--model",
        action="store_true",
        help="serve whole-model forward passes (one ModelSpec per request) "
        "instead of single attentions",
    )
    parser.add_argument(
        "--model-layers",
        type=int,
        default=4,
        help="encoder layers per served model in --model mode (default: 4)",
    )
    parser.add_argument(
        "--model-heads",
        type=int,
        default=2,
        help="attention heads per layer in --model mode (default: 2)",
    )
    parser.add_argument(
        "--decode-every",
        type=int,
        default=0,
        metavar="K",
        help="turn every K-th request into an autoregressive decode against "
        "a resident K/V cache (default: 0 = prefill-only trace)",
    )
    parser.add_argument(
        "--decode-tokens",
        type=int,
        default=16,
        help="tokens generated per decode request (default: 16)",
    )
    parser.add_argument(
        "--decode-block",
        type=int,
        default=1,
        help="tokens finalized per decode step; k > 1 prices diffusion-style "
        "block decode (default: 1 = classic autoregression)",
    )
    parser.add_argument(
        "--decode-adaptive",
        action="store_true",
        help="ramp the decode block width 1, 2, 4, ... up to --decode-block",
    )
    parser.add_argument(
        "--policy",
        default="fcfs",
        choices=QUEUE_POLICIES,
        help="continuous mode: admission queue ordering (default: fcfs)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=3.0,
        help="continuous mode: mean arrival rate as a multiple of the "
        "pool's saturation rate (default: 3.0)",
    )
    parser.add_argument(
        "--trace",
        default="poisson",
        choices=ARRIVAL_TRACES,
        help="continuous mode: seeded arrival process — flat poisson, "
        "rate-modulated diurnal, or clustered bursty (default: poisson)",
    )
    parser.add_argument(
        "--iteration-rows",
        type=int,
        default=DEFAULT_ITERATION_ROWS,
        help="continuous mode: rows each resident request advances per "
        f"iteration (default: {DEFAULT_ITERATION_ROWS})",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="drain mode: also run sequential single-shard dispatch; "
        "continuous mode: also run drain admission on the same clock",
    )
    parser.add_argument(
        "--events",
        metavar="PATH",
        default=None,
        help="write the run's telemetry event stream to PATH as JSONL "
        "(replay/inspect it with repro-trace; continuous --compare logs "
        "both runs into one file — continuous as run_id 0, drain as 1; "
        "select one with repro-trace ... --run-id)",
    )
    return parser


def _request_seq_lens(args) -> "list[int]":
    return [args.seq_lens[index % len(args.seq_lens)] for index in range(args.requests)]


def _decode_spec(args, config: SWATConfig, seq_len: int) -> ModelSpec:
    """The served-model spec a demo decode request runs against."""
    return ModelSpec.uniform(
        args.model_layers if args.model else 1,
        seq_len,
        window_tokens=args.window_tokens,
        num_heads=args.model_heads if args.model else 1,
        head_dim=config.head_dim,
    )


def _mix_in_decodes(args, config: SWATConfig, requests, arrival_times):
    """Replace every ``--decode-every``-th request with a decode request."""
    if args.decode_every <= 0:
        return requests
    for index in range(args.decode_every - 1, len(requests), args.decode_every):
        seq_len = requests[index].seq_len
        requests[index] = make_decode_request(
            _decode_spec(args, config, seq_len),
            new_tokens=min(args.decode_tokens, seq_len - 1),
            block_size=args.decode_block,
            adaptive=args.decode_adaptive,
            arrival_time=arrival_times[index] if arrival_times is not None else 0.0,
        )
    return requests


def _build_requests(args, config: SWATConfig, functional: bool, arrival_times=None):
    """The demo's request mix: attentions or whole-model forwards, with
    every ``--decode-every``-th slot swapped for an autoregressive decode."""
    seq_lens = _request_seq_lens(args)
    if not args.model:
        requests = make_requests(
            seq_lens,
            config.head_dim,
            seed=args.seed,
            functional=functional,
            arrival_times=arrival_times,
        )
    else:
        specs = {
            seq_len: ModelSpec.uniform(
                args.model_layers,
                seq_len,
                window_tokens=args.window_tokens,
                num_heads=args.model_heads,
                head_dim=config.head_dim,
            )
            for seq_len in set(seq_lens)
        }
        requests = [
            make_forward_request(
                specs[seq_len],
                seed=args.seed + index,
                functional=functional,
                arrival_time=arrival_times[index] if arrival_times is not None else 0.0,
            )
            for index, seq_len in enumerate(seq_lens)
        ]
    return _mix_in_decodes(args, config, requests, arrival_times)


def _serve(
    config: SWATConfig,
    requests,
    backend: str,
    num_shards: int,
    max_batch_size: int,
    bus=None,
) -> ServingResult:
    engine = ServingEngine(
        config=config,
        backend=backend,
        num_shards=num_shards,
        max_batch_size=max_batch_size,
        plan_cache=PlanCache(bus=bus),
        bus=bus,
    )
    return engine.serve(requests)


def _speedup_lines(label: str, fast: ServingResult, slow: ServingResult) -> "list[str]":
    """Requests/sec and head-rows/sec comparison lines for ``--compare``."""
    lines = []
    fast_rps = fast.stats.requests_per_second
    slow_rps = slow.stats.requests_per_second
    if slow_rps > 0:
        lines.append(f"{label}: {fast_rps / slow_rps:.2f}x requests/sec")
    fast_rows = fast.stats.head_rows_per_second
    slow_rows = slow.stats.head_rows_per_second
    if slow_rows > 0:
        lines.append(
            f"head-rows/sec: {fast_rows:.3g} vs {slow_rows:.3g} "
            f"({fast_rows / slow_rows:.2f}x)"
        )
    return lines


def _run_drain(args, config: SWATConfig, bus=None) -> int:
    functional = REGISTRY.backend_class(args.backend).functional
    requests = _build_requests(args, config, functional)

    kind = "whole-model forward" if args.model else "attention"
    print(f"serving {len(requests)} {kind} requests on {args.shards} shard(s), "
          f"batch size {args.batch_size}, backend {args.backend!r}\n")
    result = _serve(config, requests, args.backend, args.shards, args.batch_size, bus=bus)
    print(result.stats.render())

    if args.compare:
        sequential = _serve(config, requests, args.backend, 1, 1)
        print()
        print(sequential.stats.to_table("Sequential single-shard dispatch").render())
        print()
        for line in _speedup_lines("batched multi-shard speedup", result, sequential):
            print(line)
    return 0


def _run_continuous(args, config: SWATConfig, bus=None) -> int:
    seq_lens = _request_seq_lens(args)
    if seq_lens:
        rate = args.load * swat_request_rate(
            config,
            seq_lens,
            num_shards=args.shards,
            max_batch_size=args.batch_size,
            num_heads=args.model_heads if args.model else 1,
            num_layers=args.model_layers if args.model else 1,
        )
        arrival_times = _arrival_times(args, rate)
    else:
        arrival_times = []
    functional = REGISTRY.backend_class(args.backend).functional
    requests = _build_requests(args, config, functional, arrival_times=arrival_times)

    kind = "whole-model forward" if args.model else "attention"
    print(f"serving {len(requests)} {kind} requests on {args.shards} shard(s), "
          f"{args.batch_size} slots, backend {args.backend!r}, "
          f"continuous admission ({args.policy}, {args.trace} load x{args.load:g})\n")
    if args.compare:
        comparison = compare_modes(
            requests,
            config=config,
            backend=args.backend,
            num_shards=args.shards,
            max_batch_size=args.batch_size,
            iteration_rows=args.iteration_rows,
            policy=args.policy,
            bus=bus,
        )
        print(comparison.continuous.stats.to_table("Continuous admission").render())
        print()
        print(comparison.drain.stats.to_table("Drain admission (same clock)").render())
        print()
        for line in _speedup_lines(
            "continuous-over-drain speedup", comparison.continuous, comparison.drain
        ):
            print(line)
        return 0
    result = serve_continuous(
        requests,
        config=config,
        backend=args.backend,
        num_shards=args.shards,
        max_batch_size=args.batch_size,
        iteration_rows=args.iteration_rows,
        policy=args.policy,
        plan_cache=PlanCache(bus=bus),
        bus=bus,
    )
    print(result.stats.to_table("Continuous admission").render())
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shards <= 0:
        parser.error(f"--shards must be positive, got {args.shards}")
    if args.batch_size <= 0:
        parser.error(f"--batch-size must be positive, got {args.batch_size}")
    if args.requests < 0:
        parser.error(f"--requests must be non-negative, got {args.requests}")
    if args.load <= 0:
        parser.error(f"--load must be positive, got {args.load}")
    if args.iteration_rows <= 0:
        parser.error(f"--iteration-rows must be positive, got {args.iteration_rows}")
    if args.model_layers <= 0:
        parser.error(f"--model-layers must be positive, got {args.model_layers}")
    if args.model_heads <= 0:
        parser.error(f"--model-heads must be positive, got {args.model_heads}")
    if args.decode_every < 0:
        parser.error(f"--decode-every must be non-negative, got {args.decode_every}")
    if args.decode_tokens <= 0:
        parser.error(f"--decode-tokens must be positive, got {args.decode_tokens}")
    if args.decode_block <= 0:
        parser.error(f"--decode-block must be positive, got {args.decode_block}")
    if args.mode == "continuous" and not REGISTRY.backend_class(args.backend).supports_continuous:
        parser.error(
            f"--backend {args.backend} has no modelled per-iteration clock "
            f"(its clock is measured host time) and cannot serve in continuous mode"
        )
    config = SWATConfig.longformer(window_tokens=args.window_tokens)
    print(f"config: {config.describe()}")
    if args.model:
        print(
            f"model: {args.model_layers} layers x {args.model_heads} heads per forward "
            f"(one ModelPlan per distinct seq_len)"
        )
    bus = None
    writer = None
    if args.events:
        from repro.telemetry import EventBus, EventLogWriter

        bus = EventBus()
        writer = EventLogWriter(args.events)
        bus.subscribe(writer)
    try:
        if args.mode == "continuous":
            status = _run_continuous(args, config, bus=bus)
        else:
            status = _run_drain(args, config, bus=bus)
    finally:
        if writer is not None:
            writer.close()
    if writer is not None:
        print(f"\nwrote {writer.events_written} events to {args.events} "
              f"(inspect with: repro-trace summarize {args.events})")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
