"""Async multi-accelerator serving layer over the SWAT execution paths.

Turns the one-shot :class:`~repro.core.simulator.SWATSimulator` into a served
system: a pluggable backend registry (:mod:`repro.serving.backends`), an async
request queue with dynamic batching (:mod:`repro.serving.batcher`,
:mod:`repro.serving.engine`), a per-shape plan/schedule cache
(:mod:`repro.serving.cache`) and serving-level accounting
(:mod:`repro.serving.stats`).  The ``repro-serve`` console script
(:mod:`repro.serving.demo`) drives it from the shell.
"""

from repro.serving.backends import (
    AttentionBackend,
    BackendResult,
    available_backends,
    create_backend,
    register_backend,
)
from repro.serving.batcher import DynamicBatcher, seq_len_bucket
from repro.serving.cache import CachedPlan, KVResidency, PlanCache, config_fingerprint
from repro.serving.continuous import (
    QUEUE_POLICIES,
    SCHEDULERS,
    ContinuousBatcher,
    IterationRecord,
    ScenarioComparison,
    ServingClock,
    bursty_arrivals,
    compare_modes,
    diurnal_arrivals,
    poisson_arrivals,
    serve_continuous,
    swat_request_rate,
)
from repro.serving.engine import ServingEngine, ServingResult
from repro.serving.request import (
    AttentionRequest,
    CompletedRequest,
    DecodeRequest,
    ForwardRequest,
    decode_block_schedule,
    make_decode_request,
    make_forward_request,
    make_request,
    make_requests,
)
from repro.serving.stats import BatchRecord, ServingStats, decode_token_intervals, percentile

__all__ = [
    "AttentionBackend",
    "BackendResult",
    "available_backends",
    "create_backend",
    "register_backend",
    "DynamicBatcher",
    "seq_len_bucket",
    "CachedPlan",
    "KVResidency",
    "PlanCache",
    "config_fingerprint",
    "ContinuousBatcher",
    "QUEUE_POLICIES",
    "SCHEDULERS",
    "IterationRecord",
    "ScenarioComparison",
    "ServingClock",
    "bursty_arrivals",
    "compare_modes",
    "diurnal_arrivals",
    "poisson_arrivals",
    "serve_continuous",
    "swat_request_rate",
    "ServingEngine",
    "ServingResult",
    "AttentionRequest",
    "DecodeRequest",
    "ForwardRequest",
    "CompletedRequest",
    "decode_block_schedule",
    "make_request",
    "make_requests",
    "make_decode_request",
    "make_forward_request",
    "BatchRecord",
    "ServingStats",
    "decode_token_intervals",
    "percentile",
]
