"""Test oracle: the retired drain-only SWAT timing formula.

SWAT backends used to price a drained dispatch with a second formula beside
their burst kernel: one cold ``cycles_for_rows`` stream over every attention
request's rows, then each whole-model forward off its compiled
:class:`~repro.model.plan.ModelPlan` totals, then each decode off its
:class:`~repro.model.plan.DecodePlan` totals.  ``execute_batch`` now prices
the same dispatch as cold one-iteration ``step_burst`` calls; this is the
cycles/seconds half of the old formula, kept verbatim so the property tests
can hold the burst-priced drain to it bit for bit.  Its energy half (per-layer
power for forwards) is the behaviour the change removed, so it is not kept.
"""

from __future__ import annotations

from repro.serving.backends import split_batch


def drained_timing(backend, batch) -> "tuple[int, float]":
    """``(cycles, device_seconds)`` of a drained SWAT dispatch, old formula."""
    attentions, forwards, decodes = split_batch(batch)
    cycles = backend.simulator.pipeline.cycles_for_rows(
        sum(backend.request_rows(request) for _, request in attentions)
    )
    seconds = cycles * backend._clock_period_s
    for _, request in forwards:
        plan = backend.model_plan(request)
        cycles += plan.total_cycles
        seconds += plan.total_seconds
    for _, request in decodes:
        plan = backend.decode_plan(request)
        cycles += plan.total_cycles
        seconds += plan.total_seconds
    return cycles, seconds
