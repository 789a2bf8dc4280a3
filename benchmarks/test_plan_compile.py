"""Benchmark: compiled-plan build vs legacy per-row build, and end-to-end run().

The plan-IR refactor's acceptance numbers live here: schedule compilation
(:func:`repro.core.plan.compile_plan`) must be at least 5x faster than the
seed's per-row construction (``legacy_row_plans``, kept as the test oracle in
``tests/core/schedule_oracle.py``), and the blocked executor must make the
full functional simulation measurably faster than the per-row execution
shape it replaced (``execute_plan_attention_rows``, kept as the test oracle
in ``tests/core/executor_oracle.py``).  Measured on a 2-core x86 host: build
~1,500x (seq 1024) to ~14,000x (seq 16384), ~20x with random attention, and
the band-chunked executor ~10x the per-row shape at seq 4096.

``PLAN_COMPILE_SEQ_LENS`` (comma-separated) overrides the swept sequence
lengths; CI sets it to a single short length so schedule-build regressions
surface on every PR without paying the long-sequence sweep (smoke mode).
"""

import os
import time

import numpy as np
import pytest

from repro.core.config import SWATConfig
from repro.core.plan import compile_plan, execute_plan_attention
from repro.core.simulator import SWATSimulator
from repro.workload.generator import attention_inputs
from tests.core.executor_oracle import execute_plan_attention_rows
from tests.core.schedule_oracle import legacy_row_plans

#: Build-speedup floor asserted at every swept length (acceptance criterion).
BUILD_SPEEDUP_FLOOR = 5.0
#: Floor for the random-attention config, whose compiled build keeps the
#: seeded per-row draw loop (measured ~20x; a lower floor absorbs noisy CI
#: runners where the window-only case has hundreds-fold margin).
RANDOM_BUILD_SPEEDUP_FLOOR = 3.0


def _seq_lens():
    raw = os.environ.get("PLAN_COMPILE_SEQ_LENS", "1024,4096,16384")
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _best_of(fn, rounds=3):
    """Minimum wall time over ``rounds`` runs (filters CI scheduler stalls)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("seq_len", _seq_lens())
def test_schedule_build_speedup(benchmark, seq_len):
    """Compiled-plan build vs the legacy per-row build at each sequence length."""
    config = SWATConfig.longformer()  # the paper's standard 2w = 512 setup
    benchmark(compile_plan, config, seq_len)
    compiled_seconds = _best_of(lambda: compile_plan(config, seq_len), rounds=3)
    legacy_seconds = _best_of(lambda: legacy_row_plans(config, seq_len), rounds=2)
    speedup = legacy_seconds / compiled_seconds
    print(
        f"\nschedule build at seq_len={seq_len}: legacy {legacy_seconds * 1e3:.1f} ms vs "
        f"compiled {compiled_seconds * 1e3:.2f} ms ({speedup:.0f}x)"
    )
    assert speedup >= BUILD_SPEEDUP_FLOOR


def test_schedule_build_speedup_with_random_attention(benchmark):
    """BigBird-style configs keep the seeded draw loop but shed the set ops.

    Each row draws against its integer candidate count, with no per-row
    candidate arrays (measured ~20x at seq_len=1024).
    """
    seq_len = min(_seq_lens())
    config = SWATConfig.bigbird(window_tokens=64, num_global_tokens=16, num_random_tokens=16)
    benchmark(compile_plan, config, seq_len)
    compiled_seconds = _best_of(lambda: compile_plan(config, seq_len), rounds=3)
    legacy_seconds = _best_of(lambda: legacy_row_plans(config, seq_len), rounds=2)
    speedup = legacy_seconds / compiled_seconds
    print(
        f"\nrandom-attention build at seq_len={seq_len}: legacy {legacy_seconds * 1e3:.1f} ms "
        f"vs compiled {compiled_seconds * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= RANDOM_BUILD_SPEEDUP_FLOOR


def test_end_to_end_run_wall_time(benchmark):
    """Full ``SWATSimulator.run`` wall time: blocked executor vs per-row shape.

    Band-sized chunks put the blocked executor at ~10x the per-row shape at
    seq_len=4096.
    """
    seq_len = min(4096, max(_seq_lens()))
    config = SWATConfig.longformer()
    simulator = SWATSimulator(config)
    q, k, v = attention_inputs(seq_len, config.head_dim, seed=0)

    result = benchmark(simulator.run, q, k, v)

    plan = compile_plan(config, seq_len)
    scale = 1.0 / np.sqrt(config.head_dim)
    blocked_seconds = _best_of(
        lambda: execute_plan_attention(plan, q, k, v, scale=scale), rounds=2
    )
    per_row_seconds = _best_of(
        lambda: execute_plan_attention_rows(plan, q, k, v, scale=scale), rounds=2
    )
    print(
        f"\nend-to-end run at seq_len={seq_len}: per-row executor "
        f"{per_row_seconds * 1e3:.0f} ms vs blocked {blocked_seconds * 1e3:.0f} ms "
        f"({per_row_seconds / blocked_seconds:.1f}x)"
    )
    # Acceptance property: the blocked executor is measurably faster than the
    # per-row execution shape, and the simulation it feeds stays correct.
    assert blocked_seconds < per_row_seconds
    np.testing.assert_allclose(
        result.output, execute_plan_attention_rows(plan, q, k, v, scale=scale), atol=1e-12
    )
